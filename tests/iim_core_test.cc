#include "core/iim_imputer.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baselines/glr_imputer.h"
#include "baselines/knn_imputer.h"
#include "common/rng.h"
#include "datasets/generator.h"
#include "datasets/paper_example.h"
#include "datasets/specs.h"

namespace iim::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

data::Table QueryTuple(double a1) {
  data::Table t(data::Schema::Default(2));
  EXPECT_TRUE(t.AppendRow({a1, kNan}).ok());
  return t;
}

data::Table RandomHeterogeneousTable(size_t n, size_t m, uint64_t seed) {
  datasets::DatasetSpec spec;
  spec.name = "test";
  spec.n = n;
  spec.m = m;
  spec.regimes = 3;
  spec.exogenous = std::max<size_t>(1, m / 2);
  spec.divergence = 0.8;
  spec.noise = 0.2;
  Result<datasets::GeneratedDataset> gen = datasets::Generate(spec, seed);
  EXPECT_TRUE(gen.ok());
  return gen.value().table;
}

TEST(CombineCandidatesTest, PaperExample3Weights) {
  // Candidates {1.19, 1.21, 1.19}: c = {0.02, 0.04, 0.02}; weights
  // {50/125, 25/125, 50/125}; result 1.194.
  Result<double> v = CombineCandidates({1.19, 1.21, 1.19});
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), 1.194, 1e-9);
}

TEST(CombineCandidatesTest, UniformIsPlainAverage) {
  Result<double> v = CombineCandidates({1.0, 2.0, 6.0}, /*uniform=*/true);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value(), 3.0);
}

TEST(CombineCandidatesTest, OutliersGetLowWeight) {
  // Candidates {1, 1, 100}: c = {99, 99, 198}, weights {0.4, 0.4, 0.2}
  // (Formula 12 is inverse-distance, so the damping is mild), giving
  // 0.4 + 0.4 + 20 = 20.8 — below the uniform mean of 34.
  Result<double> v = CombineCandidates({1.0, 1.0, 100.0});
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), 20.8, 1e-9);
  Result<double> uniform = CombineCandidates({1.0, 1.0, 100.0}, true);
  ASSERT_TRUE(uniform.ok());
  EXPECT_LT(v.value(), uniform.value());
}

TEST(CombineCandidatesTest, DegenerateInputs) {
  EXPECT_FALSE(CombineCandidates({}).ok());
  Result<double> single = CombineCandidates({7.0});
  ASSERT_TRUE(single.ok());
  EXPECT_DOUBLE_EQ(single.value(), 7.0);
  Result<double> equal = CombineCandidates({2.5, 2.5, 2.5});
  ASSERT_TRUE(equal.ok());
  EXPECT_DOUBLE_EQ(equal.value(), 2.5);
}

TEST(IimLearningTest, PaperExample2IndividualModels) {
  // l = 4 on Figure 1: phi_1 ~ (5.56, -0.87), phi_8 ~ (-4.36, 1.11).
  data::Table r = datasets::Figure1Relation();
  neighbors::BruteForceIndex index(&r, {0});
  IimOptions opt;
  opt.ell = 4;
  Result<IndividualModels> phi =
      IndividualModels::Learn(r, 1, {0}, index, opt);
  ASSERT_TRUE(phi.ok());
  ASSERT_EQ(phi.value().size(), 8u);
  EXPECT_NEAR(phi.value().model(0).phi[0], 5.56, 0.02);
  EXPECT_NEAR(phi.value().model(0).phi[1], -0.87, 0.02);
  // t2's neighbors for l=4 are {t2, t1, t3, t4} -> same street model.
  EXPECT_NEAR(phi.value().model(1).phi[1], -0.87, 0.02);
  // t8 sits in the second street (positive slope).
  EXPECT_NEAR(phi.value().model(7).phi[0], -4.36, 0.15);
  EXPECT_NEAR(phi.value().model(7).phi[1], 1.11, 0.02);
}

TEST(IimLearningTest, SingleNeighborRuleAtEllOne) {
  data::Table r = datasets::Figure1Relation();
  neighbors::BruteForceIndex index(&r, {0});
  IimOptions opt;
  opt.ell = 1;
  Result<IndividualModels> phi =
      IndividualModels::Learn(r, 1, {0}, index, opt);
  ASSERT_TRUE(phi.ok());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(phi.value().model(i).phi[0], r.At(i, 1));
    EXPECT_DOUBLE_EQ(phi.value().model(i).phi[1], 0.0);
  }
}

TEST(IimImputerTest, PaperExample3EndToEnd) {
  // IIM with k=3, l=4 imputes tx[A2] ~ 1.19 (white triangle in Figure 1),
  // far closer to the truth 1.8 than kNN's 3.43.
  data::Table r = datasets::Figure1Relation();
  IimOptions opt;
  opt.k = 3;
  opt.ell = 4;
  IimImputer iim(opt);
  ASSERT_TRUE(iim.Fit(r, 1, {0}).ok());

  Result<std::vector<double>> candidates =
      iim.Candidates(QueryTuple(datasets::kFigure1QueryA1).Row(0));
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates.value().size(), 3u);
  // Neighbors are t5, t4, t6; t5/t6 share the second-street model
  // (~1.13-1.19), t4 the first-street model (~1.21).
  EXPECT_NEAR(candidates.value()[0], 1.19, 0.08);
  EXPECT_NEAR(candidates.value()[1], 1.21, 0.08);
  EXPECT_NEAR(candidates.value()[2], 1.19, 0.08);

  Result<double> v =
      iim.ImputeOne(QueryTuple(datasets::kFigure1QueryA1).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), 1.19, 0.08);
  // Paper's headline comparison on this example.
  double iim_err = std::fabs(v.value() - datasets::kFigure1TruthA2);
  double knn_err = std::fabs((3.2 + 3.0 + 4.1) / 3.0 -
                             datasets::kFigure1TruthA2);
  EXPECT_LT(iim_err, knn_err);
}

// ---- Proposition 1: l = 1 + uniform weights == kNN ----

class Proposition1Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Proposition1Test, IimWithEllOneUniformEqualsKnn) {
  size_t k = GetParam();
  data::Table r = RandomHeterogeneousTable(150, 4, 100 + k);

  IimOptions iim_opt;
  iim_opt.ell = 1;
  iim_opt.k = k;
  iim_opt.uniform_weights = true;
  IimImputer iim(iim_opt);

  baselines::BaselineOptions knn_opt;
  knn_opt.k = k;
  baselines::KnnImputer knn(knn_opt);

  std::vector<int> features = {0, 1, 2};
  ASSERT_TRUE(iim.Fit(r, 3, features).ok());
  ASSERT_TRUE(knn.Fit(r, 3, features).ok());

  Rng rng(k);
  for (int probe = 0; probe < 25; ++probe) {
    data::Table q(data::Schema::Default(4));
    ASSERT_TRUE(q.AppendRow({rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                             rng.Uniform(-10, 10), kNan})
                    .ok());
    Result<double> v_iim = iim.ImputeOne(q.Row(0));
    Result<double> v_knn = knn.ImputeOne(q.Row(0));
    ASSERT_TRUE(v_iim.ok());
    ASSERT_TRUE(v_knn.ok());
    EXPECT_NEAR(v_iim.value(), v_knn.value(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, Proposition1Test,
                         ::testing::Values(1, 2, 3, 5, 10));

// ---- Proposition 2: l = n == GLR ----

class Proposition2Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Proposition2Test, IimWithEllNEqualsGlr) {
  size_t k = GetParam();
  data::Table r = RandomHeterogeneousTable(120, 3, 200 + k);

  IimOptions iim_opt;
  iim_opt.ell = r.NumRows();
  iim_opt.k = k;
  IimImputer iim(iim_opt);

  baselines::BaselineOptions glr_opt;
  baselines::GlrImputer glr(glr_opt);

  std::vector<int> features = {0, 1};
  ASSERT_TRUE(iim.Fit(r, 2, features).ok());
  ASSERT_TRUE(glr.Fit(r, 2, features).ok());

  Rng rng(k * 7);
  for (int probe = 0; probe < 25; ++probe) {
    data::Table q(data::Schema::Default(3));
    ASSERT_TRUE(
        q.AppendRow({rng.Uniform(-10, 10), rng.Uniform(-10, 10), kNan})
            .ok());
    Result<double> v_iim = iim.ImputeOne(q.Row(0));
    Result<double> v_glr = glr.ImputeOne(q.Row(0));
    ASSERT_TRUE(v_iim.ok());
    ASSERT_TRUE(v_glr.ok());
    // All candidates equal the GLR prediction, so any weighting agrees.
    EXPECT_NEAR(v_iim.value(), v_glr.value(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, Proposition2Test, ::testing::Values(1, 3, 7));

TEST(IimImputerTest, LifecycleErrors) {
  data::Table r = datasets::Figure1Relation();
  IimOptions opt;
  IimImputer iim(opt);
  EXPECT_EQ(iim.ImputeOne(QueryTuple(1.0).Row(0)).status().code(),
            StatusCode::kFailedPrecondition);

  IimOptions bad_k;
  bad_k.k = 0;
  IimImputer bad(bad_k);
  EXPECT_FALSE(bad.Fit(r, 1, {0}).ok());

  // Non-finite fitted cells are refused, feature and target alike.
  data::Table inf_feature = r;
  inf_feature.Set(2, 0, kInf);
  EXPECT_FALSE(iim.Fit(inf_feature, 1, {0}).ok());
  data::Table inf_target = r;
  inf_target.Set(5, 1, -kInf);
  EXPECT_FALSE(iim.Fit(inf_target, 1, {0}).ok());

  ASSERT_TRUE(iim.Fit(r, 1, {0}).ok());
  data::Table nan_query(data::Schema::Default(2));
  ASSERT_TRUE(nan_query.AppendRow({kNan, kNan}).ok());
  EXPECT_FALSE(iim.ImputeOne(nan_query.Row(0)).ok());
  EXPECT_FALSE(iim.ImputeOne(QueryTuple(kInf).Row(0)).ok());
}

TEST(IimImputerTest, HugeKImputesLikeKEqualsN) {
  // A k far past n asks for every tuple as a neighbor, exactly as k = n
  // does; no search sizes anything by k.
  data::Table r = RandomHeterogeneousTable(4096, 3, 23);
  IimOptions all;
  all.k = r.NumRows();
  IimOptions huge;
  huge.k = size_t{1} << 40;
  IimImputer a(all), b(huge);
  ASSERT_TRUE(a.Fit(r, 2, {0, 1}).ok());
  ASSERT_TRUE(b.Fit(r, 2, {0, 1}).ok());
  for (size_t i = 0; i < 3; ++i) {
    std::vector<double> probe = r.Row(i * 1000).ToVector();
    probe[2] = kNan;
    data::Table t(r.schema());
    ASSERT_TRUE(t.AppendRow(probe).ok());
    Result<double> want = a.ImputeOne(t.Row(0));
    Result<double> got = b.ImputeOne(t.Row(0));
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), want.value()) << "probe " << i;
  }
}

TEST(IimImputerTest, EllClampedToRelationSize) {
  data::Table r = datasets::Figure1Relation();
  IimOptions opt;
  opt.ell = 1000;  // > n = 8: must behave like l = n (GLR)
  opt.k = 3;
  IimImputer iim(opt);
  ASSERT_TRUE(iim.Fit(r, 1, {0}).ok());
  Result<double> v = iim.ImputeOne(QueryTuple(5.0).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(std::isfinite(v.value()));
}

TEST(IimImputerTest, WeightedBeatsUniformOnHeterogeneousExample) {
  // On Figure 1 with k = 4 the fourth neighbor (t3, first street) pulls a
  // uniform average away from the truth; the vote weighting resists it.
  data::Table r = datasets::Figure1Relation();
  IimOptions weighted;
  weighted.k = 4;
  weighted.ell = 4;
  IimImputer iim_w(weighted);
  IimOptions uniform = weighted;
  uniform.uniform_weights = true;
  IimImputer iim_u(uniform);
  ASSERT_TRUE(iim_w.Fit(r, 1, {0}).ok());
  ASSERT_TRUE(iim_u.Fit(r, 1, {0}).ok());
  Result<double> v_w = iim_w.ImputeOne(QueryTuple(5.0).Row(0));
  Result<double> v_u = iim_u.ImputeOne(QueryTuple(5.0).Row(0));
  ASSERT_TRUE(v_w.ok());
  ASSERT_TRUE(v_u.ok());
  double err_w = std::fabs(v_w.value() - datasets::kFigure1TruthA2);
  double err_u = std::fabs(v_u.value() - datasets::kFigure1TruthA2);
  EXPECT_LE(err_w, err_u + 1e-9);
}

}  // namespace
}  // namespace iim::core
