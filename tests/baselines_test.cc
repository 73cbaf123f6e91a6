#include "baselines/registry.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baselines/glr_imputer.h"
#include "baselines/knn_imputer.h"
#include "baselines/mean_imputer.h"
#include "baselines/svd_imputer.h"
#include "common/rng.h"
#include "datasets/paper_example.h"

namespace iim::baselines {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

data::Table MakeTable(const std::vector<std::vector<double>>& rows) {
  data::Table t(data::Schema::Default(rows.empty() ? 0 : rows[0].size()));
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

// Clean linear relation A3 = 1 + 2 A1 - A2 for regression baselines.
data::Table LinearTable(size_t n, uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  data::Table t(data::Schema::Default(3), n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(-5, 5), b = rng.Uniform(-5, 5);
    t.Set(i, 0, a);
    t.Set(i, 1, b);
    t.Set(i, 2, 1.0 + 2.0 * a - b + rng.Gaussian(0, noise));
  }
  return t;
}

data::Table QueryTuple(double a1, double a2) {
  return MakeTable({{a1, a2, kNan}});
}

// Two-column query for the Figure 1 relation (A2 missing).
data::Table QueryPair(double a1) { return MakeTable({{a1, kNan}}); }

TEST(MeanImputerTest, ReturnsTargetMean) {
  data::Table r = MakeTable({{0, 1}, {0, 3}, {0, 5}});
  MeanImputer imputer;
  ASSERT_TRUE(imputer.Fit(r, 1, {0}).ok());
  Result<double> v = imputer.ImputeOne(MakeTable({{0, kNan}}).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value(), 3.0);
}

TEST(KnnImputerTest, PaperExample1WhiteSquare) {
  // kNN with k=3 on Figure 1: mean of t4, t5, t6 on A2 = (3.2+3+4.1)/3.
  data::Table r = datasets::Figure1Relation();
  BaselineOptions opt;
  opt.k = 3;
  KnnImputer imputer(opt);
  ASSERT_TRUE(imputer.Fit(r, 1, {0}).ok());
  Result<double> v =
      imputer.ImputeOne(QueryPair(datasets::kFigure1QueryA1).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), (3.2 + 3.0 + 4.1) / 3.0, 1e-12);
}

TEST(GlrImputerTest, ExactOnLinearData) {
  data::Table r = LinearTable(50, 1);
  BaselineOptions opt;
  GlrImputer imputer(opt);
  ASSERT_TRUE(imputer.Fit(r, 2, {0, 1}).ok());
  Result<double> v = imputer.ImputeOne(QueryTuple(2.0, 3.0).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), 1.0 + 4.0 - 3.0, 1e-4);
}

TEST(AllBaselinesTest, RegistryKnowsThirteenMethods) {
  EXPECT_EQ(AllBaselineNames().size(), 13u);
  EXPECT_FALSE(MakeBaseline("NotAMethod").ok());
}

class EveryBaselineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBaselineTest, ImputesLinearDataReasonably) {
  const std::string name = GetParam();
  data::Table r = LinearTable(120, 7, /*noise=*/0.05);
  BaselineOptions opt;
  opt.k = 8;
  Result<std::unique_ptr<Imputer>> made = MakeBaseline(name, opt);
  ASSERT_TRUE(made.ok());
  Imputer* imputer = made.value().get();
  EXPECT_EQ(imputer->Name(), name);
  ASSERT_TRUE(imputer->Fit(r, 2, {0, 1}).ok()) << name;

  // Average error over a few probes must be far below the target's spread
  // (target range here is roughly [-15, 15]).
  Rng rng(99);
  double total_err = 0.0;
  const int probes = 20;
  for (int p = 0; p < probes; ++p) {
    double a = rng.Uniform(-4, 4), b = rng.Uniform(-4, 4);
    double truth = 1.0 + 2.0 * a - b;
    Result<double> v = imputer->ImputeOne(QueryTuple(a, b).Row(0));
    ASSERT_TRUE(v.ok()) << name;
    total_err += std::fabs(v.value() - truth);
  }
  double mean_err = total_err / probes;
  // Mean is degenerate and GMM/IFC are cluster-average models (Table II),
  // so they are only bounded loosely; real predictors get a tight budget.
  double budget = 3.5;
  if (name == "Mean" || name == "GMM") budget = 12.0;
  if (name == "IFC") budget = 8.0;
  EXPECT_LT(mean_err, budget) << name;
}

TEST_P(EveryBaselineTest, LifecycleErrorsReported) {
  const std::string name = GetParam();
  BaselineOptions opt;
  Result<std::unique_ptr<Imputer>> made = MakeBaseline(name, opt);
  ASSERT_TRUE(made.ok());
  Imputer* imputer = made.value().get();

  data::Table r = LinearTable(30, 11);
  // Not fitted yet.
  EXPECT_EQ(imputer->ImputeOne(QueryTuple(0, 0).Row(0)).status().code(),
            StatusCode::kFailedPrecondition)
      << name;
  // Bad fit arguments.
  EXPECT_FALSE(imputer->Fit(r, -1, {0}).ok()) << name;
  EXPECT_FALSE(imputer->Fit(r, 2, {}).ok()) << name;
  EXPECT_FALSE(imputer->Fit(r, 2, {2}).ok()) << name;          // target in F
  EXPECT_FALSE(imputer->Fit(r, 2, {0, 99}).ok()) << name;      // F range
  EXPECT_FALSE(imputer->Fit(data::Table(), 0, {1}).ok()) << name;

  // NaN or infinity in the fitted columns is rejected.
  data::Table dirty = LinearTable(10, 13);
  dirty.Set(3, 0, kNan);
  EXPECT_FALSE(imputer->Fit(dirty, 2, {0, 1}).ok()) << name;
  data::Table inf_feature = LinearTable(10, 13);
  inf_feature.Set(4, 1, kInf);
  EXPECT_FALSE(imputer->Fit(inf_feature, 2, {0, 1}).ok()) << name;
  data::Table inf_target = LinearTable(10, 13);
  inf_target.Set(5, 2, -kInf);
  EXPECT_FALSE(imputer->Fit(inf_target, 2, {0, 1}).ok()) << name;

  // After a good fit, a tuple with NaN or infinite features is rejected.
  ASSERT_TRUE(imputer->Fit(r, 2, {0, 1}).ok()) << name;
  EXPECT_FALSE(imputer->ImputeOne(QueryTuple(kNan, 1.0).Row(0)).ok())
      << name;
  EXPECT_FALSE(imputer->ImputeOne(QueryTuple(kInf, 1.0).Row(0)).ok())
      << name;
  // Arity mismatch rejected.
  data::Table wrong = MakeTable({{1.0, 2.0}});
  EXPECT_FALSE(imputer->ImputeOne(wrong.Row(0)).ok()) << name;
}

INSTANTIATE_TEST_SUITE_P(Methods, EveryBaselineTest,
                         ::testing::ValuesIn(AllBaselineNames()),
                         [](const auto& info) { return info.param; });

TEST(SvdImputerTest, RejectsTwoColumnRelations) {
  // The paper reports SVD as not applicable on the 2-attribute SN data.
  data::Table r = MakeTable({{1, 2}, {3, 4}, {5, 6}});
  BaselineOptions opt;
  SvdImputer imputer(opt);
  EXPECT_EQ(imputer.Fit(r, 1, {0}).code(), StatusCode::kNotSupported);
}

TEST(SvdImputerTest, RankSelectionByEnergy) {
  // Strongly rank-1 data: effective rank should be small.
  data::Table r = LinearTable(60, 17);
  BaselineOptions opt;
  SvdImputer imputer(opt);
  ASSERT_TRUE(imputer.Fit(r, 2, {0, 1}).ok());
  EXPECT_GE(imputer.effective_rank(), 1u);
  EXPECT_LE(imputer.effective_rank(), 3u);
}

TEST(PmmImputerTest, ReturnsObservedDonorValues) {
  data::Table r = LinearTable(40, 23);
  BaselineOptions opt;
  opt.pmm_donors = 3;
  Result<std::unique_ptr<Imputer>> made = MakeBaseline("PMM", opt);
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Fit(r, 2, {0, 1}).ok());
  Result<double> v = made.value()->ImputeOne(QueryTuple(1.0, 1.0).Row(0));
  ASSERT_TRUE(v.ok());
  // PMM must return one of the observed target values.
  bool found = false;
  for (size_t i = 0; i < r.NumRows(); ++i) {
    if (r.At(i, 2) == v.value()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(BlrImputerTest, SeededDrawIsDeterministic) {
  data::Table r = LinearTable(40, 29);
  BaselineOptions opt;
  opt.seed = 1234;
  Result<std::unique_ptr<Imputer>> a = MakeBaseline("BLR", opt);
  Result<std::unique_ptr<Imputer>> b = MakeBaseline("BLR", opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->Fit(r, 2, {0, 1}).ok());
  ASSERT_TRUE(b.value()->Fit(r, 2, {0, 1}).ok());
  Result<double> va = a.value()->ImputeOne(QueryTuple(1, 2).Row(0));
  Result<double> vb = b.value()->ImputeOne(QueryTuple(1, 2).Row(0));
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_DOUBLE_EQ(va.value(), vb.value());
}

TEST(KnneImputerTest, SingleFeatureFallsBackToKnn) {
  data::Table r = datasets::Figure1Relation();
  BaselineOptions opt;
  opt.k = 3;
  Result<std::unique_ptr<Imputer>> knne = MakeBaseline("kNNE", opt);
  ASSERT_TRUE(knne.ok());
  ASSERT_TRUE(knne.value()->Fit(r, 1, {0}).ok());
  Result<double> v = knne.value()->ImputeOne(QueryPair(5.0).Row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), (3.2 + 3.0 + 4.1) / 3.0, 1e-12);
}

TEST(RegistryTest, HeterogeneousDataFavorsLocalOverGlobal) {
  // Two "streets" with opposite slopes (the Figure 1 story, scaled up):
  // a global line must do worse than kNN near a street.
  Rng rng(31);
  data::Table t(data::Schema::Default(2), 200);
  for (size_t i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      double x = rng.Uniform(0, 4);
      t.Set(i, 0, x);
      t.Set(i, 1, 6.0 - x + rng.Gaussian(0, 0.05));
    } else {
      double x = rng.Uniform(6, 10);
      t.Set(i, 0, x);
      t.Set(i, 1, x - 6.0 + rng.Gaussian(0, 0.05));
    }
  }
  BaselineOptions opt;
  opt.k = 5;
  KnnImputer knn(opt);
  GlrImputer glr(opt);
  ASSERT_TRUE(knn.Fit(t, 1, {0}).ok());
  ASSERT_TRUE(glr.Fit(t, 1, {0}).ok());
  double truth = 6.0 - 2.0;  // street 1 at x = 2
  Result<double> v_knn = knn.ImputeOne(QueryPair(2.0).Row(0));
  Result<double> v_glr = glr.ImputeOne(QueryPair(2.0).Row(0));
  ASSERT_TRUE(v_knn.ok());
  ASSERT_TRUE(v_glr.ok());
  EXPECT_LT(std::fabs(v_knn.value() - truth),
            std::fabs(v_glr.value() - truth));
}

}  // namespace
}  // namespace iim::baselines
