#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "datasets/paper_example.h"

namespace iim::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

data::Table HeterogeneousTable(size_t n, size_t m, uint64_t seed) {
  datasets::DatasetSpec spec;
  spec.name = "test";
  spec.n = n;
  spec.m = m;
  spec.regimes = 4;
  spec.exogenous = std::max<size_t>(1, m / 2);
  spec.divergence = 0.9;
  spec.noise = 0.15;
  Result<datasets::GeneratedDataset> gen = datasets::Generate(spec, seed);
  EXPECT_TRUE(gen.ok());
  return gen.value().table;
}

TEST(CandidateEllTest, SteppingSequence) {
  EXPECT_EQ(CandidateEllValues(8, 1, 0),
            (std::vector<size_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  // Example 5's stepping h = 3 over n = 8 considers {1, 4, 7} plus the
  // cap itself: l = n (the GLR limit of Proposition 2) stays reachable.
  EXPECT_EQ(CandidateEllValues(8, 3, 0), (std::vector<size_t>{1, 4, 7, 8}));
  EXPECT_EQ(CandidateEllValues(10, 4, 6), (std::vector<size_t>{1, 5, 6}));
  EXPECT_EQ(CandidateEllValues(3, 100, 0), (std::vector<size_t>{1, 3}));
  // step_h == 0 is treated as 1.
  EXPECT_EQ(CandidateEllValues(3, 0, 0), (std::vector<size_t>{1, 2, 3}));
}

TEST(CandidateEllTest, CapEmittedExactlyOnceAtBothEndpoints) {
  // Regression: the cap used to be dropped whenever (cap-1) % h != 0,
  // making l = n unreachable under stepping.
  EXPECT_EQ(CandidateEllValues(9, 3, 0), (std::vector<size_t>{1, 4, 7, 9}));
  // When the stride lands on the cap it must not be duplicated.
  EXPECT_EQ(CandidateEllValues(7, 3, 0), (std::vector<size_t>{1, 4, 7}));
  EXPECT_EQ(CandidateEllValues(1, 5, 0), (std::vector<size_t>{1}));
  // max_ell above n clamps to n, and the clamped cap is emitted too.
  EXPECT_EQ(CandidateEllValues(5, 3, 100), (std::vector<size_t>{1, 4, 5}));
}

TEST(AdaptiveTest, PaperExample4SelectsEllFourForT2) {
  // With k = 3 validation on Figure 1, t2's cost is minimized at l = 4
  // (cost ~0.09) and the chosen model is ~(5.56, -0.87).
  data::Table r = datasets::Figure1Relation();
  neighbors::BruteForceIndex index(&r, {0});
  IimOptions opt;
  opt.adaptive = true;
  opt.k = 3;
  AdaptiveStats stats;
  Result<IndividualModels> phi =
      IndividualModels::LearnAdaptive(r, 1, {0}, index, opt, &stats);
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(stats.chosen_ell[1], 4u);
  EXPECT_NEAR(phi.value().model(1).phi[0], 5.56, 0.02);
  EXPECT_NEAR(phi.value().model(1).phi[1], -0.87, 0.02);
}

TEST(AdaptiveTest, SteppingExample5StillPicksFour) {
  // Stepping h = 3 considers l in {1, 4, 7, 8}; t2 still selects l = 4.
  data::Table r = datasets::Figure1Relation();
  neighbors::BruteForceIndex index(&r, {0});
  IimOptions opt;
  opt.adaptive = true;
  opt.k = 3;
  opt.step_h = 3;
  AdaptiveStats stats;
  Result<IndividualModels> phi =
      IndividualModels::LearnAdaptive(r, 1, {0}, index, opt, &stats);
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(stats.candidate_ells, (std::vector<size_t>{1, 4, 7, 8}));
  EXPECT_EQ(stats.chosen_ell[1], 4u);
}

TEST(AdaptiveTest, IncrementalAndStraightforwardIdentical) {
  // Figure 13's sanity check: the two computation schemes must produce
  // exactly the same chosen models.
  data::Table r = HeterogeneousTable(80, 3, 5);
  neighbors::BruteForceIndex index(&r, {0, 1});
  IimOptions inc_opt;
  inc_opt.adaptive = true;
  inc_opt.k = 4;
  inc_opt.step_h = 2;
  IimOptions scratch_opt = inc_opt;
  scratch_opt.incremental = false;

  AdaptiveStats inc_stats, scratch_stats;
  Result<IndividualModels> inc = IndividualModels::LearnAdaptive(
      r, 2, {0, 1}, index, inc_opt, &inc_stats);
  Result<IndividualModels> scratch = IndividualModels::LearnAdaptive(
      r, 2, {0, 1}, index, scratch_opt, &scratch_stats);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(scratch.ok());
  ASSERT_EQ(inc_stats.chosen_ell.size(), scratch_stats.chosen_ell.size());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    EXPECT_EQ(inc_stats.chosen_ell[i], scratch_stats.chosen_ell[i]) << i;
    for (size_t j = 0; j < inc.value().model(i).phi.size(); ++j) {
      EXPECT_EQ(inc.value().model(i).phi[j],
                scratch.value().model(i).phi[j]);
    }
  }
}

TEST(AdaptiveTest, MaxEllCapRespected) {
  data::Table r = HeterogeneousTable(60, 3, 7);
  neighbors::BruteForceIndex index(&r, {0, 1});
  IimOptions opt;
  opt.adaptive = true;
  opt.max_ell = 10;
  AdaptiveStats stats;
  Result<IndividualModels> phi =
      IndividualModels::LearnAdaptive(r, 2, {0, 1}, index, opt, &stats);
  ASSERT_TRUE(phi.ok());
  for (size_t ell : stats.chosen_ell) {
    EXPECT_GE(ell, 1u);
    EXPECT_LE(ell, 10u);
  }
}

TEST(AdaptiveTest, ValidationSamplingStillProducesModels) {
  data::Table r = HeterogeneousTable(100, 3, 9);
  neighbors::BruteForceIndex index(&r, {0, 1});
  IimOptions opt;
  opt.adaptive = true;
  opt.max_ell = 20;
  opt.validation_sample = 15;
  AdaptiveStats stats;
  Result<IndividualModels> phi =
      IndividualModels::LearnAdaptive(r, 2, {0, 1}, index, opt, &stats);
  ASSERT_TRUE(phi.ok());
  EXPECT_EQ(phi.value().size(), 100u);
  // Orphans (tuples validated by nobody) got the global-best fallback l.
  for (size_t ell : stats.chosen_ell) EXPECT_GE(ell, 1u);
}

TEST(AdaptiveTest, AdaptiveAtLeastAsGoodAsBadFixedEll) {
  // On strongly heterogeneous data, adaptive imputation should beat the
  // worst fixed-l settings and be competitive with the best (Figure 11).
  data::Table full = HeterogeneousTable(240, 3, 11);
  // Hold out the last 40 tuples as incomplete queries.
  std::vector<size_t> train_rows, test_rows;
  for (size_t i = 0; i < 200; ++i) train_rows.push_back(i);
  for (size_t i = 200; i < 240; ++i) test_rows.push_back(i);
  data::Table r = full.TakeRows(train_rows);

  auto rms_for = [&](const IimOptions& opt) {
    IimImputer iim(opt);
    EXPECT_TRUE(iim.Fit(r, 2, {0, 1}).ok());
    double acc = 0.0;
    for (size_t row : test_rows) {
      data::Table q(data::Schema::Default(3));
      EXPECT_TRUE(
          q.AppendRow({full.At(row, 0), full.At(row, 1), kNan}).ok());
      Result<double> v = iim.ImputeOne(q.Row(0));
      EXPECT_TRUE(v.ok());
      double d = v.value() - full.At(row, 2);
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(test_rows.size()));
  };

  IimOptions adaptive;
  adaptive.adaptive = true;
  adaptive.k = 5;
  double rms_adaptive = rms_for(adaptive);

  IimOptions worst_fixed;
  worst_fixed.k = 5;
  worst_fixed.ell = 200;  // l = n: global regression, bad under regimes
  double rms_global = rms_for(worst_fixed);

  EXPECT_LT(rms_adaptive, rms_global);
}

TEST(AdaptiveTest, IimImputerExposesStats) {
  data::Table r = datasets::Figure1Relation();
  IimOptions opt;
  opt.adaptive = true;
  opt.k = 3;
  IimImputer iim(opt);
  ASSERT_TRUE(iim.Fit(r, 1, {0}).ok());
  EXPECT_EQ(iim.adaptive_stats().chosen_ell.size(), 8u);
  EXPECT_GE(iim.learning_seconds(), 0.0);
  data::Table q(data::Schema::Default(2));
  ASSERT_TRUE(q.AppendRow({5.0, kNan}).ok());
  Result<double> v = iim.ImputeOne(q.Row(0));
  ASSERT_TRUE(v.ok());
  // Adaptive IIM on the Figure 1 example still lands near the truth.
  EXPECT_NEAR(v.value(), datasets::kFigure1TruthA2, 0.8);
}

}  // namespace
}  // namespace iim::core
