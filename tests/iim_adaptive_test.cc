#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/iim_imputer.h"
#include "core/individual_models.h"
#include "datasets/generator.h"
#include "datasets/paper_example.h"
#include "linalg/cholesky.h"
#include "regress/ridge.h"

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

// --- SweepCandidates against a per-candidate reference sweep ----------

// A row source for the sweep templates: n rows of q features, row-major.
struct VectorRows {
  size_t q = 0;
  std::vector<double> x;
  std::vector<double> y;
  const double* Features(size_t r) const { return x.data() + r * q; }
  double Target(size_t r) const { return y[r]; }
};

struct SweepOutcome {
  Status status;
  std::vector<double> cost;
  size_t best = 0;
  regress::LinearModel best_model;
  // Candidates whose Cholesky rung failed (the reference only).
  std::vector<bool> fell_back;
};

// Algorithm 3's sweep one candidate at a time, as it read before the
// lanes: fold, SolveNormalEquations, charge, keep the first strict
// minimum.
SweepOutcome ReferenceSweep(const VectorRows& rows,
                            const std::vector<neighbors::Neighbor>& order,
                            const std::vector<size_t>& ells,
                            const std::vector<size_t>& judges, double alpha,
                            bool incremental) {
  SweepOutcome out;
  out.cost.assign(ells.size(), 0.0);
  out.fell_back.assign(ells.size(), false);
  double best_cost = std::numeric_limits<double>::infinity();
  regress::IncrementalRidge fold(rows.q);
  size_t folded = 0;
  for (size_t e = 0; e < ells.size(); ++e) {
    if (!incremental) {
      fold.Reset();
      folded = 0;
    }
    for (; folded < ells[e]; ++folded) {
      size_t r = order[folded].index;
      fold.AddRow(rows.Features(r), rows.Target(r));
    }
    regress::LinearModel model;
    if (ells[e] == 1) {
      model = regress::LinearModel::Constant(rows.Target(order[0].index),
                                             rows.q);
    } else {
      Result<regress::LinearModel> solved =
          regress::SolveNormalEquations(fold.U(), fold.V(), alpha);
      if (!solved.ok()) {
        out.status = solved.status();
        return out;
      }
      model = solved.value();
      linalg::Matrix a = fold.U();
      a.AddScaledIdentity(alpha);
      linalg::Vector phi;
      out.fell_back[e] = !linalg::CholeskySolve(a, fold.V(), &phi).ok();
    }
    double c = 0.0;
    for (size_t j : judges) {
      double err = rows.Target(j) - model.Predict(rows.Features(j), rows.q);
      c += err * err;
    }
    out.cost[e] = c;
    if (c < best_cost) {
      best_cost = c;
      out.best = e;
      out.best_model = model;
    }
  }
  return out;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i])) << what << " [" << i << "]";
  }
}

// Runs SweepCandidates in both schemes through the caller's (reused, so
// stale) fold and lanes and compares cost, best and best_model with the
// reference bit for bit. Returns the incremental reference.
SweepOutcome ExpectSweepMatchesReference(
    const VectorRows& rows, const std::vector<neighbors::Neighbor>& order,
    const std::vector<size_t>& ells, const std::vector<size_t>& judges,
    double alpha, regress::IncrementalRidge* fold,
    regress::RidgeLanes* lanes) {
  SweepOutcome first;
  for (bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "straightforward");
    SweepOutcome want =
        ReferenceSweep(rows, order, ells, judges, alpha, incremental);
    std::vector<double> cost = {42.0};
    size_t best = 99;
    regress::LinearModel best_model =
        regress::LinearModel::Constant(-1.0, rows.q);
    Status st = SweepCandidates(rows, order, ells, judges, alpha,
                                incremental, fold, lanes, &cost, &best,
                                &best_model);
    EXPECT_EQ(st.ToString(), want.status.ToString());
    if (st.ok() && want.status.ok()) {
      ExpectSameBits(cost, want.cost, "cost");
      EXPECT_EQ(best, want.best);
      ExpectSameBits(best_model.phi, want.best_model.phi, "best_model");
    }
    if (incremental) first = want;
  }
  return first;
}

std::vector<neighbors::Neighbor> IdentityOrder(size_t n) {
  std::vector<neighbors::Neighbor> order;
  for (size_t r = 0; r < n; ++r) {
    order.push_back(neighbors::Neighbor{r, static_cast<double>(r)});
  }
  return order;
}

VectorRows RandomRows(size_t n, size_t q, Rng* rng) {
  VectorRows rows;
  rows.q = q;
  for (size_t i = 0; i < n * q; ++i) rows.x.push_back(rng->Gaussian(0, 2));
  for (size_t i = 0; i < n; ++i) rows.y.push_back(rng->Gaussian(1, 3));
  return rows;
}

TEST(SweepCandidatesTest, MatchesTheReferenceSweepBitwise) {
  // The paper benches' stepping (h = 2, capped l) on random rows: 26
  // candidates, so l = 1 alone and three lane groups, the last of one.
  Rng rng(21);
  const size_t q = 4, n = 60;
  VectorRows rows = RandomRows(n, q, &rng);
  regress::IncrementalRidge fold(q);
  regress::RidgeLanes lanes(q);
  std::vector<size_t> ells = CandidateEllValues(n, 2, 50);
  ASSERT_EQ(ells.size(), 26u);
  for (double alpha : {0.0, 1e-6, 1.0}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha));
    ExpectSweepMatchesReference(rows, IdentityOrder(n), ells,
                                {3, 17, 20, 41, 55}, alpha, &fold, &lanes);
  }
  // Every candidate count 1..20 (groups cut at every lane).
  for (size_t cap = 1; cap <= 20; ++cap) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ExpectSweepMatchesReference(rows, IdentityOrder(n),
                                CandidateEllValues(n, 1, cap), {5, 9}, 1e-6,
                                &fold, &lanes);
  }
}

TEST(SweepCandidatesTest, NoJudgesCostsZeroAndKeepsTheFirstCandidate) {
  Rng rng(22);
  const size_t q = 3, n = 30;
  VectorRows rows = RandomRows(n, q, &rng);
  regress::IncrementalRidge fold(q);
  regress::RidgeLanes lanes(q);
  SweepOutcome want = ExpectSweepMatchesReference(
      rows, IdentityOrder(n), CandidateEllValues(n, 2, 0), {}, 1e-6, &fold,
      &lanes);
  EXPECT_EQ(want.best, 0u);
  for (double c : want.cost) EXPECT_EQ(c, 0.0);
}

TEST(SweepCandidatesTest, TiedCostsKeepTheFirstStrictMinimum) {
  // Every candidate l twice: each model, and so each cost, repeats, and
  // the twins land in the same lane group or straddle two. The minimum
  // must be the first twin, as solving candidate by candidate gives.
  Rng rng(23);
  const size_t q = 2, n = 30;
  VectorRows rows = RandomRows(n, q, &rng);
  // A near-linear target, so some regression beats the constant l = 1.
  for (size_t r = 0; r < n; ++r) {
    rows.y[r] = 1.0 + 2.0 * rows.x[r * q] - rows.x[r * q + 1] +
                rng.Gaussian(0.0, 0.1);
  }
  std::vector<size_t> ells = {1};
  for (size_t ell = 2; ell <= 12; ++ell) {
    ells.push_back(ell);
    ells.push_back(ell);
  }
  regress::IncrementalRidge fold(q);
  regress::RidgeLanes lanes(q);
  SweepOutcome want = ExpectSweepMatchesReference(
      rows, IdentityOrder(n), ells, {0, 7, 13, 29}, 1e-6, &fold, &lanes);
  ASSERT_GT(want.best, 0u);
  EXPECT_EQ(ells[want.best - 1], ells[want.best] - 1)
      << "the minimum is not the first of its twins";
  for (size_t e = 1; e + 1 < ells.size(); e += 2) {
    EXPECT_EQ(Bits(want.cost[e]), Bits(want.cost[e + 1])) << e;
  }
}

TEST(SweepCandidatesTest, CandidatesThatFallBackMidGroupMatch) {
  // Feature 0 is the same 0.1 on every row, so under alpha = 0 the Gram
  // matrix is singular up to rounding: the Cholesky pivot of that column
  // is rounding noise, and which candidates fail it (and fall back to LU
  // and the jittered retry) varies from l to l. Some must fail between
  // two that solve in the lanes.
  Rng rng(24);
  const size_t q = 2, n = 40;
  VectorRows rows = RandomRows(n, q, &rng);
  for (size_t r = 0; r < n; ++r) rows.x[r * q] = 0.1;
  std::vector<size_t> ells = CandidateEllValues(n, 1, 0);
  regress::IncrementalRidge fold(q);
  regress::RidgeLanes lanes(q);
  SweepOutcome want = ExpectSweepMatchesReference(
      rows, IdentityOrder(n), ells, {1, 2, 30}, 0.0, &fold, &lanes);
  bool mid_group = false;
  for (size_t e = 2; e + 1 < ells.size(); ++e) {
    if (want.fell_back[e] && !want.fell_back[e - 1] &&
        !want.fell_back[e + 1]) {
      mid_group = true;
    }
  }
  EXPECT_TRUE(mid_group) << "no candidate fell back between two that solved";
}

}  // namespace
}  // namespace iim::core
