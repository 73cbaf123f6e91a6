// Property-based tests: algebraic invariants that must hold for random
// inputs (equivariances of the candidate combination, regression
// invariances, index interchangeability, metric identities).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/iim_imputer.h"
#include "eval/metrics.h"
#include "neighbors/kdtree.h"
#include "regress/ridge.h"

namespace iim {
namespace {

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// --- CombineCandidates (Formulas 10-12) ---------------------------------

TEST_P(SeededPropertyTest, CombineIsPermutationInvariant) {
  Rng rng(GetParam());
  std::vector<double> candidates(6);
  for (double& c : candidates) c = rng.Uniform(-10, 10);
  double base = core::CombineCandidates(candidates).value();
  for (int rep = 0; rep < 5; ++rep) {
    rng.Shuffle(&candidates);
    EXPECT_NEAR(core::CombineCandidates(candidates).value(), base, 1e-9);
  }
}

TEST_P(SeededPropertyTest, CombineIsTranslationEquivariant) {
  // Shifting every candidate by t shifts the aggregate by t: the mutual
  // distances c_xi (and hence the weights) are translation invariant.
  Rng rng(GetParam() + 1);
  std::vector<double> candidates(5), shifted(5);
  double t = rng.Uniform(-100, 100);
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = rng.Uniform(-10, 10);
    shifted[i] = candidates[i] + t;
  }
  EXPECT_NEAR(core::CombineCandidates(shifted).value(),
              core::CombineCandidates(candidates).value() + t, 1e-8);
}

TEST_P(SeededPropertyTest, CombineIsScaleEquivariant) {
  // Scaling candidates by a > 0 scales the aggregate by a: distances
  // scale by a, inverse-distance weights renormalize to the same values.
  Rng rng(GetParam() + 2);
  double a = rng.Uniform(0.1, 10.0);
  std::vector<double> candidates(5), scaled(5);
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = rng.Uniform(-10, 10);
    scaled[i] = candidates[i] * a;
  }
  EXPECT_NEAR(core::CombineCandidates(scaled).value(),
              core::CombineCandidates(candidates).value() * a, 1e-8);
}

TEST_P(SeededPropertyTest, CombineStaysWithinCandidateHull) {
  // The aggregate is a convex combination: min <= result <= max.
  Rng rng(GetParam() + 3);
  std::vector<double> candidates(7);
  for (double& c : candidates) c = rng.Uniform(-50, 50);
  double v = core::CombineCandidates(candidates).value();
  EXPECT_GE(v, *std::min_element(candidates.begin(), candidates.end()) -
                   1e-12);
  EXPECT_LE(v, *std::max_element(candidates.begin(), candidates.end()) +
                   1e-12);
  double u = core::CombineCandidates(candidates, true).value();
  EXPECT_GE(u, *std::min_element(candidates.begin(), candidates.end()) -
                   1e-12);
  EXPECT_LE(u, *std::max_element(candidates.begin(), candidates.end()) +
                   1e-12);
}

// --- Ridge regression -----------------------------------------------------

TEST_P(SeededPropertyTest, RidgePredictionIsTranslationEquivariantInY) {
  // Fitting on y + t moves every prediction by exactly t (the intercept
  // absorbs it) for any alpha, because the ones column is unpenalized by
  // the same amount... with the paper's formulation the intercept IS
  // penalized, so this holds only for alpha ~ 0.
  Rng rng(GetParam() + 4);
  size_t n = 30, p = 3;
  linalg::Matrix x(n, p);
  linalg::Vector y(n), y_shift(n);
  double t = rng.Uniform(-20, 20);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) x(i, j) = rng.Uniform(-5, 5);
    y[i] = rng.Uniform(-5, 5);
    y_shift[i] = y[i] + t;
  }
  regress::RidgeOptions opt;
  opt.alpha = 1e-9;
  auto fit = regress::FitRidge(x, y, opt);
  auto fit_shift = regress::FitRidge(x, y_shift, opt);
  ASSERT_TRUE(fit.ok());
  ASSERT_TRUE(fit_shift.ok());
  std::vector<double> probe(p);
  for (double& v : probe) v = rng.Uniform(-5, 5);
  EXPECT_NEAR(fit_shift.value().Predict(probe),
              fit.value().Predict(probe) + t, 1e-5);
}

TEST_P(SeededPropertyTest, RidgeResidualsOrthogonalToDesign) {
  // OLS normal equations: X^T (y - X phi) ~ 0 at alpha ~ 0.
  Rng rng(GetParam() + 5);
  size_t n = 40, p = 2;
  linalg::Matrix x(n, p);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) x(i, j) = rng.Uniform(-3, 3);
    y[i] = rng.Uniform(-10, 10);
  }
  regress::RidgeOptions opt;
  opt.alpha = 1e-10;
  auto fit = regress::FitRidge(x, y, opt);
  ASSERT_TRUE(fit.ok());
  double residual_sum = 0.0;
  std::vector<double> residual_dot(p, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double r = y[i] - fit.value().Predict(x.Row(i));
    residual_sum += r;
    for (size_t j = 0; j < p; ++j) residual_dot[j] += r * x(i, j);
  }
  EXPECT_NEAR(residual_sum, 0.0, 1e-5);
  for (size_t j = 0; j < p; ++j) EXPECT_NEAR(residual_dot[j], 0.0, 1e-4);
}

// --- Neighbor indexes -------------------------------------------------------

TEST_P(SeededPropertyTest, IndexChoiceNeverChangesIimResults) {
  // The KD-tree batch index and the brute-force scan must learn identical
  // models, bit for bit, with fixed l and with Algorithm 3. The adaptive
  // cell's learning queries ask for max_ell - 1 = 99 neighbors, so the
  // tree's top-k scan cuts its candidates over tied integer rows.
  Rng rng(GetParam() + 6);
  auto tied_table = [&rng](size_t n) {
    data::Table t(data::Schema::Default(3), n);
    for (size_t i = 0; i < n; ++i) {
      double a = std::round(rng.Uniform(-8, 8));  // ties on purpose
      double b = std::round(rng.Uniform(-8, 8));
      t.Set(i, 0, a);
      t.Set(i, 1, b);
      t.Set(i, 2, 2 * a - b + rng.Gaussian(0, 0.1));
    }
    return t;
  };
  auto expect_same = [](const core::IndividualModels& a,
                        const core::IndividualModels& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.model(i).phi, b.model(i).phi) << "tuple " << i;
    }
  };

  data::Table t = tied_table(120);
  neighbors::BruteForceIndex brute(&t, {0, 1});
  neighbors::KdTreeIndex tree(&t, {0, 1});
  core::IimOptions opt;
  opt.ell = 7;
  auto models_brute = core::IndividualModels::Learn(t, 2, {0, 1}, brute,
                                                    opt);
  auto models_tree = core::IndividualModels::Learn(t, 2, {0, 1}, tree, opt);
  ASSERT_TRUE(models_brute.ok());
  ASSERT_TRUE(models_tree.ok());
  expect_same(models_brute.value(), models_tree.value());

  data::Table wide = tied_table(300);
  neighbors::BruteForceIndex wide_brute(&wide, {0, 1});
  neighbors::KdTreeIndex wide_tree(&wide, {0, 1});
  core::IimOptions adaptive;
  adaptive.adaptive = true;
  adaptive.max_ell = 100;
  adaptive.step_h = 2;
  core::AdaptiveStats stats_brute, stats_tree;
  auto adaptive_brute = core::IndividualModels::LearnAdaptive(
      wide, 2, {0, 1}, wide_brute, adaptive, &stats_brute);
  auto adaptive_tree = core::IndividualModels::LearnAdaptive(
      wide, 2, {0, 1}, wide_tree, adaptive, &stats_tree);
  ASSERT_TRUE(adaptive_brute.ok());
  ASSERT_TRUE(adaptive_tree.ok());
  EXPECT_EQ(stats_brute.chosen_ell, stats_tree.chosen_ell);
  expect_same(adaptive_brute.value(), adaptive_tree.value());
}

// --- Metrics ---------------------------------------------------------------

TEST_P(SeededPropertyTest, RmsMatchesDirectDefinition) {
  Rng rng(GetParam() + 7);
  std::vector<eval::ScoredCell> cells;
  double acc = 0.0;
  size_t n = 1 + static_cast<size_t>(rng.UniformInt(1, 30));
  for (size_t i = 0; i < n; ++i) {
    double truth = rng.Uniform(-10, 10);
    double imputed = rng.Uniform(-10, 10);
    cells.push_back({truth, imputed, 0});
    acc += (truth - imputed) * (truth - imputed);
  }
  EXPECT_NEAR(eval::RmsError(cells).value(),
              std::sqrt(acc / static_cast<double>(n)), 1e-12);
}

TEST_P(SeededPropertyTest, PurityIsOneForIdenticalPartitions) {
  Rng rng(GetParam() + 8);
  std::vector<int> labels(60);
  for (int& l : labels) l = static_cast<int>(rng.UniformInt(0, 4));
  // Any relabeling of a partition has purity 1 against itself.
  std::vector<int> renamed(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) renamed[i] = 7 - labels[i];
  EXPECT_DOUBLE_EQ(eval::Purity(renamed, labels).value(), 1.0);
  // Purity is always in (0, 1].
  std::vector<int> random(labels.size());
  for (int& l : random) l = static_cast<int>(rng.UniformInt(0, 4));
  double p = eval::Purity(random, labels).value();
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77));

}  // namespace
}  // namespace iim
