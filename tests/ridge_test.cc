#include "regress/ridge.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/paper_example.h"

namespace iim::regress {
namespace {

TEST(LinearModelTest, PredictIsAffine) {
  LinearModel m;
  m.phi = {1.0, 2.0, -3.0};
  EXPECT_DOUBLE_EQ(m.Predict({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.Predict({1.0, 1.0}), 0.0);
  EXPECT_EQ(m.num_features(), 2u);
}

TEST(LinearModelTest, ConstantModelMatchesSingleNeighborRule) {
  LinearModel m = LinearModel::Constant(4.2, 3);
  EXPECT_DOUBLE_EQ(m.phi[0], 4.2);
  EXPECT_DOUBLE_EQ(m.Predict({10.0, -5.0, 99.0}), 4.2);
}

TEST(RidgeTest, RecoversExactLinearRelation) {
  // y = 3 + 2 x1 - x2, no noise -> exact recovery (tiny alpha).
  linalg::Matrix x = linalg::Matrix::FromRows(
      {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {-1, 2}});
  linalg::Vector y(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    y[i] = 3.0 + 2.0 * x(i, 0) - x(i, 1);
  }
  Result<LinearModel> fit = FitRidge(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().phi[0], 3.0, 1e-5);
  EXPECT_NEAR(fit.value().phi[1], 2.0, 1e-5);
  EXPECT_NEAR(fit.value().phi[2], -1.0, 1e-5);
}

TEST(RidgeTest, PaperExample2Phi1) {
  // T1 = {t1, t2, t3, t4} over Figure 1: phi_1 ~ (5.56, -0.87).
  data::Table r = datasets::Figure1Relation();
  linalg::Matrix x(4, 1);
  linalg::Vector y(4);
  for (size_t i = 0; i < 4; ++i) {
    x(i, 0) = r.At(i, 0);
    y[i] = r.At(i, 1);
  }
  Result<LinearModel> fit = FitRidge(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().phi[0], 5.56, 0.01);
  EXPECT_NEAR(fit.value().phi[1], -0.87, 0.01);
}

TEST(RidgeTest, PaperExample3Phi5) {
  // T5 = {t5, t6, t7, t8}: phi_5 ~ (-4.36, 1.11) (paper rounds; exact OLS
  // on these four points gives (-4.46, 1.12)).
  data::Table r = datasets::Figure1Relation();
  linalg::Matrix x(4, 1);
  linalg::Vector y(4);
  for (size_t i = 0; i < 4; ++i) {
    x(i, 0) = r.At(i + 4, 0);
    y[i] = r.At(i + 4, 1);
  }
  Result<LinearModel> fit = FitRidge(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().phi[0], -4.36, 0.15);
  EXPECT_NEAR(fit.value().phi[1], 1.11, 0.02);
}

TEST(RidgeTest, LargeAlphaShrinksTowardZero) {
  linalg::Matrix x = linalg::Matrix::FromRows({{1}, {2}, {3}, {4}});
  linalg::Vector y = {2, 4, 6, 8};
  RidgeOptions strong;
  strong.alpha = 1e6;
  Result<LinearModel> fit = FitRidge(x, y, strong);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(std::fabs(fit.value().phi[1]), 0.1);
}

TEST(RidgeTest, SingularDesignStillSolvable) {
  // Duplicated feature columns: X^T X singular; ridge must cope.
  linalg::Matrix x = linalg::Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  linalg::Vector y = {1, 2, 3};
  Result<LinearModel> fit = FitRidge(x, y);
  ASSERT_TRUE(fit.ok());
  // Prediction still matches even if coefficients are split arbitrarily.
  EXPECT_NEAR(fit.value().Predict({2.0, 2.0}), 2.0, 1e-3);
}

TEST(RidgeTest, SinglePointFitsConstantish) {
  linalg::Matrix x = linalg::Matrix::FromRows({{5.0}});
  linalg::Vector y = {7.0};
  Result<LinearModel> fit = FitRidge(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().Predict({5.0}), 7.0, 1e-3);
}

TEST(RidgeTest, DimensionMismatchRejected) {
  linalg::Matrix x(3, 2);
  linalg::Vector y = {1, 2};
  EXPECT_FALSE(FitRidge(x, y).ok());
  EXPECT_FALSE(FitRidge(linalg::Matrix(), {}).ok());
}

TEST(WeightedRidgeTest, WeightsChangeTheFit) {
  // Two regimes; weighting one regime heavily pulls the fit to it.
  linalg::Matrix x =
      linalg::Matrix::FromRows({{0}, {1}, {2}, {10}, {11}, {12}});
  linalg::Vector y = {0, 1, 2, 30, 31, 32};  // slope 1 left, offset right
  linalg::Vector left_heavy = {1, 1, 1, 1e-6, 1e-6, 1e-6};
  Result<LinearModel> fit = FitRidgeWeighted(x, y, left_heavy);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().Predict({1.5}), 1.5, 0.05);
}

TEST(WeightedRidgeTest, ZeroWeightRowsIgnored) {
  linalg::Matrix x = linalg::Matrix::FromRows({{1}, {2}, {100}});
  linalg::Vector y = {2, 4, -999};
  linalg::Vector w = {1, 1, 0};
  Result<LinearModel> fit = FitRidgeWeighted(x, y, w);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().Predict({3.0}), 6.0, 1e-3);
}

TEST(WeightedRidgeTest, AllZeroWeightsRejected) {
  linalg::Matrix x = linalg::Matrix::FromRows({{1}});
  EXPECT_FALSE(FitRidgeWeighted(x, {1.0}, {0.0}).ok());
}

TEST(WeightedRidgeTest, UniformWeightsMatchUnweighted) {
  Rng rng(21);
  linalg::Matrix x(20, 3);
  linalg::Vector y(20);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Uniform(-2, 2);
    y[i] = rng.Uniform(-5, 5);
  }
  linalg::Vector w(20, 1.0);
  Result<LinearModel> a = FitRidge(x, y);
  Result<LinearModel> b = FitRidgeWeighted(x, y, w);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Unit weights multiply exactly, so the fits agree bit for bit.
  for (size_t i = 0; i < a.value().phi.size(); ++i) {
    EXPECT_EQ(a.value().phi[i], b.value().phi[i]);
  }
}

}  // namespace
}  // namespace iim::regress
