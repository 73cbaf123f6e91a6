#include "regress/ridge.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/paper_example.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "regress/incremental_ridge.h"

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

// --- The lane kernel against the ladder, bit for bit -------------------

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " phi[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// The solve ladder exactly as it read before its Cholesky rung became the
// one-lane kernel: linalg's CholeskySolve on U + alpha E, then LU, then
// Cholesky on a jittered copy.
Result<LinearModel> ReferenceLadder(linalg::Matrix u, const linalg::Vector& v,
                                    double alpha) {
  u.AddScaledIdentity(alpha);
  LinearModel model;
  if (linalg::CholeskySolve(u, v, &model.phi).ok()) return model;
  if (linalg::LuSolve(u, v, &model.phi).ok()) return model;
  u.AddScaledIdentity(1e-8 + 1e-8 * std::fabs(u(0, 0)));
  RETURN_IF_ERROR(linalg::CholeskySolve(u, v, &model.phi));
  return model;
}

// Normal equations of `rows` random rows over m - 1 features, folded the
// way every fit folds them (so U is symmetric bit for bit).
IncrementalRidge RandomFold(size_t m, size_t rows, Rng* rng) {
  IncrementalRidge fold(m - 1);
  std::vector<double> x(m - 1);
  for (size_t r = 0; r < rows; ++r) {
    for (double& xi : x) xi = rng->Gaussian(0.0, 3.0);
    fold.AddRow(x, rng->Gaussian(1.0, 2.0));
  }
  return fold;
}

// One system of each kind the ladder distinguishes.
enum class Kind { kSpd, kIndefinite, kZero, kHopeless };

struct System {
  linalg::Matrix u;
  linalg::Vector v;
};

// kSpd: a well-posed fold. kIndefinite: symmetric with a negative
// diagonal entry, so a Cholesky pivot fails and LU solves it. kZero:
// U = 0 under alpha = 0, so Cholesky and LU both fail and the jittered
// retry solves it. kHopeless: every rung fails (an error).
System MakeSystem(Kind kind, size_t m, Rng* rng) {
  IncrementalRidge fold = RandomFold(m, m + 3, rng);
  System s{fold.U(), fold.V()};
  switch (kind) {
    case Kind::kSpd:
      break;
    case Kind::kIndefinite:
      s.u(m - 1, m - 1) = -s.u(m - 1, m - 1);
      break;
    case Kind::kZero:
      s.u = linalg::Matrix(m, m);
      break;
    case Kind::kHopeless:
      s.u = linalg::Matrix(m, m);
      s.u(m - 1, m - 1) = -1.0;
      break;
  }
  return s;
}

TEST(SolveNormalEquationsTest, MatchesTheReferenceLadderBitwise) {
  // Covers the stack-held factor (m <= 16) and the heap-held one, every
  // rung, and alpha 0 (pure OLS) beside a ridge alpha.
  Rng rng(11);
  for (size_t m = 1; m <= 20; ++m) {
    for (Kind kind :
         {Kind::kSpd, Kind::kIndefinite, Kind::kZero, Kind::kHopeless}) {
      for (double alpha : {0.0, 1e-6, 1.0}) {
        System s = MakeSystem(kind, m, &rng);
        if (kind == Kind::kZero || kind == Kind::kHopeless) alpha = 0.0;
        Result<LinearModel> got = SolveNormalEquations(s.u, s.v, alpha);
        Result<LinearModel> want = ReferenceLadder(s.u, s.v, alpha);
        std::string what = "m=" + std::to_string(m) + " kind=" +
                           std::to_string(static_cast<int>(kind)) +
                           " alpha=" + std::to_string(alpha);
        ASSERT_EQ(got.ok(), want.ok()) << what;
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          continue;
        }
        ExpectSameBits(got.value().phi, want.value().phi, what);
      }
    }
  }
}

TEST(SolveNormalEquationsTest, EachKindTakesTheRungItIsMeantFor) {
  // Guards the kernel tests below: they mean to hit every rung.
  Rng rng(12);
  const size_t m = 5;
  auto rung = [&](Kind kind) {
    System s = MakeSystem(kind, m, &rng);
    linalg::Matrix a = s.u;
    linalg::Vector phi;
    if (linalg::CholeskySolve(a, s.v, &phi).ok()) return 0;
    if (linalg::LuSolve(a, s.v, &phi).ok()) return 1;
    a.AddScaledIdentity(1e-8 + 1e-8 * std::fabs(a(0, 0)));
    if (linalg::CholeskySolve(a, s.v, &phi).ok()) return 2;
    return 3;
  };
  EXPECT_EQ(rung(Kind::kSpd), 0);
  EXPECT_EQ(rung(Kind::kIndefinite), 1);
  EXPECT_EQ(rung(Kind::kZero), 2);
  EXPECT_EQ(rung(Kind::kHopeless), 3);
}

TEST(RidgeLanesTest, EveryLaneMatchesTheLadderBitwise) {
  // m = 2..13, every lane count, random SPD systems with indefinite and
  // all-zero ones mixed in at random lanes: each lane's phi is its
  // system's SolveNormalEquations phi, bit for bit, whatever its
  // neighbours do. The lanes keep stale systems from the previous solve
  // past `count`; those must not leak into the solved ones.
  Rng rng(13);
  for (size_t m = 2; m <= 13; ++m) {
    RidgeLanes lanes(m - 1);
    for (size_t count = 1; count <= RidgeLanes::kLanes; ++count) {
      for (int round = 0; round < 3; ++round) {
        const double alpha = round == 0 ? 0.0 : 1e-6 * round;
        std::vector<System> systems;
        for (size_t w = 0; w < count; ++w) {
          int draw = static_cast<int>(rng.UniformInt(0, 5));
          Kind kind = draw == 0   ? Kind::kIndefinite
                      : draw == 1 ? Kind::kZero
                                  : Kind::kSpd;
          systems.push_back(MakeSystem(kind, m, &rng));
          lanes.Load(w, systems[w].u, systems[w].v);
        }
        ASSERT_TRUE(lanes.Solve(count, alpha).ok());
        for (size_t w = 0; w < count; ++w) {
          Result<LinearModel> want =
              SolveNormalEquations(systems[w].u, systems[w].v, alpha);
          ASSERT_TRUE(want.ok());
          ExpectSameBits(lanes.model(w).phi, want.value().phi,
                         "m=" + std::to_string(m) +
                             " count=" + std::to_string(count) +
                             " lane=" + std::to_string(w));
        }
      }
    }
  }
}

TEST(RidgeLanesTest, FallbackLanesLeaveTheirNeighboursAlone) {
  // One group, lanes alternating SPD / indefinite / zero, solved once
  // together and once each alone in lane 0: identical bits both ways.
  Rng rng(14);
  const size_t m = 7;
  const double alpha = 0.0;
  std::vector<System> systems;
  RidgeLanes group(m - 1);
  for (size_t w = 0; w < RidgeLanes::kLanes; ++w) {
    Kind kind = w % 3 == 0 ? Kind::kSpd
                : w % 3 == 1 ? Kind::kIndefinite
                             : Kind::kZero;
    systems.push_back(MakeSystem(kind, m, &rng));
    group.Load(w, systems[w].u, systems[w].v);
  }
  ASSERT_TRUE(group.Solve(RidgeLanes::kLanes, alpha).ok());
  RidgeLanes alone(m - 1);
  for (size_t w = 0; w < RidgeLanes::kLanes; ++w) {
    alone.Load(0, systems[w].u, systems[w].v);
    ASSERT_TRUE(alone.Solve(1, alpha).ok());
    ExpectSameBits(group.model(w).phi, alone.model(0).phi,
                   "lane " + std::to_string(w));
  }
}

TEST(RidgeLanesTest, AHopelessLaneReturnsTheLaddersError) {
  Rng rng(15);
  const size_t m = 4;
  RidgeLanes lanes(m - 1);
  System good = MakeSystem(Kind::kSpd, m, &rng);
  System bad = MakeSystem(Kind::kHopeless, m, &rng);
  lanes.Load(0, good.u, good.v);
  lanes.Load(1, good.u, good.v);
  lanes.Load(2, bad.u, bad.v);
  Status st = lanes.Solve(3, 0.0);
  Result<LinearModel> want = SolveNormalEquations(bad.u, bad.v, 0.0);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.ToString(), want.status().ToString());
  // A hopeless system in a lane past `count` is ignored.
  EXPECT_TRUE(lanes.Solve(2, 0.0).ok());
}

}  // namespace
}  // namespace iim::regress
