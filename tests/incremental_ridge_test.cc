#include "regress/incremental_ridge.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/paper_example.h"
#include "regress/ridge.h"

namespace iim::regress {
namespace {

TEST(IncrementalRidgeTest, EmptySolveFails) {
  IncrementalRidge inc(2);
  EXPECT_EQ(inc.Solve().status().code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalRidgeTest, PaperExample6GoldenValues) {
  // Example 6: learning on t1 with l = 3 gives
  //   U(3) = [[3, 2.7], [2.7, 3.25]], V(3) = [14.2, 10.9],
  //   phi(3) ~ (5.66, -1.03);
  // adding t4 (X = (1, 2.9), Y = 3.2) gives phi(4) ~ (5.56, -0.87).
  data::Table r = datasets::Figure1Relation();
  IncrementalRidge inc(1);
  for (size_t i = 0; i < 3; ++i) {
    inc.AddRow({r.At(i, 0)}, r.At(i, 1));
  }
  EXPECT_NEAR(inc.U()(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(inc.U()(0, 1), 2.7, 1e-12);
  EXPECT_NEAR(inc.U()(1, 0), 2.7, 1e-12);
  EXPECT_NEAR(inc.U()(1, 1), 0.0 + 0.64 + 3.61, 1e-12);
  EXPECT_NEAR(inc.V()[0], 5.8 + 4.6 + 3.8, 1e-12);
  EXPECT_NEAR(inc.V()[1], 0.0 * 5.8 + 0.8 * 4.6 + 1.9 * 3.8, 1e-12);

  Result<LinearModel> phi3 = inc.Solve();
  ASSERT_TRUE(phi3.ok());
  EXPECT_NEAR(phi3.value().phi[0], 5.66, 0.01);
  EXPECT_NEAR(phi3.value().phi[1], -1.03, 0.01);

  // Incremental step: U(4) = U(3) + [[1, 2.9], [2.9, 8.41]],
  //                   V(4) = V(3) + [3.2, 9.28].
  inc.AddRow({r.At(3, 0)}, r.At(3, 1));
  EXPECT_NEAR(inc.U()(1, 1), 0.64 + 3.61 + 8.41, 1e-12);
  EXPECT_NEAR(inc.V()[1], 0.8 * 4.6 + 1.9 * 3.8 + 2.9 * 3.2, 1e-12);

  Result<LinearModel> phi4 = inc.Solve();
  ASSERT_TRUE(phi4.ok());
  EXPECT_NEAR(phi4.value().phi[0], 5.56, 0.01);
  EXPECT_NEAR(phi4.value().phi[1], -0.87, 0.01);
}

class IncrementalEqualsScratchTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(IncrementalEqualsScratchTest, ProposedUpdateMatchesFromScratch) {
  auto [n, p] = GetParam();
  Rng rng(1234 + n + p);
  linalg::Matrix x(n, p);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) x(i, j) = rng.Uniform(-3, 3);
    y[i] = rng.Uniform(-10, 10);
  }

  IncrementalRidge inc(p);
  for (size_t ell = 1; ell <= n; ++ell) {
    inc.AddRow(x.Row(ell - 1), y[ell - 1]);
    // Compare against from-scratch fit over the first `ell` rows at a few
    // checkpoints (every prefix for small n).
    if (n > 24 && ell % 7 != 0 && ell != n) continue;
    linalg::Matrix x_prefix(ell, p);
    linalg::Vector y_prefix(ell);
    for (size_t i = 0; i < ell; ++i) {
      for (size_t j = 0; j < p; ++j) x_prefix(i, j) = x(i, j);
      y_prefix[i] = y[i];
    }
    Result<LinearModel> scratch = FitRidge(x_prefix, y_prefix);
    Result<LinearModel> incremental = inc.Solve();
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE(incremental.ok());
    for (size_t j = 0; j <= p; ++j) {
      EXPECT_NEAR(incremental.value().phi[j], scratch.value().phi[j], 1e-7)
          << "ell=" << ell << " coef=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IncrementalEqualsScratchTest,
    ::testing::Values(std::tuple<size_t, size_t>{8, 1},
                      std::tuple<size_t, size_t>{24, 2},
                      std::tuple<size_t, size_t>{60, 3},
                      std::tuple<size_t, size_t>{100, 5},
                      std::tuple<size_t, size_t>{40, 8}));

TEST(IncrementalRidgeTest, AddRemoveRoundTripRestoresCoefficients) {
  // Property: AddRow(r) followed by RemoveRow(r) — in any nesting — lands
  // back on the prior accumulator state and coefficients, up to the
  // floating-point non-associativity of the subtraction.
  Rng rng(4242);
  for (size_t trial = 0; trial < 24; ++trial) {
    size_t p = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    size_t base = p + 2 + static_cast<size_t>(rng.UniformInt(0, 8));
    IncrementalRidge inc(p);
    auto random_row = [&](std::vector<double>* x, double* y) {
      x->resize(p);
      for (size_t j = 0; j < p; ++j) (*x)[j] = rng.Uniform(-3, 3);
      *y = rng.Uniform(-10, 10);
    };
    std::vector<double> x;
    double y;
    for (size_t i = 0; i < base; ++i) {
      random_row(&x, &y);
      inc.AddRow(x, y);
    }
    linalg::Matrix u0 = inc.U();
    Result<LinearModel> phi0 = inc.Solve();
    ASSERT_TRUE(phi0.ok());

    // Push a short LIFO stack of extra rows, then pop it back off.
    size_t extra = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<std::pair<std::vector<double>, double>> pushed;
    for (size_t h = 0; h < extra; ++h) {
      random_row(&x, &y);
      inc.AddRow(x, y);
      pushed.emplace_back(x, y);
    }
    for (size_t h = extra; h-- > 0;) {
      ASSERT_TRUE(inc.RemoveRow(pushed[h].first, pushed[h].second))
          << "trial " << trial << " pop " << h;
    }

    ASSERT_EQ(inc.num_rows(), base);
    EXPECT_LT(inc.U().MaxAbsDiff(u0), 1e-9 * (1.0 + u0(0, 0)))
        << "trial " << trial;
    Result<LinearModel> phi1 = inc.Solve();
    ASSERT_TRUE(phi1.ok());
    for (size_t j = 0; j <= p; ++j) {
      double scale = std::max(1.0, std::fabs(phi0.value().phi[j]));
      EXPECT_NEAR(phi1.value().phi[j], phi0.value().phi[j], 1e-8 * scale)
          << "trial " << trial << " coef " << j;
    }
  }
}

TEST(IncrementalRidgeTest, DowndateGuardRefusesCatastrophicCancellation) {
  // A dominant row whose removal would cancel ~all significant digits of
  // the Gram diagonal must be refused (rank-collapse: the remaining mass
  // is 1e-12 of the diagonal) — this is the restream-fallback trigger.
  IncrementalRidge inc(2);
  inc.AddRow({1e6, -2e6}, 5.0);
  inc.AddRow({1.0, 0.5}, 1.0);
  inc.AddRow({-0.5, 1.0}, -2.0);
  linalg::Matrix u_before = inc.U();

  EXPECT_FALSE(inc.RemoveRow(std::vector<double>{1e6, -2e6}, 5.0));
  // A refused down-date leaves the accumulator untouched.
  EXPECT_EQ(inc.num_rows(), 3u);
  EXPECT_EQ(inc.U().MaxAbsDiff(u_before), 0.0);

  // Same-magnitude rows down-date fine.
  EXPECT_TRUE(inc.RemoveRow(std::vector<double>{1.0, 0.5}, 1.0));
  EXPECT_EQ(inc.num_rows(), 2u);
  EXPECT_TRUE(inc.RemoveRow(std::vector<double>{-0.5, 1.0}, -2.0));
  // Removing the last row degenerates to Reset (exact empty state).
  EXPECT_TRUE(inc.RemoveRow(std::vector<double>{1e6, -2e6}, 5.0));
  EXPECT_EQ(inc.num_rows(), 0u);
  EXPECT_EQ(inc.U()(0, 0), 0.0);
  EXPECT_EQ(inc.Solve().status().code(), StatusCode::kFailedPrecondition);
  // Removing from an empty accumulator is refused outright.
  EXPECT_FALSE(inc.RemoveRow(std::vector<double>{1.0, 1.0}, 0.0));
}

TEST(IncrementalRidgeTest, BatchAddMatchesRowAdds) {
  Rng rng(9);
  linalg::Matrix x(10, 2);
  linalg::Vector y(10);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 2; ++j) x(i, j) = rng.Uniform(-1, 1);
    y[i] = rng.Uniform(-1, 1);
  }
  IncrementalRidge one_by_one(2), batch(2);
  for (size_t i = 0; i < 10; ++i) one_by_one.AddRow(x.Row(i), y[i]);
  batch.AddRows(x, y);
  EXPECT_EQ(one_by_one.num_rows(), batch.num_rows());
  EXPECT_LT(one_by_one.U().MaxAbsDiff(batch.U()), 1e-12);
}

}  // namespace
}  // namespace iim::regress
