// Ridge regression (Formula 5): phi = (X^T X + alpha E)^{-1} X^T Y,
// where X carries a leading column of ones (the paper's Formula 7).

#ifndef IIM_REGRESS_RIDGE_H_
#define IIM_REGRESS_RIDGE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "regress/linear_model.h"

namespace iim::regress {

struct RidgeOptions {
  // Regularization strength. The paper's examples behave like plain OLS, so
  // the default is a numerically-stabilizing epsilon rather than a real
  // penalty.
  double alpha = 1e-6;
};

// Solves (U + alpha E) phi = V for the normal equations U = X^T X,
// V = X^T Y, escalating from Cholesky to LU to a jittered retry so
// near-singular local designs (duplicated neighbors, constant attributes)
// still produce a usable model. Every ridge fit ends here. The Cholesky
// rung is RidgeLanes' kernel on one lane, reading U in place; U is copied
// only when a pivot fails and the LU and jitter rungs run.
Result<LinearModel> SolveNormalEquations(const linalg::Matrix& u,
                                         const linalg::Vector& v,
                                         double alpha);

// Up to kLanes normal-equation systems of one dimension m solved at once:
// the Cholesky rung of SolveNormalEquations with the systems interleaved
// lane by lane, so each arithmetic step is a plain loop over the lanes
// that the compiler vectorizes. Each lane performs the ladder's own IEEE
// operations on (U + alpha E) in the ladder's order, so its phi equals
// SolveNormalEquations' bit for bit; a lane whose pivot is <= 0 or
// non-finite is re-solved alone through the ladder's LU and jitter rungs.
// The buffers are the owner's scratch, allocated once: loading and solving
// allocate nothing. Algorithm 3's candidate sweep (core::SweepCandidates)
// fills one lane per candidate model.
class RidgeLanes {
 public:
  static constexpr size_t kLanes = 8;

  // p = number of features (m = p + 1 with the ones column).
  explicit RidgeLanes(size_t p);

  // Copies the lower triangle of U (m x m) and V (size m) into `lane`.
  // U must be symmetric, as every IncrementalRidge fold is bit for bit:
  // a lane that falls back rebuilds U from that triangle.
  void Load(size_t lane, const linalg::Matrix& u, const linalg::Vector& v);

  // Solves lanes [0, count) into model(0..count). On a lane whose every
  // rung fails, returns that ladder's error (the lowest such lane's).
  Status Solve(size_t count, double alpha);

  // Lane w's phi after the last Solve (size m).
  const LinearModel& model(size_t w) const { return models_[w]; }

 private:
  size_t m_;
  std::vector<double> u_;   // m*m*kLanes: U(i, j) of lane w at (i*m+j)*kLanes+w
  std::vector<double> v_;   // m*kLanes:   V(i) of lane w at i*kLanes+w
  std::vector<double> l_;   // Cholesky factor, laid out as u_
  std::vector<double> x_;   // solutions, laid out as v_
  std::vector<LinearModel> models_;
};

// Fits on feature rows `x` (n x p, WITHOUT the ones column; it is added
// internally) and targets `y` (size n), folding the rows in order through
// one IncrementalRidge. Requires n >= 1.
Result<LinearModel> FitRidge(const linalg::Matrix& x,
                             const linalg::Vector& y,
                             const RidgeOptions& options = {});

// Weighted fit: phi = (X^T W X + alpha E)^{-1} X^T W y with diagonal W.
// Rows with weight <= 0 are ignored. Used by LOESS.
Result<LinearModel> FitRidgeWeighted(const linalg::Matrix& x,
                                     const linalg::Vector& y,
                                     const linalg::Vector& weights,
                                     const RidgeOptions& options = {});

}  // namespace iim::regress

#endif  // IIM_REGRESS_RIDGE_H_
