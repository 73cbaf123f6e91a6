// Ridge regression (Formula 5): phi = (X^T X + alpha E)^{-1} X^T Y,
// where X carries a leading column of ones (the paper's Formula 7).

#ifndef IIM_REGRESS_RIDGE_H_
#define IIM_REGRESS_RIDGE_H_

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
// still produce a usable model. Every ridge fit ends here.
Result<LinearModel> SolveNormalEquations(linalg::Matrix u,
                                         const linalg::Vector& v,
                                         double alpha);

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
