#include "regress/ridge.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "regress/incremental_ridge.h"

namespace iim::regress {

Result<LinearModel> SolveNormalEquations(linalg::Matrix u,
                                         const linalg::Vector& v,
                                         double alpha) {
  u.AddScaledIdentity(alpha);
  LinearModel model;
  Status st = linalg::CholeskySolve(u, v, &model.phi);
  if (st.ok()) return model;
  st = linalg::LuSolve(u, v, &model.phi);
  if (st.ok()) return model;
  u.AddScaledIdentity(1e-8 + 1e-8 * std::fabs(u(0, 0)));
  RETURN_IF_ERROR(linalg::CholeskySolve(u, v, &model.phi));
  return model;
}

Result<LinearModel> FitRidge(const linalg::Matrix& x, const linalg::Vector& y,
                             const RidgeOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("FitRidge: bad design dimensions");
  }
  IncrementalRidge fold(x.cols());
  for (size_t r = 0; r < x.rows(); ++r) fold.AddRow(x.RowPtr(r), y[r]);
  return fold.Solve(options.alpha);
}

Result<LinearModel> FitRidgeWeighted(const linalg::Matrix& x,
                                     const linalg::Vector& y,
                                     const linalg::Vector& weights,
                                     const RidgeOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size() || weights.size() != y.size()) {
    return Status::InvalidArgument("FitRidgeWeighted: bad dimensions");
  }
  size_t n = x.rows(), p = x.cols();
  linalg::Matrix u(p + 1, p + 1);
  linalg::Vector v(p + 1, 0.0);
  bool any = false;
  for (size_t r = 0; r < n; ++r) {
    double w = weights[r];
    if (w <= 0.0) continue;
    any = true;
    const double* row = x.RowPtr(r);
    u(0, 0) += w;
    v[0] += w * y[r];
    for (size_t i = 0; i < p; ++i) {
      u(0, i + 1) += w * row[i];
      v[i + 1] += w * row[i] * y[r];
      for (size_t j = i; j < p; ++j) u(i + 1, j + 1) += w * row[i] * row[j];
    }
  }
  if (!any) {
    return Status::InvalidArgument("FitRidgeWeighted: all weights are zero");
  }
  for (size_t i = 0; i < p + 1; ++i)
    for (size_t j = 0; j < i; ++j) u(i, j) = u(j, i);
  return SolveNormalEquations(std::move(u), v, options.alpha);
}

}  // namespace iim::regress
