#include "regress/incremental_ridge.h"

#include <algorithm>

#include "regress/ridge.h"

namespace iim::regress {

IncrementalRidge::IncrementalRidge(size_t p)
    : p_(p), u_(p + 1, p + 1), v_(p + 1, 0.0) {}

void IncrementalRidge::Reset() {
  size_t m = p_ + 1;
  std::fill(u_.RowPtr(0), u_.RowPtr(0) + m * m, 0.0);
  std::fill(v_.begin(), v_.end(), 0.0);
  num_rows_ = 0;
}

void IncrementalRidge::AddRow(const std::vector<double>& x, double y) {
  AddRow(x.data(), y);
}

void IncrementalRidge::AddRow(const double* x, double y) {
  // Rank-1 update with the augmented row (1, x). The outer-product rows
  // are updated through raw row pointers with the scalar x_i hoisted: the
  // inner loop is a plain contiguous axpy the compiler vectorizes and
  // FMA-contracts (each u element has its own accumulation chain, so no
  // reassociation is involved and results are unchanged).
  u_(0, 0) += 1.0;
  v_[0] += y;
  double* top = u_.RowPtr(0) + 1;
  for (size_t i = 0; i < p_; ++i) {
    double xi = x[i];
    top[i] += xi;
    double* row = u_.RowPtr(i + 1);
    row[0] += xi;
    v_[i + 1] += xi * y;
    double* out = row + 1;
    for (size_t j = 0; j < p_; ++j) out[j] += xi * x[j];
  }
  ++num_rows_;
}

bool IncrementalRidge::RemoveRow(const std::vector<double>& x, double y,
                                 double rel_tol) {
  return RemoveRow(x.data(), y, rel_tol);
}

bool IncrementalRidge::RemoveRow(const double* x, double y, double rel_tol) {
  if (num_rows_ == 0) return false;
  if (num_rows_ == 1) {
    // The accumulator holds exactly this row; the empty state is exact.
    Reset();
    return true;
  }
  // Conditioning guard: each down-dated Gram diagonal entry
  // d' = U_jj - x_j^2 must keep at least rel_tol of its magnitude. (The
  // count entry U_00 = num_rows always survives: n - 1 >= rel_tol * n for
  // n >= 2.) A negative d' means the row was never in the fold or rounding
  // already ate it — equally unsafe.
  for (size_t i = 0; i < p_; ++i) {
    double d = u_(i + 1, i + 1);
    double z2 = x[i] * x[i];
    if (z2 == 0.0) continue;
    if (d - z2 < rel_tol * d) return false;
  }
  u_(0, 0) -= 1.0;
  v_[0] -= y;
  // Mirror of AddRow's raw-pointer update, subtracting.
  double* top = u_.RowPtr(0) + 1;
  for (size_t i = 0; i < p_; ++i) {
    double xi = x[i];
    top[i] -= xi;
    double* row = u_.RowPtr(i + 1);
    row[0] -= xi;
    v_[i + 1] -= xi * y;
    double* out = row + 1;
    for (size_t j = 0; j < p_; ++j) out[j] -= xi * x[j];
  }
  --num_rows_;
  return true;
}

Result<LinearModel> IncrementalRidge::Solve(double alpha) const {
  if (num_rows_ == 0) {
    return Status::FailedPrecondition("IncrementalRidge: no training rows");
  }
  return SolveNormalEquations(u_, v_, alpha);
}

}  // namespace iim::regress
