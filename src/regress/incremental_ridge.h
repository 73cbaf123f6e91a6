// Incremental ridge learning (Section V-B, Proposition 3).
//
// Maintains U = X^T X and V = X^T Y so that growing the training set from
// the l nearest neighbors to the (l+h) nearest neighbors costs O(m^2 h)
// instead of O(m^2 (l+h)) — constant in l. Solving for phi remains O(m^3).
//
// RemoveRow is the inverse rank-1 *down-date*, used only by the quality
// monitor's global-ridge challenger (baselines::StreamingRidgeFit):
// subtracting a row is algebraically exact but can cancel most of the
// Gram diagonal's significant digits, leaving a matrix whose conditioning
// has silently blown up. A cheap guard refuses such removals; the caller
// then restreams the surviving window into a fresh accumulator instead.

#ifndef IIM_REGRESS_INCREMENTAL_RIDGE_H_
#define IIM_REGRESS_INCREMENTAL_RIDGE_H_

#include "common/result.h"
#include "linalg/matrix.h"
#include "regress/linear_model.h"

namespace iim::regress {

class IncrementalRidge {
 public:
  // p = number of features (the ones column is implicit).
  explicit IncrementalRidge(size_t p);

  // Drops every folded row (U = 0, V = 0) keeping the allocation, so a
  // long-lived per-tuple accumulator can restream a changed neighbor
  // prefix without reallocating.
  void Reset();

  // Folds one training row into U, V (Formulas 20-21 with h = 1).
  void AddRow(const std::vector<double>& x, double y);
  // Same on p contiguous values (the data::FeatureBlock fast path).
  void AddRow(const double* x, double y);
  // Batch variant (Formulas 20-21 with h = rows).
  void AddRows(const linalg::Matrix& x, const linalg::Vector& y);

  // Rank-1 down-date: subtracts a previously added row from U, V (the
  // caller asserts the row really was folded in — the accumulator cannot
  // tell). Returns false, leaving the accumulator untouched, when the
  // subtraction would be numerically unsafe: a down-dated Gram diagonal
  // entry retaining less than `rel_tol` of its magnitude means nearly all
  // significant digits cancel and the conditioning of U + alpha E is no
  // longer trustworthy. Removing the only row degenerates to Reset() and
  // is always safe.
  bool RemoveRow(const std::vector<double>& x, double y,
                 double rel_tol = 1e-8);
  bool RemoveRow(const double* x, double y, double rel_tol = 1e-8);

  // phi = (U + alpha E)^{-1} V (Formula 19). Fails if no rows were added.
  Result<LinearModel> Solve(double alpha = 1e-6) const;

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return p_; }
  const linalg::Matrix& U() const { return u_; }
  const linalg::Vector& V() const { return v_; }

 private:
  size_t p_;
  size_t num_rows_ = 0;
  linalg::Matrix u_;   // (p+1) x (p+1)
  linalg::Vector v_;   // (p+1)
};

}  // namespace iim::regress

#endif  // IIM_REGRESS_INCREMENTAL_RIDGE_H_
