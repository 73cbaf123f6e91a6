// FeatureBlock: a contiguous, column-gathered snapshot of the (F, Am)
// projection of a relation.
//
// The learning phase touches every tuple's feature vector thousands of
// times (design assembly, incremental folds, validator predictions).
// Reading them through Table::At / RowView::Gather costs an indirection
// plus a column-index lookup per element and scatters accesses across the
// full row stride. FeatureBlock gathers the q feature columns and the
// target column ONCE, row-major, so the hot loops stream dense memory:
//
//   x_: n x q doubles, row-major  — Features(i) is q contiguous values
//   y_: n doubles                 — Target(i) is the tuple's Am value
//
// Built once per Fit and shared read-only by every thread; the raw-pointer
// rows feed the blocked distance/predict/fold kernels.

#ifndef IIM_DATA_FEATURE_BLOCK_H_
#define IIM_DATA_FEATURE_BLOCK_H_

#include <cstddef>
#include <vector>

#include "data/table.h"

namespace iim::data {

class FeatureBlock {
 public:
  FeatureBlock() = default;

  // Gathers `features` columns and the `target` column of every row of r.
  // Column indices must be valid for r (same contract as RowView::Gather).
  static FeatureBlock Build(const Table& r, int target,
                            const std::vector<int>& features);

  size_t rows() const { return n_; }
  size_t num_features() const { return q_; }

  // The q gathered feature values of tuple i (contiguous).
  const double* Features(size_t i) const { return x_.data() + i * q_; }
  // The target value t_i[Am].
  double Target(size_t i) const { return y_[i]; }

  // Copy of Features(i) for call sites that need an owning vector.
  std::vector<double> FeatureVector(size_t i) const {
    const double* f = Features(i);
    return std::vector<double>(f, f + q_);
  }

 private:
  size_t n_ = 0;
  size_t q_ = 0;
  std::vector<double> x_;
  std::vector<double> y_;
};

}  // namespace iim::data

#endif  // IIM_DATA_FEATURE_BLOCK_H_
