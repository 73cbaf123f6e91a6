#include "baselines/imputer.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace iim::baselines {

std::vector<Result<double>> Imputer::ImputeBatch(
    const std::vector<data::RowView>& rows) const {
  std::vector<Result<double>> out;
  out.reserve(rows.size());
  for (const data::RowView& tuple : rows) out.push_back(ImputeOne(tuple));
  return out;
}

std::vector<Result<double>> ParallelImputeBatch(
    const Imputer& imputer, const std::vector<data::RowView>& rows,
    size_t threads) {
  // Placeholder value; every slot is overwritten below.
  std::vector<Result<double>> out(rows.size(), Result<double>(0.0));
  ThreadPool pool(threads);
  constexpr size_t kBatchGrain = 16;
  pool.ParallelFor(rows.size(), kBatchGrain,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       out[i] = imputer.ImputeOne(rows[i]);
                     }
                   });
  return out;
}

Status ImputerBase::Fit(const data::Table& complete, int target,
                        const std::vector<int>& features) {
  fitted_ = false;
  if (complete.empty()) {
    return Status::InvalidArgument(Name() + ": empty relation");
  }
  if (target < 0 || static_cast<size_t>(target) >= complete.NumCols()) {
    return Status::InvalidArgument(Name() + ": target out of range");
  }
  if (features.empty()) {
    return Status::InvalidArgument(Name() + ": no complete attributes");
  }
  for (int f : features) {
    if (f < 0 || static_cast<size_t>(f) >= complete.NumCols()) {
      return Status::InvalidArgument(Name() + ": feature out of range");
    }
    if (f == target) {
      return Status::InvalidArgument(Name() +
                                     ": target cannot be a feature");
    }
  }
  // The fitted columns must be finite: a tree walk from an infinite
  // coordinate can return other neighbors than a brute-force scan.
  for (size_t i = 0; i < complete.NumRows(); ++i) {
    if (!std::isfinite(complete.At(i, static_cast<size_t>(target)))) {
      return Status::InvalidArgument(Name() +
                                     ": non-finite value in target column");
    }
    for (int f : features) {
      if (!std::isfinite(complete.At(i, static_cast<size_t>(f)))) {
        return Status::InvalidArgument(Name() +
                                       ": non-finite value in feature column");
      }
    }
  }
  table_ = &complete;
  target_ = target;
  features_ = features;
  RETURN_IF_ERROR(FitImpl());
  fitted_ = true;
  return Status::OK();
}

Status ImputerBase::CheckReady(const data::RowView& tuple) const {
  if (!fitted_) return Status::FailedPrecondition(Name() + ": not fitted");
  if (tuple.size() != table_->NumCols()) {
    return Status::InvalidArgument(Name() + ": tuple arity mismatch");
  }
  for (int f : features_) {
    if (!std::isfinite(tuple[static_cast<size_t>(f)])) {
      return Status::InvalidArgument(
          Name() + ": non-finite complete attribute of tuple");
    }
  }
  return Status::OK();
}

}  // namespace iim::baselines
