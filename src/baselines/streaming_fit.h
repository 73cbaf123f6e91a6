// Streaming-fit adapters for the cheap challenger imputers used by the
// quality monitor (src/stream/quality.h).
//
// The batch baselines (MeanImputer, GlrImputer) re-scan the whole relation
// on every Fit, which is fine for one-shot evaluation but not for a probe
// that runs inside the ingest path. These adapters maintain the same
// sufficient statistics incrementally: a per-column running sum for the
// mean, and one IncrementalRidge accumulator per column for the global
// regression (predicting each column from all the others). Window
// evictions down-date the accumulators in place; when the ridge
// conditioning guard refuses a down-date the affected column is flagged
// and lazily restreamed from the caller's row source. A down-date
// reorders the fold's sums, which a challenger can afford: unlike
// stream::OrderCore's per-tuple folds, which always restream, it need not
// match a batch refit bit for bit.

#ifndef IIM_BASELINES_STREAMING_FIT_H_
#define IIM_BASELINES_STREAMING_FIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "regress/incremental_ridge.h"
#include "regress/linear_model.h"

namespace iim::baselines {

// Running per-column mean over a multiset of d-dimensional rows.
class StreamingMeanFit {
 public:
  explicit StreamingMeanFit(size_t d) : d_(d), sums_(d, 0.0) {}

  void Add(const double* row);
  void Remove(const double* row);

  size_t rows() const { return rows_; }
  // Mean of column c over the current rows; NotFound while empty.
  Result<double> Mean(size_t c) const;

 private:
  size_t d_;
  size_t rows_ = 0;
  std::vector<double> sums_;
};

// Global ridge regression of every column on all the others, maintained
// incrementally: d accumulators, each over d-1 predictors. Predictors for
// column c are the row's other columns in index order (the same gather
// the quality monitor uses for its probes).
class StreamingRidgeFit {
 public:
  // Emits every current row (length d) exactly once — the restream
  // fallback when a down-date is refused. The emit callback must be
  // invoked synchronously.
  using RowSource =
      std::function<void(const std::function<void(const double*)>& emit)>;

  StreamingRidgeFit(size_t d, double alpha);

  void Add(const double* row);
  // Down-dates every column's accumulator; a refused down-date flags that
  // column for a lazy restream instead of corrupting its conditioning.
  void Remove(const double* row);

  // Predicts row[c] from the row's other columns. Restreams the column's
  // accumulator from `source` first if a down-date was refused since the
  // last rebuild. Fails (NotFound) while no rows are folded in.
  Result<double> Predict(size_t c, const double* row,
                         const RowSource& source);

  size_t rows() const { return rows_; }
  // Columns rebuilt from scratch after a refused down-date (telemetry).
  uint64_t restreams() const { return restreams_; }

 private:
  // Gathers the d-1 predictors of column c into x_.
  void GatherInto(size_t c, const double* row);
  // Solved model for column c, rebuilding/caching as needed.
  Result<const regress::LinearModel*> ModelFor(size_t c,
                                               const RowSource& source);

  size_t d_;
  double alpha_;
  size_t rows_ = 0;
  uint64_t restreams_ = 0;
  std::vector<regress::IncrementalRidge> acc_;  // one per column
  std::vector<uint8_t> needs_restream_;         // per column
  std::vector<uint8_t> model_valid_;            // per column
  std::vector<regress::LinearModel> models_;    // per column, lazily solved
  std::vector<double> x_;                       // gather scratch, d-1
};

}  // namespace iim::baselines

#endif  // IIM_BASELINES_STREAMING_FIT_H_
