// Streaming-fit adapters for the cheap challenger imputers used by the
// quality monitor (src/stream/quality.h).
//
// The batch baselines (MeanImputer, GlrImputer) re-scan the whole relation
// on every Fit, which is fine for one-shot evaluation but not for a probe
// that runs inside the ingest path. These adapters maintain the same
// sufficient statistics of the target incrementally: a running sum for
// the mean, and one IncrementalRidge accumulator for the global
// regression of the target on the q features. Window evictions down-date
// the accumulator in place; when the ridge conditioning guard refuses a
// down-date the fit is flagged and lazily restreamed from the caller's
// row source. A down-date reorders the fold's sums, which a challenger can
// afford: unlike stream::OrderCore's per-tuple folds, which always
// restream, it need not match a batch refit bit for bit.

#ifndef IIM_BASELINES_STREAMING_FIT_H_
#define IIM_BASELINES_STREAMING_FIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/result.h"
#include "regress/incremental_ridge.h"
#include "regress/linear_model.h"

namespace iim::baselines {

// Running mean of the target over a multiset of rows.
class StreamingMeanFit {
 public:
  void Add(double y);
  void Remove(double y);

  size_t rows() const { return rows_; }
  // NotFound while empty.
  Result<double> Mean() const;

 private:
  size_t rows_ = 0;
  double sum_ = 0.0;
};

// Global ridge regression of the target on the q features, maintained
// incrementally.
class StreamingRidgeFit {
 public:
  // Emits every current row (q features, target) exactly once — the
  // restream fallback when a down-date is refused. The emit callback must
  // be invoked synchronously.
  using RowSource = std::function<void(
      const std::function<void(const double* x, double y)>& emit)>;

  StreamingRidgeFit(size_t q, double alpha) : alpha_(alpha), acc_(q) {}

  void Add(const double* x, double y);
  // A refused down-date flags the fit for a lazy restream instead of
  // corrupting its conditioning.
  void Remove(const double* x, double y);

  // The solved model, restreamed from `source` first if a down-date was
  // refused since the last rebuild. NotFound while no rows are folded in.
  // The pointer stays valid until the next Add, Remove or Model call.
  Result<const regress::LinearModel*> Model(const RowSource& source);

  size_t rows() const { return rows_; }
  // Rebuilds from scratch after a refused down-date (telemetry).
  uint64_t restreams() const { return restreams_; }

 private:
  double alpha_;
  size_t rows_ = 0;
  uint64_t restreams_ = 0;
  regress::IncrementalRidge acc_;
  bool needs_restream_ = false;
  bool model_valid_ = false;
  regress::LinearModel model_;
};

}  // namespace iim::baselines

#endif  // IIM_BASELINES_STREAMING_FIT_H_
