// Online imputation-quality monitoring by masking-one-out holdouts
// (ROADMAP item 2).
//
// The streaming engines measure latency but — until this layer — never
// accuracy: the learned orders can go stale on a drifting stream with no
// operator-visible signal. QualityMonitor closes that gap with the
// prequential masking-one-out estimator: a deterministic per-arrival hash
// samples a trickle of arriving tuples (IimOptions::moo_sample_rate), one
// monitored cell of each sampled tuple is held out, and the holdout is
// imputed from the PRE-arrival window by IIM plus three cheap challengers
// (mean, kNN, GLR). Each probe's absolute error feeds per-column
// exponentially-decayed estimates
//
//   est <- (1 - moo_decay) * est + moo_decay * err        (abs and err^2)
//
// plus a bounded ring of recent absolute errors for percentile reporting.
// The monitored space is the engine's gathered projection: columns
// 0..q-1 are the feature attributes, column q the target; a probe of
// column c predicts it from the other q monitored columns, so a probe of
// the target column exercises exactly the engine's imputation problem.
//
// The monitor is fully self-contained: it keeps its own window mirror
// (arrival -> monitored row) and computes every probe — the mini-IIM one
// included — from that mirror, never reaching into the engine. That makes
// kObserveOnly trivially zero-impact: imputed values AND engine counters
// are bit-identical to a quality-disabled engine.
//
// On top of the estimates sits per-column champion/challenger routing
// (IimOptions::QualityRouting::kAutoRoute): each impute request is served
// by the target column's current champion method, with hysteresis
// (moo_margin) and a minimum sample count (moo_min_samples) guarding
// switches, and a Meta-Imputation-Balanced style inverse-decayed-error
// weighted ensemble serving while a freshly switched champion settles.

#ifndef IIM_STREAM_QUALITY_H_
#define IIM_STREAM_QUALITY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "baselines/streaming_fit.h"
#include "common/percentile.h"
#include "common/result.h"
#include "core/iim_options.h"
#include "stream/persist/snapshot.h"

namespace iim::stream {

// The monitored methods, in probe order. kQualityIim is always index 0 —
// routing starts there and kObserveOnly never leaves it.
enum QualityMethod {
  kQualityIim = 0,
  kQualityMean = 1,
  kQualityKnn = 2,
  kQualityGlr = 3,
  kQualityMethods = 4,
};

// Stable display name ("iim", "mean", "knn", "glr").
const char* QualityMethodName(int method);

// Where one impute request is served from under the current estimates.
enum class QualityRoute {
  kIim,
  kMean,
  kKnn,
  kGlr,
  kEnsemble,  // champion churning: inverse-error weighted blend
};

// Per-monitored-column snapshot of the estimator state, surfaced through
// OnlineIim::Stats and ImputationService::stats().
struct QualityColumnStats {
  // Holdout probes that landed on this column.
  uint64_t holdouts = 0;
  // Per method: probes answered, decayed mean absolute error, decayed
  // root-mean-squared error, and percentiles over the recent-error ring.
  std::array<uint64_t, kQualityMethods> samples{};
  std::array<double, kQualityMethods> ewma_abs{};
  std::array<double, kQualityMethods> ewma_rms{};
  std::array<LatencySummary, kQualityMethods> abs_error{};
  // Current champion (a QualityMethod) and how often it changed.
  int champion = kQualityIim;
  uint64_t switches = 0;
};

// Resolved monitor configuration (MakeQualityConfig fills it from
// IimOptions; 0-valued probe fan-ins inherit k / ell).
struct QualityConfig {
  size_t q = 0;  // predictors; the monitored space has q + 1 columns
  double sample_rate = 0.0;
  double decay = 0.05;
  size_t k = 5;    // kNN probe fan-in (and mini-IIM candidate count)
  size_t ell = 10; // mini-IIM learning neighbors per candidate
  double alpha = 1e-6;
  bool uniform_weights = false;
  size_t min_samples = 32;
  double margin = 0.1;
  uint64_t seed = 7;
  core::IimOptions::QualityRouting routing =
      core::IimOptions::QualityRouting::kObserveOnly;
};

QualityConfig MakeQualityConfig(const core::IimOptions& options, size_t q);

class QualityMonitor {
 public:
  explicit QualityMonitor(const QualityConfig& config);

  // --- Prequential protocol (callers follow this order per arrival) ---
  // 1. Observe(arrival, mv): maybe probe the arriving monitored row
  //    against the PRE-arrival mirror (so the row never matches itself).
  // 2. Add(arrival, mv): fold the row into the mirror and challenger fits.
  // Window evictions call Remove(arrival) for each evicted tuple.
  // `mv` is the monitored row: q feature values then the target, q+1 long.
  void Observe(uint64_t arrival, const double* mv);
  void Add(uint64_t arrival, const double* mv);
  void Remove(uint64_t arrival);

  // --- Routing (target column q; engines consult this per request) ---
  // kIim under kObserveOnly, the champion (or the churn-window ensemble)
  // under kAutoRoute.
  QualityRoute RouteTarget() const;
  // Serves the target from the mirror for a non-IIM, non-ensemble route.
  // `features` are the q gathered feature values. Fails (NotFound) on an
  // empty mirror — callers fall back to the IIM path.
  Result<double> ServeTarget(const double* features, QualityRoute route);
  // Inverse-decayed-squared-error weighted blend of every method's value,
  // folding in the engine-computed IIM value.
  Result<double> EnsembleTarget(const double* features, double iim_value);

  // --- Telemetry ---
  uint64_t probes() const { return probes_; }
  uint64_t skipped() const { return skipped_; }
  uint64_t champion_switches() const { return champion_switches_; }
  // One entry per monitored column (q features then the target).
  std::vector<QualityColumnStats> ColumnStats() const;
  size_t live() const { return mirror_.size(); }

  // --- Persistence ---
  // Writes one kSecQuality section: estimates, rings, champions,
  // counters. The mirror and challenger fits are NOT serialized — the
  // owning engine re-Adds every restored live tuple instead (restreamed
  // challenger numerics; the estimates themselves restore bitwise).
  void SerializeInto(persist::SnapshotBuilder* builder) const;
  Status RestoreFrom(persist::SectionReader* reader);

 private:
  struct MethodState {
    uint64_t samples = 0;
    double ewma_abs = 0.0;
    double ewma_sq = 0.0;
    std::vector<double> ring;  // recent absolute errors, capacity kRing
    size_t ring_pos = 0;
  };
  struct ColumnState {
    uint64_t holdouts = 0;
    std::array<MethodState, kQualityMethods> methods;
    int champion = kQualityIim;
    uint64_t switches = 0;
    uint64_t last_switch_holdout = 0;
  };

  static constexpr size_t kRing = 512;

  bool ShouldProbe(uint64_t arrival) const;
  size_t HoldoutColumn(uint64_t arrival) const;
  // Positions (into rows_scratch_) of the k nearest mirror rows to `mv`
  // in the predictor space of column c, ascending (distance, position).
  // `exclude` skips one position (kNoExclude = none).
  void CollectRows() const;
  std::vector<std::pair<size_t, double>> TopK(const double* mv, size_t c,
                                              size_t k,
                                              size_t exclude) const;
  Result<double> ProbeMethod(int method, const double* mv, size_t c);
  Result<double> ProbeIim(const double* mv, size_t c) const;
  Result<double> ProbeKnn(const double* mv, size_t c) const;
  void Record(ColumnState* col, int method, double abs_err);
  void UpdateChampion(ColumnState* col);
  baselines::StreamingRidgeFit::RowSource MirrorSource() const;

  static constexpr size_t kNoExclude = static_cast<size_t>(-1);

  QualityConfig config_;
  size_t d_;  // q + 1 monitored columns
  // Window mirror keyed by arrival number; map order = arrival order,
  // which is the tie-break every probe scan uses.
  std::map<uint64_t, std::vector<double>> mirror_;
  baselines::StreamingMeanFit mean_fit_;
  baselines::StreamingRidgeFit ridge_fit_;
  std::vector<ColumnState> columns_;  // d_ entries
  uint64_t probes_ = 0;
  uint64_t skipped_ = 0;
  uint64_t champion_switches_ = 0;
  // Probe scan scratch (rebuilt per probe; keeps allocations out of the
  // steady state).
  mutable std::vector<const double*> rows_scratch_;
  mutable std::vector<double> gather_a_;  // query predictors
  mutable std::vector<double> gather_b_;  // candidate predictors
};

}  // namespace iim::stream

#endif  // IIM_STREAM_QUALITY_H_
