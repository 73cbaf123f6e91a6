// Online imputation-quality monitoring by masking-one-out holdouts
// (arXiv 2511.10048): a deterministic per-arrival hash samples a trickle
// of arriving tuples (IimOptions::moo_sample_rate). Before a sampled tuple
// joins the window, OnlineIim masks its target and imputes it through its
// own served path (k neighbors, found by the arrival's own index walk;
// their individual models; the Formula 10-12 aggregate), so the IIM error
// is the error a request would have seen. kNN answers from the same
// neighbors' targets; mean and GLR from this monitor's streaming fits of
// the target. Each method's absolute error feeds a decayed estimate,
// est <- (1 - moo_decay) * est + moo_decay * err (abs and err^2), and a
// ring of recent errors.
//
// A probe solves its neighbors' models before a request would, so solve
// counters differ from a monitor-off engine's, but models are a function
// of the window: under kObserveOnly every imputed value is bit-identical
// to a monitor-off engine's. Under kAutoRoute each request is served by
// the champion method (hysteresis moo_margin, after moo_min_samples), or
// by an inverse-decayed-error weighted ensemble (Meta-Imputation-Balanced
// style) while a freshly switched champion settles.

#ifndef IIM_STREAM_QUALITY_H_
#define IIM_STREAM_QUALITY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
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
// The route while a freshly switched champion settles: the blend.
constexpr int kQualityEnsemble = kQualityMethods;

// Stable display name ("iim", "mean", "knn", "glr").
const char* QualityMethodName(int method);

// One row's answer from each method, indexed by QualityMethod; empty where
// a method could not answer.
using QualityAnswers = std::array<std::optional<double>, kQualityMethods>;

// The estimator state for the target, surfaced through OnlineIim::Stats
// and ImputationService::stats().
struct QualityStats {
  // Per method: probes answered, decayed mean absolute error, decayed
  // root-mean-squared error, and percentiles over the recent-error ring.
  std::array<uint64_t, kQualityMethods> samples{};
  std::array<double, kQualityMethods> ewma_abs{};
  std::array<double, kQualityMethods> ewma_rms{};
  std::array<LatencySummary, kQualityMethods> abs_error{};
  // Current champion (a QualityMethod).
  int champion = kQualityIim;
};

class QualityMonitor {
 public:
  // q gathered features; `rows` emits the live window's (features,
  // target) pairs, the GLR fit's restream source.
  QualityMonitor(const core::IimOptions& options, size_t q,
                 baselines::StreamingRidgeFit::RowSource rows);

  // --- Prequential protocol (the owning engine, per arrival) ---
  bool Sampled(uint64_t arrival) const;
  // A sampled arrival with fewer than two live tuples to probe against.
  void Skip() { ++skipped_; }
  // Scores one probe whose masked target was `truth`.
  void Record(const QualityAnswers& answers, double truth);
  // Every live row is added once and removed when it leaves the window.
  void Add(const double* x, double y) {
    mean_fit_.Add(y);
    ridge_fit_.Add(x, y);
  }
  void Remove(const double* x, double y) {
    mean_fit_.Remove(y);
    ridge_fit_.Remove(x, y);
  }

  // --- Challenger fits ---
  Result<double> Mean() const { return mean_fit_.Mean(); }
  // Solves, restreaming first if needed; call serially. The model stays
  // valid until the next Add or Remove.
  Result<const regress::LinearModel*> GlrModel() {
    return ridge_fit_.Model(rows_);
  }

  // --- Routing ---
  // A QualityMethod or kQualityEnsemble; kQualityIim under kObserveOnly.
  int Route() const;
  // The answer `route` serves: one method's, or the blend.
  Result<double> Serve(int route, const QualityAnswers& answers) const;

  // --- Telemetry ---
  uint64_t probes() const { return probes_; }
  uint64_t skipped() const { return skipped_; }
  uint64_t champion_switches() const { return champion_switches_; }
  // Summarizes the rings once per Record: later calls return the kept
  // record (service idle points read it under the service mutex).
  QualityStats Stats() const;

  // --- Persistence ---
  // One kSecQuality section: estimates, rings, champion, counters. The
  // fits are not written; the engine re-adds the restored window.
  void SerializeInto(persist::SnapshotBuilder* builder) const;
  Status RestoreFrom(persist::SectionReader* reader);

 private:
  struct MethodState {
    uint64_t samples = 0;
    double ewma_abs = 0.0;
    double ewma_sq = 0.0;
    // The newest kRing absolute errors, oldest first.
    std::vector<double> ring;
  };

  static constexpr size_t kRing = 512;

  void UpdateChampion();

  const core::IimOptions options_;
  baselines::StreamingRidgeFit::RowSource rows_;
  baselines::StreamingMeanFit mean_fit_;
  baselines::StreamingRidgeFit ridge_fit_;
  std::array<MethodState, kQualityMethods> methods_;
  int champion_ = kQualityIim;
  uint64_t last_switch_probe_ = 0;
  uint64_t probes_ = 0;
  uint64_t skipped_ = 0;
  uint64_t champion_switches_ = 0;
  // What Stats() last computed; dropped by Record and RestoreFrom, the
  // only calls that change estimates, rings or the champion. The owning
  // engine is externally synchronized, so it needs no lock.
  mutable std::optional<QualityStats> stats_;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_QUALITY_H_
