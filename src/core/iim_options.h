// Configuration of IIM's learning and imputation phases.

#ifndef IIM_CORE_IIM_OPTIONS_H_
#define IIM_CORE_IIM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace iim::core {

struct IimOptions {
  // --- Imputation phase (Algorithm 2) ---
  // Number of imputation neighbors k whose individual models produce
  // candidates.
  size_t k = 5;
  // Proposition-1 ablation: aggregate candidates with uniform weights
  // 1/|Tx| instead of the mutual-vote weights of Formulas 11-12.
  bool uniform_weights = false;

  // --- Learning phase (Algorithms 1 and 3) ---
  // Fixed number of learning neighbors l (used when adaptive == false).
  // The paper's Propositions: l = 1 reduces IIM to kNN (+uniform weights),
  // l = n reduces it to GLR.
  size_t ell = 10;
  // Adaptive per-tuple selection of l by validation (Algorithm 3).
  bool adaptive = false;
  // Stepping h (Section V-A2): candidate l values are 1, 1+h, 1+2h, ...
  size_t step_h = 1;
  // Cap on candidate l values (0 = n). Bounds adaptive learning cost on
  // large relations; Figure 11 shows the optimum sits far below n.
  size_t max_ell = 0;
  // Incremental U/V maintenance (Proposition 3). false recomputes each
  // candidate model from scratch — only useful to reproduce the
  // straightforward-vs-incremental comparison of Figures 12-13.
  bool incremental = true;
  // Adaptive validation set: 0 = every complete tuple (the paper's
  // Algorithm 3); otherwise a uniform sample of this size.
  size_t validation_sample = 0;
  // How many nearest neighbors each validator judges (Algorithm 3 Line 4).
  // 0 = use k. Raising it above k reduces selection noise (more judges per
  // tuple) at proportional determination cost.
  size_t validation_k = 0;
  uint64_t seed = 7;  // for validation sampling only

  // Ridge regularization alpha of Formula 5.
  double alpha = 1e-6;

  // --- Streaming (stream::OnlineIim; the batch imputer ignores these) ---
  // Sliding window: keep only the most recent `window_size` live tuples.
  // Once an ingest pushes the live count past the window, the oldest live
  // tuple is evicted (learning orders repaired, each repaired tuple's
  // model dirtied and refolded on its next use, index tombstoned).
  // 0 = unbounded growth.
  size_t window_size = 0;
  // --- Durability (stream engines; the batch imputer ignores these) ---
  // Directory for snapshots and the write-ahead arrival log. Empty
  // disables persistence. When set, Create() first recovers from the
  // newest valid snapshot plus the log tail (falling back to a cold
  // engine if the directory is empty or unusable), then logs every
  // explicit Ingest/Evict before applying it.
  std::string persist_dir;
  // Trigger a background snapshot once this many logged ops accumulated
  // since the last checkpoint (0 = only explicit SaveSnapshot calls and
  // service shutdown). Serialization happens synchronously on the engine
  // thread; the file write never blocks ingest.
  size_t snapshot_every = 0;
  // Write-ahead log fsync policy: 0 syncs only at rotation/shutdown (a
  // crash can lose the OS-buffered tail); N additionally fsyncs every
  // Nth record (1 = synchronous WAL, nothing acknowledged is lost).
  size_t wal_fsync_every = 0;
  // Snapshots retained on disk (older ones and their fully-covered log
  // segments are garbage-collected; min 1).
  size_t keep_snapshots = 2;

  // --- Robustness (stream engines with a persist_dir) ---
  // A failed write-ahead append is retried up to this many extra times
  // before the engine gives up on durability for the op (0 = fail fast).
  // Backoff between attempts doubles from wal_retry_base up to
  // wal_retry_max seconds.
  size_t wal_retry_attempts = 0;
  double wal_retry_base = 0.001;
  double wal_retry_max = 0.1;
  // What a degraded engine (durable-write retries exhausted; see
  // stream/health.h) does with further mutations. Imputations keep
  // serving under every policy.
  enum class DegradedIngest {
    // Reject ingests/evictions with kUnavailable until durability is
    // explicitly recovered. Nothing acknowledged is ever lost.
    kReject,
    // Apply them WITHOUT logging and acknowledge with an OK status whose
    // message flags the hole ("accepted non-durably"); a crash before
    // RecoverDurability() loses exactly those ops.
    kAcceptNonDurable,
  };
  DegradedIngest degraded_ingest = DegradedIngest::kReject;
  // kAcceptNonDurable only: unlogged ops tolerated before the engine
  // escalates kDegraded -> kReadOnly (0 = never escalate).
  size_t max_nondurable_ops = 0;

  // --- Quality monitoring (stream engines; see stream/quality.h) ---
  // Masking-one-out holdout rate: the fraction of arriving tuples
  // (deterministically, by arrival-number hash) sampled for a prequential
  // quality probe — the target is masked and imputed by the engine's own
  // served IIM path (k neighbors, their models, the aggregate) plus the
  // mean/kNN/GLR challengers against the pre-arrival window, and the
  // target's error estimates decay toward the newest errors. 0 disables
  // monitoring entirely (no monitor state, no challenger maintenance).
  double moo_sample_rate = 0.0;
  // Exponential-decay weight of the newest holdout error in the
  // estimates: est <- (1 - moo_decay) * est + moo_decay * err.
  double moo_decay = 0.05;
  // Routing guards: a method needs this many holdouts before it may
  // become champion, and a challenger must beat the incumbent's decayed
  // squared error by this fraction (hysteresis) to take over.
  size_t moo_min_samples = 32;
  double moo_margin = 0.1;
  // What the engines do with the estimates.
  enum class QualityRouting {
    // Maintain estimates only; every impute request is served by IIM.
    // Imputed values are bit-identical to a quality-disabled engine (the
    // probes solve models early, so solve counters differ).
    kObserveOnly,
    // Route each impute request to the current champion method; blend
    // all methods MIB-style (inverse decayed-squared-error weights) while
    // a freshly switched champion is still settling.
    kAutoRoute,
  };
  QualityRouting quality_routing = QualityRouting::kObserveOnly;

  // --- Time-based eviction (stream engines) ---
  // Column holding each tuple's event timestamp (any unit, must be
  // monotone-comparable). Enables EvictOlderThan(cutoff) sweeps — "keep
  // the last 24h" windows — on top of the count-based window_size.
  // -1 = no timestamp column (EvictOlderThan is FailedPrecondition;
  // EvictWhere works regardless).
  int timestamp_column = -1;

  // --- Execution ---
  // Worker threads for learning and batched imputation (0 = all hardware
  // threads). Results are bit-identical for every setting: the parallel
  // loops partition work into fixed blocks independent of the thread
  // count and merge per-block results in block order.
  size_t threads = 1;
};

}  // namespace iim::core

#endif  // IIM_CORE_IIM_OPTIONS_H_
