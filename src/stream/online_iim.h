// OnlineIim: IIM's learning + imputation phases over a stream of tuples.
//
// The batch IimImputer freezes a relation, learns one model per tuple
// (Algorithm 1) and only then imputes. The motivating workload — sensor
// readings arriving continuously — instead interleaves three events:
//
//   Ingest(t)     complete tuple arrival: t joins the relation and may
//                 change the l-neighborhood (and therefore the individual
//                 model) of existing tuples;
//   ImputeOne(t)  incomplete tuple arrival: impute t[Am] against the
//                 relation as of now (Algorithm 2);
//   Evict(a)      retirement: the tuple of the a-th ingest leaves the
//                 relation — explicitly, or automatically once a
//                 sliding window (options.window_size) overflows.
//
// The per-arrival maintenance machinery — learning orders, reverse
// postings, lazy IncrementalRidge catch-up, dirty-holder invalidation,
// and the adaptive candidate sweeps — lives in OrderCore
// (src/stream/order_core.h); this engine owns one core over its own
// arrivals and layers the schema-facing concerns on top: full-row
// storage, tuple validation, Algorithm 2 aggregation, batching, and
// durability (write-ahead log + snapshots).
//
// Adaptive per-tuple l (Algorithm 3, options.adaptive): supported online.
// The core maintains each live tuple's validation order incrementally —
// an arrival judges <= validation_k models and is judged by its own
// neighbors — and a model solve sweeps the candidate l values exactly as
// batch LearnAdaptive does, so imputations stay bit-identical to a batch
// adaptive imputer fitted on table(). Requires max_ell > 0 (the candidate
// budget must be bounded on a stream), the incremental fold, and full
// validation (validation_sample == 0); Create rejects other combinations.
//
// Contract (asserted by tests/stream_test.cc, tests/stream_window_test.cc
// and tests/stream_adaptive_test.cc): after any sequence of ingests and
// evictions, imputations match a from-scratch IimImputer fitted on
// table() — the live window — with the same options, bit-identical for
// every `threads` setting, fixed or adaptive l. An eviction that cuts a
// folded prefix resets that accumulator and the next solve refolds it,
// so every fold runs the batch fit's exact summation order.
//
// Thread-safety: externally synchronized. Calls must not overlap;
// ImputeBatch parallelizes internally (deterministically). Use
// ImputationService to drive one engine from concurrent producers.

#ifndef IIM_STREAM_ONLINE_IIM_H_
#define IIM_STREAM_ONLINE_IIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/iim_imputer.h"
#include "data/table.h"
#include "stream/health.h"
#include "stream/order_core.h"
#include "stream/persist/state_store.h"
#include "stream/quality.h"

namespace iim::stream {

class OnlineIim {
 public:
  struct Stats {
    size_t ingested = 0;
    size_t imputed = 0;
    size_t evicted = 0;
    // Arrivals folded onto the end of a tuple's growing prefix (the cheap
    // Proposition 3 path, pending a lazy re-solve).
    size_t fast_path_appends = 0;
    // Arrivals that landed inside a tuple's prefix: accumulator reset,
    // full restream on next use.
    size_t models_invalidated = 0;
    // Lazy model (re)solves actually performed.
    size_t models_solved = 0;
    // Next-nearest live tuples pulled into a shrunken learning order.
    size_t backfills = 0;
    // Physical compactions (tombstoned slots dropped, index rebuilt).
    size_t compactions = 0;
    // Live reverse-neighbor postings entries (one per (holder, neighbor)
    // edge, self-edges excluded) — the gauge EvictSlot's O(l) bound rides
    // on.
    size_t postings_edges = 0;
    // Clean models flipped stale by an arrival, eviction repair or
    // validation-list change (0 -> 1 transitions only). With
    // global_fits_reused, the refit-vs-reuse ratio of the engine.
    size_t holders_invalidated = 0;
    // Model requests answered by a still-clean cached model (no fold, no
    // solve).
    size_t global_fits_reused = 0;
    // Adaptive re-evaluations whose chosen l differs from the tuple's
    // previous one (0 unless options.adaptive).
    size_t adaptive_l_changes = 0;
    // Live orders an arrival's insertion test actually visited (with
    // options.admission_bound: radius-query candidates that passed their
    // per-order bound; without: every live order, i.e. live per arrival).
    size_t orders_scanned = 0;
    // Visited orders that adopted the arrival — the affected-order count
    // the sublinear-ingest cost model is gated on.
    size_t orders_admitted = 0;
    // Live orders skipped because the admission bound proved the arrival
    // could not enter them (always 0 with the bound disabled).
    size_t admission_skips = 0;
    // --- Durability (persist_dir engines; never serialized into
    // snapshots — each incarnation counts its own I/O) ---
    // Snapshot files durably published (background writes harvested +
    // blocking SaveSnapshot calls) and writes that failed.
    size_t snapshots_written = 0;
    size_t snapshot_write_failures = 0;
    // 1 when this engine was restored from a snapshot at Create.
    size_t snapshots_loaded = 0;
    // Write-ahead records replayed through Ingest/Evict at Create.
    size_t log_records_replayed = 0;
    // Longest in-memory serialize — the only part of checkpointing that
    // runs on the engine thread and thus the checkpoint "pause".
    double max_snapshot_serialize_seconds = 0.0;
    // --- Health (see stream/health.h; never serialized) ---
    // Extra write-ahead append attempts after a failure (the retry loop's
    // sleeps, not first tries).
    size_t wal_retries = 0;
    // Ops applied without a log record (degraded kAcceptNonDurable).
    size_t nondurable_ops = 0;
    // Mutations refused because the engine was degraded or read-only.
    size_t degraded_rejected = 0;
    // Health-state changes (each step down the ladder, and each recovery).
    size_t health_transitions = 0;
    // --- Quality monitoring (moo_sample_rate > 0; stream/quality.h) ---
    // Masking-one-out probes run, and sampled arrivals skipped because
    // the window held fewer than two tuples.
    size_t moo_probes = 0;
    size_t moo_skipped = 0;
    // kAutoRoute serves answered by a non-IIM champion, by the
    // churn-window ensemble, and champion changes across all columns.
    size_t routed_serves = 0;
    size_t ensemble_serves = 0;
    size_t champion_switches = 0;
    // Per-monitored-column estimator state (q feature columns then the
    // target; empty when monitoring is off).
    std::vector<QualityColumnStats> quality;
  };

  // Validates like Imputer::Fit: target/features in range for `schema`,
  // features non-empty and distinct from target, options.k > 0. Adaptive
  // per-tuple l additionally requires max_ell > 0, options.incremental,
  // and validation_sample == 0 (see the header comment).
  static Result<std::unique_ptr<OnlineIim>> Create(
      const data::Schema& schema, int target, std::vector<int> features,
      const core::IimOptions& options);

  OnlineIim(const OnlineIim&) = delete;
  OnlineIim& operator=(const OnlineIim&) = delete;

  // Complete tuple arrival. The row must have the schema's arity and be
  // non-NaN on target and features. When options.window_size > 0 and this
  // arrival pushes the live count past it, the oldest live tuple(s) are
  // evicted before returning.
  Status Ingest(const data::RowView& row);

  // Retires the tuple of the `arrival`-th successful Ingest (0-based — the
  // value stats().ingested had when that tuple arrived). Arrival numbers
  // are stable across compaction; NotFound if that tuple was never
  // ingested or is already gone. Evicting down to an empty relation is
  // allowed — imputations then fail with FailedPrecondition until the next
  // ingest.
  Status Evict(uint64_t arrival);

  // Predicate sweep: retires every live tuple whose (arrival, full row)
  // satisfies `pred`. Victims are collected against the stable pre-sweep
  // window — the predicate never observes a partially swept relation —
  // then evicted through the normal (logged) Evict path. Returns the
  // number evicted; an error mid-sweep leaves the already-evicted prefix
  // applied (each eviction was individually acknowledged).
  Result<size_t> EvictWhere(
      const std::function<bool(uint64_t arrival, const data::RowView& row)>&
          pred);
  // Time-based retention: evicts every live tuple whose
  // options.timestamp_column value is strictly below `cutoff` ("keep the
  // last 24h" on top of — or instead of — the count-based window).
  // FailedPrecondition when no timestamp column is configured.
  Result<size_t> EvictOlderThan(double cutoff);

  // Incomplete tuple arrival (Algorithm 2 against the current relation).
  // With quality routing enabled (kAutoRoute), the request is served by
  // the target column's champion method — see stream/quality.h.
  Result<double> ImputeOne(const data::RowView& tuple);

  // --- Arrival-keyed accessors (test and example hooks) ----------------
  // Arrival numbers are the only tuple identifier stable across
  // compaction; slots are private and move. Read-only: safe to call
  // concurrently with each other and with const queries, NOT with
  // Ingest/Evict (the engine stays externally synchronized).

  // Whether the tuple of the `arrival`-th ingest is still live.
  bool IsLive(uint64_t arrival) const;
  // The live tuple's current learning order (self first, then neighbors
  // ascending by (distance, arrival)) with entries remapped from slots to
  // arrival numbers. Empty if the arrival is not live. Test hook for the
  // order-maintenance differential tests.
  std::vector<neighbors::Neighbor> LearningOrderByArrival(
      uint64_t arrival) const;
  // Adaptive: the l the tuple's model used at its last (re)solve — 0 if
  // the arrival is not live, or if the model was never solved since its
  // last invalidation. Fixed-l engines report the configured l. Test and
  // example hook for watching per-tuple l drift as the window slides.
  size_t ChosenEllByArrival(uint64_t arrival) const;

  // Batched Algorithm 2: entry i answers rows[i]. Neighbor queries and
  // candidate aggregation fan out over options.threads workers; pending
  // model solves run once, serially, so results are bit-identical to
  // per-row ImputeOne calls for every thread count.
  std::vector<Result<double>> ImputeBatch(
      const std::vector<data::RowView>& rows);

  // The live window, in arrival order (a batch IimImputer fitted on this
  // snapshot with options() reproduces this engine's imputations — see the
  // contract above). Materialized lazily when tombstones are present.
  // The returned reference — and anything retaining it, like a fitted
  // ImputerBase or RowViews — is invalidated by the next Ingest or Evict;
  // copy the Table to hold a snapshot across mutations.
  const data::Table& table() const;
  // Live tuples.
  size_t size() const { return core_.live(); }
  const core::IimOptions& options() const { return options_; }
  int target() const { return target_; }
  const std::vector<int>& features() const { return features_; }
  const DynamicIndex& index() const { return core_.index(); }
  // Flushes the index's background rebuild (tests, benches, quiesce
  // points before a read-heavy phase); queries never require it. Only
  // this narrow operation is exposed — the index's writer API stays
  // private so its slots cannot be moved out from under the core's
  // slot-aligned state.
  void WaitForIndexRebuild() { core_.WaitForIndexRebuild(); }
  // Engine-owned cursors merged with the order-maintenance core's
  // counters (one coherent copy).
  Stats stats() const;
  // The quality monitor, or nullptr when moo_sample_rate == 0 (test and
  // example hook; stats() already surfaces everything it measures).
  const QualityMonitor* quality_monitor() const { return monitor_.get(); }

  // --- Durability (options().persist_dir engines) ----------------------
  // Serializes the full engine state (window rows, arrival numbers,
  // learning orders, ridge accumulators, counters) into the sectioned
  // snapshot container; the image covers durable_ops() logged ops. Also
  // usable without a persist_dir.
  std::string SerializeSnapshot();
  // Installs a serialized image into an EMPTY engine (same schema,
  // target, features and the options that shape results — mismatches are
  // InvalidArgument). Restored state is bitwise the serialized state.
  Status RestoreFromSnapshot(const std::string& bytes);
  // Writes a snapshot synchronously (waits out any background write
  // first) and runs retention. FailedPrecondition without a persist_dir.
  Status SaveSnapshot();
  // Waits out any in-flight background snapshot write and fsyncs the
  // write-ahead log tail. No-op without a persist_dir.
  Status FlushPersistence();
  // Ops (explicit ingests + evicts) durably logged since the store's
  // birth; 0 without a persist_dir.
  uint64_t durable_ops() const {
    return store_ == nullptr ? 0 : store_->ops_logged();
  }

  // --- Health (see stream/health.h) ------------------------------------
  // Current state of the sticky degradation ladder. Always kHealthy
  // without a persist_dir.
  HealthState Health() const { return health_; }
  // The explicit way back to kHealthy after degradation: folds any
  // non-durable ops into the op count and publishes a BLOCKING snapshot
  // covering the engine's current state, so the acknowledged and
  // recoverable timelines agree again. An error leaves the engine
  // degraded (the debt already folded stays folded — retrying is safe).
  // No-op when already healthy; FailedPrecondition without a persist_dir.
  Status RecoverDurability();

  // Verifies the core's reverse-neighbor postings (and, when adaptive,
  // the validation orders' reverse lists) against a full recomputation
  // from the orders — the invariant the O(l) eviction path rides on.
  // O(n·l); debug builds assert it after every eviction, tests call it
  // directly.
  bool VerifyPostings() const { return core_.VerifyPostings(); }

 private:
  OnlineIim(const data::Schema& schema, int target,
            std::vector<int> features, const core::IimOptions& options);

  Status CheckQuery(const data::RowView& tuple) const;
  // The quality route every impute request in the current quiescent span
  // is served by (kIim without a monitor, or while the mirror is cold).
  QualityRoute CurrentRoute() const;
  // Candidate collection + Formula 10-12 aggregation; models of `nbrs`
  // must already be ensured.
  Result<double> AggregateClean(
      const data::RowView& tuple,
      const std::vector<neighbors::Neighbor>& nbrs) const;
  // Runs the core's compaction check and, when one fired, drops the same
  // tombstoned rows from the full-row table.
  void MaybeCompact();
  // Opens the state store, restores the newest valid snapshot, replays
  // the log tail through Ingest/Evict, and starts logging.
  Status InitPersistence();
  // Harvests finished background snapshot writes and, when the op count
  // says one is due, serializes (on this thread, timed) and hands the
  // bytes to the background writer. Called at the end of Ingest/Evict.
  // Suspended while degraded: a snapshot taken then could not honestly
  // state which ops it covers.
  void MaybeSnapshot();
  // The durable-write gate every explicit mutation passes through:
  // `append` logs the op. Runs the bounded-backoff retry loop and drives
  // the health ladder. OK with *nondurable=false -> apply and ack
  // durable; OK with *nondurable=true -> apply unlogged, ack with a
  // flagged status; error -> reject unapplied.
  Status LogDurably(const std::function<Status()>& append, bool* nondurable);
  void SetHealth(HealthState next);

  int target_;
  std::vector<int> features_;
  core::IimOptions options_;
  size_t q_;  // |F|

  // Full-arity rows, one per core slot (the core holds the gathered
  // (F, Am) projection; the engine keeps the schema-complete row for
  // table()).
  data::Table table_;
  // The per-arrival maintenance machinery: orders, postings, index,
  // accumulators, models, adaptive sweeps. Slot-aligned with table_.
  OrderCore core_;
  // ImputeBatch's workers, spawned once for the engine's lifetime (a
  // 1-thread pool runs inline and spawns none).
  ThreadPool pool_;

  // Masking-one-out quality monitor; null when moo_sample_rate == 0 (the
  // default — a quality-disabled engine carries no monitor state at all).
  std::unique_ptr<QualityMonitor> monitor_;

  // table() materialization cache while tombstones are present.
  mutable data::Table live_cache_;
  mutable bool live_cache_valid_ = false;

  // Durability: null unless options.persist_dir is set. While replaying_
  // the recovered log tail, Ingest/Evict skip logging and checkpointing
  // (the records being applied are already durable).
  std::unique_ptr<persist::StateStore> store_;
  bool replaying_ = false;

  // Health ladder (stream/health.h) and the count of applied-but-unlogged
  // ops not yet folded into the store by RecoverDurability().
  HealthState health_ = HealthState::kHealthy;
  uint64_t nondurable_debt_ = 0;

  // Engine-owned cursors and durability counters; the maintenance
  // counters live in core_.counters() and are merged in stats().
  Stats stats_;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_ONLINE_IIM_H_
