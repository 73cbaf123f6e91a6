// ImputationService: an async micro-batching front end over one streaming
// engine (OnlineIim).
//
// Producers enqueue arrivals without blocking on the engine:
//
//   SubmitIngest(row)    — complete tuple, resolves to the ingest Status;
//   SubmitImpute(tuple)  — incomplete tuple, resolves to the imputed value;
//   SubmitEvict(arrival) — retire the tuple of a past ingest, resolves to
//                          the eviction Status (sliding windows set via
//                          IimOptions::window_size evict inside the
//                          ingest itself and need no extra request).
//
// A single server thread drains the queue in submission order. Consecutive
// imputation requests are coalesced into one micro-batch (up to
// Options::max_batch) and answered by a single ThreadPool-backed
// ImputeBatch call; ingests and evictions apply one at a time. Each
// request observes exactly the relation state its submission order
// implies: batching is purely a throughput knob, because ImputeBatch is
// bit-identical to per-row ImputeOne for every thread count.
//
// Backpressure: the queue is bounded (Options::max_queue). A submission
// that would exceed it is load-shed — its future resolves immediately to
// StatusCode::kResourceExhausted and the engine never sees it — so a
// producer outrunning the engine observes explicit overload instead of
// unbounded memory growth. Pause() stops the drain AND blocks until the
// in-flight batch (if any) has finished: after it returns the engine is
// quiescent and stats() snapshots are stable until Resume(). Queued work
// keeps accumulating (and shedding at the bound) while paused; Drain() of
// a paused service with queued work blocks until Resume().

#ifndef IIM_STREAM_IMPUTATION_SERVICE_H_
#define IIM_STREAM_IMPUTATION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/mean_imputer.h"
#include "common/percentile.h"
#include "data/table.h"
#include "stream/health.h"
#include "stream/online_iim.h"

namespace iim::stream {

class ImputationService {
 public:
  struct Options {
    // Most imputation requests drained into one engine call. 0 is
    // treated as 1 (one request per call).
    size_t max_batch = 64;
    // Most requests pending at once; submissions beyond it are rejected
    // with kResourceExhausted. 0 = unbounded (the pre-backpressure
    // behavior; use only when producers are known to be slower than the
    // engine).
    size_t max_queue = 4096;
    // Deadline in seconds applied to every submission that does not carry
    // its own (0 = none). A request still queued when its deadline passes
    // resolves to kDeadlineExceeded at drain time, without ever touching
    // the engine — distinct from the kResourceExhausted queue shed.
    double default_deadline = 0.0;
    // Overload fallback: when the backlog still at/above this length
    // after an impute micro-batch is popped, the batch is answered by a
    // cheap column-mean imputer fitted on the live window instead of the
    // engine (counted in Stats::fallback_imputes — the degraded-answer
    // mark). Bounds impute latency under pressure at the cost of answer
    // quality; mutations are never rerouted. 0 = off.
    size_t fallback_watermark = 0;
  };

  struct Stats {
    size_t ingests = 0;
    size_t imputations = 0;
    size_t evictions = 0;
    size_t batches = 0;       // engine ImputeBatch calls issued
    size_t largest_batch = 0;
    // The rejection split: every request that resolved without reaching
    // the engine is exactly one of these.
    size_t queue_shed = 0;         // shed at the queue bound
    size_t deadline_expired = 0;   // deadline passed while queued
    size_t shutdown_rejected = 0;  // submissions after Shutdown()
    // Imputations answered by the overload fallback imputer
    // (Options::fallback_watermark) — degraded answers, counted so a
    // caller can tell how many results came from the cheap path.
    size_t fallback_imputes = 0;
    // Fallback fits actually computed. The fit is cached across
    // consecutive fallback batches and only invalidated by a served
    // mutation, so this advances per changed window, not per batch.
    size_t fallback_fits = 0;
    // The engine's whole record (OnlineIim::Stats) as of the last
    // quiesce point: Pause() once the engine is quiescent, the server
    // thread when the queue goes idle, and Shutdown(). It is copied under
    // the same mutex as the counters above, so a read while Pause()d or
    // after Drain() is coherent and stable; mid-stream reads may lag by
    // the requests served since the last quiesce.
    OnlineIim::Stats engine;
    // Engine-serve latency (seconds) over the most recent requests of
    // each kind (bounded reservoir of kLatencySamples): ingest is
    // per-arrival — the tail the background index rebuild bounds;
    // impute is per micro-batch.
    LatencySummary ingest_latency;
    LatencySummary impute_latency;
  };

  // The engine must outlive the service; the service is the engine's only
  // caller while running (the engine is externally synchronized).
  explicit ImputationService(OnlineIim* engine);
  ImputationService(OnlineIim* engine, const Options& options);
  // Calls Shutdown().
  ~ImputationService();

  ImputationService(const ImputationService&) = delete;
  ImputationService& operator=(const ImputationService&) = delete;

  // Enqueues a complete tuple (full schema arity, by value — the caller's
  // buffer is free immediately). The plain overloads apply
  // Options::default_deadline; the deadline_seconds overloads replace it
  // for this request (measured from submission; 0 = no deadline).
  std::future<Status> SubmitIngest(std::vector<double> row);
  std::future<Status> SubmitIngest(std::vector<double> row,
                                   double deadline_seconds);
  // Enqueues an incomplete tuple for imputation.
  std::future<Result<double>> SubmitImpute(std::vector<double> tuple);
  std::future<Result<double>> SubmitImpute(std::vector<double> tuple,
                                           double deadline_seconds);
  // Enqueues an eviction of the `arrival`-th ingested tuple (see
  // OnlineIim::Evict).
  std::future<Status> SubmitEvict(uint64_t arrival);
  std::future<Status> SubmitEvict(uint64_t arrival, double deadline_seconds);

  // Orderly stop, idempotent. Serves every request already submitted
  // (resuming if paused), joins the server thread, resolves any
  // stragglers with StatusCode::kShutdown — no future is ever abandoned
  // to a broken_promise — and flushes the engine's persistence (in-flight
  // snapshot write + write-ahead log tail). Submissions from this point
  // resolve immediately to kShutdown, distinct from the kResourceExhausted
  // overload path.
  void Shutdown();

  // Stops draining and waits for the in-flight batch to finish: on
  // return the engine is quiescent, and stats() reads are stable until
  // Resume(). Queued requests keep accumulating (and shedding at the
  // bound) until Resume().
  void Pause();
  void Resume();

  // Blocks until every request submitted so far has been served.
  void Drain();

  // One coherent snapshot: counters, latency reservoirs and engine
  // counters are all copied under one lock acquisition.
  Stats stats() const;

  // The engine's health ladder as of the last quiesce point (the engine
  // member itself is only safe to read from the server thread).
  HealthState Health() const;

 private:
  enum class Kind { kIngest, kImpute, kEvict };

  struct Request {
    Kind kind = Kind::kImpute;
    std::vector<double> values;
    uint64_t arrival = 0;
    // Absolute expiry; max() = none. Checked at drain/pop time only — an
    // expired request resolves kDeadlineExceeded without engine work.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::promise<Status> status_promise;   // ingest + evict
    std::promise<Result<double>> impute_promise;
  };

  // Most recent per-kind serve durations retained for the percentile
  // summaries (a plain ring: old samples are overwritten).
  static constexpr size_t kLatencySamples = 4096;

  // Enqueues under the lock unless the queue is at the bound or the
  // service is shut down; returns whether the request was accepted.
  bool TryEnqueue(Request req);
  void ServeLoop();
  // Serves one popped impute micro-batch through the cheap column-mean
  // fallback instead of the engine (Options::fallback_watermark).
  void ServeImputeFallback(std::vector<Request>* taken);
  // Converts a per-submit deadline (seconds from now; 0 = none) into the
  // request's absolute expiry.
  static std::chrono::steady_clock::time_point DeadlineFrom(
      double deadline_seconds);
  // Copies the engine's record into stats_ — caller holds mu_ at a
  // quiesce point.
  void RefreshEngineStats();
  // Appends one serve duration to a bounded ring (caller holds mu_).
  static void RecordLatency(std::vector<double>* ring, size_t* next,
                            double seconds);

  OnlineIim* engine_;
  Options options_;

  // Overload-fallback fit cache, server thread only: one column-mean fit
  // per quiescent span, dropped by every served mutation (which is also
  // what invalidates the engine table the imputer points into).
  baselines::MeanImputer fallback_imputer_;
  Status fallback_fit_;
  bool fallback_fit_valid_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // server waits for requests
  std::condition_variable idle_cv_;  // Drain/Pause wait for in-flight == 0
  std::deque<Request> queue_;
  size_t in_flight_ = 0;  // requests popped but not yet answered
  bool paused_ = false;
  bool shutdown_ = false;
  bool joined_ = false;  // Shutdown() already ran to completion
  Stats stats_;
  std::vector<double> ingest_seconds_;  // bounded rings, guarded by mu_
  size_t ingest_next_ = 0;
  std::vector<double> impute_seconds_;
  size_t impute_next_ = 0;

  std::thread server_;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_IMPUTATION_SERVICE_H_
