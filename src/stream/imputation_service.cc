#include "stream/imputation_service.h"

#include <algorithm>
#include <utility>

#include "baselines/mean_imputer.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"

namespace iim::stream {

ImputationService::ImputationService(OnlineIim* engine)
    : ImputationService(engine, Options()) {}

ImputationService::ImputationService(OnlineIim* engine,
                                     const Options& options)
    : engine_(engine), options_(options) {
  // A zero batch bound would pop nothing and spin on the same impute
  // forever; one request per engine call is its only sensible reading.
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  server_ = std::thread([this] { ServeLoop(); });
}

ImputationService::~ImputationService() { Shutdown(); }

void ImputationService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    shutdown_ = true;
    paused_ = false;  // a paused service still serves its backlog on exit
  }
  work_cv_.notify_all();
  server_.join();
  std::deque<Request> stragglers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;  // later calls return at the check above
    stragglers.swap(queue_);
    RefreshEngineStats();
  }
  // The serve loop only exits with an empty queue, so this is normally a
  // no-op — but it is the backstop that upholds the "no future is ever
  // abandoned" contract if that invariant ever regresses.
  Status gone = Status::Shutdown(
      "ImputationService: shut down before this request was served");
  for (Request& req : stragglers) {
    if (req.kind == Kind::kImpute) {
      req.impute_promise.set_value(gone);
    } else {
      req.status_promise.set_value(gone);
    }
  }
  // Every acknowledged request is applied; make it durable (no-op for
  // engines without a persist_dir).
  engine_->FlushPersistence();
}

bool ImputationService::TryEnqueue(Request req) {
  bool is_shutdown = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // After Shutdown() the server no longer drains: accepting would
      // abandon the future. Distinct status from the overload path so
      // callers can tell "retry later" from "stop submitting".
      is_shutdown = true;
      ++stats_.shutdown_rejected;
    } else if (options_.max_queue == 0 ||
               queue_.size() < options_.max_queue) {
      queue_.push_back(std::move(req));
      return true;
    } else {
      ++stats_.queue_shed;
    }
  }
  // Reject outside the lock: the engine never sees the request; its
  // future resolves immediately to the explicit status.
  Status st = is_shutdown
                  ? Status::Shutdown(
                        "ImputationService: shut down; no further requests "
                        "are served")
                  : Status::ResourceExhausted(
                        "ImputationService: request queue full "
                        "(Options::max_queue); the producer is outrunning "
                        "the engine");
  if (req.kind == Kind::kImpute) {
    req.impute_promise.set_value(std::move(st));
  } else {
    req.status_promise.set_value(std::move(st));
  }
  return false;
}

std::chrono::steady_clock::time_point ImputationService::DeadlineFrom(
    double deadline_seconds) {
  if (deadline_seconds <= 0.0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(deadline_seconds));
}

std::future<Status> ImputationService::SubmitIngest(std::vector<double> row) {
  return SubmitIngest(std::move(row), options_.default_deadline);
}

std::future<Status> ImputationService::SubmitIngest(std::vector<double> row,
                                                    double deadline_seconds) {
  Request req;
  req.kind = Kind::kIngest;
  req.values = std::move(row);
  req.deadline = DeadlineFrom(deadline_seconds);
  std::future<Status> result = req.status_promise.get_future();
  if (TryEnqueue(std::move(req))) work_cv_.notify_one();
  return result;
}

std::future<Result<double>> ImputationService::SubmitImpute(
    std::vector<double> tuple) {
  return SubmitImpute(std::move(tuple), options_.default_deadline);
}

std::future<Result<double>> ImputationService::SubmitImpute(
    std::vector<double> tuple, double deadline_seconds) {
  Request req;
  req.kind = Kind::kImpute;
  req.values = std::move(tuple);
  req.deadline = DeadlineFrom(deadline_seconds);
  std::future<Result<double>> result = req.impute_promise.get_future();
  if (TryEnqueue(std::move(req))) work_cv_.notify_one();
  return result;
}

std::future<Status> ImputationService::SubmitEvict(uint64_t arrival) {
  return SubmitEvict(arrival, options_.default_deadline);
}

std::future<Status> ImputationService::SubmitEvict(uint64_t arrival,
                                                   double deadline_seconds) {
  Request req;
  req.kind = Kind::kEvict;
  req.arrival = arrival;
  req.deadline = DeadlineFrom(deadline_seconds);
  std::future<Status> result = req.status_promise.get_future();
  if (TryEnqueue(std::move(req))) work_cv_.notify_one();
  return result;
}

void ImputationService::Pause() {
  // Stop the drain, then wait out the in-flight batch: counters and
  // engine state no longer move once this returns (the regression this
  // pins: a stats() snapshot taken "while paused" used to race the still-
  // running batch and could disagree with a second snapshot).
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  // The engine is quiescent here and the server cannot pop more work
  // (paused_ is set, mu_ held), so this is the one place a paused
  // engine-stats snapshot is guaranteed fresh — a Pause() landing
  // BETWEEN batches never passes through the server's own refresh.
  RefreshEngineStats();
}

void ImputationService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void ImputationService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

ImputationService::Stats ImputationService::stats() const {
  Stats s;
  std::vector<double> ingest_copy, impute_copy;
  {
    // Only the copies happen under mu_ — the nth_element passes run
    // unlocked so a polling monitor cannot stall Submit or the serve
    // loop (and thereby inflate the very latencies being summarized).
    // The engine counters are refreshed by the server thread under this
    // same mutex, so they cohere with the service counters.
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    ingest_copy = ingest_seconds_;
    impute_copy = impute_seconds_;
  }
  s.ingest_latency = Summarize(ingest_copy);
  s.impute_latency = Summarize(impute_copy);
  return s;
}

HealthState ImputationService::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.engine.health;
}

void ImputationService::RefreshEngineStats() {
  stats_.engine = engine_->stats();
}

void ImputationService::RecordLatency(std::vector<double>* ring,
                                      size_t* next, double seconds) {
  if (ring->size() < kLatencySamples) {
    ring->push_back(seconds);
    return;
  }
  (*ring)[*next] = seconds;
  *next = (*next + 1) % kLatencySamples;
}

void ImputationService::ServeImputeFallback(std::vector<Request>* taken) {
  // One column-mean fit per quiescent span: this thread is the engine's
  // only caller, so between served mutations the live window cannot
  // change and the previous batch's fit answers identically. The cache
  // keeps the fallback's serve cost proportional to the batch — without
  // it, every backed-up batch re-scanned the whole window, so overload
  // latency grew with window size exactly when latency mattered most.
  if (!fallback_fit_valid_) {
    fallback_fit_ = fallback_imputer_.Fit(
        engine_->table(), engine_->target(), engine_->features());
    fallback_fit_valid_ = true;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fallback_fits;
  }
  for (Request& req : *taken) {
    if (!fallback_fit_.ok()) {
      // E.g. an empty window — the same condition the engine itself
      // would refuse; surface the fit error per request.
      req.impute_promise.set_value(Result<double>(fallback_fit_));
      continue;
    }
    data::RowView row(req.values.data(), req.values.size());
    req.impute_promise.set_value(fallback_imputer_.ImputeOne(row));
  }
}

void ImputationService::ServeLoop() {
  for (;;) {
    std::vector<Request> taken;
    std::vector<Request> expired;
    bool use_fallback = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return shutdown_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty()) break;  // shutdown with nothing left to serve
      // Expired requests resolve without engine work, so they pop
      // regardless of kind and never join a micro-batch. Deadlines are
      // only checked here — at pop time — so an expired request deeper
      // in the queue waits its turn (it still never reaches the engine).
      const auto now = std::chrono::steady_clock::now();
      while (!queue_.empty() && queue_.front().deadline <= now) {
        expired.push_back(std::move(queue_.front()));
        queue_.pop_front();
        ++stats_.deadline_expired;
      }
      if (queue_.empty()) {
        RefreshEngineStats();
        idle_cv_.notify_all();
      } else {
        Kind head = queue_.front().kind;
        if (head != Kind::kImpute) {
          // Mutations apply one at a time: later requests must see the
          // relation exactly as their submission order implies.
          taken.push_back(std::move(queue_.front()));
          queue_.pop_front();
        } else {
          // Coalesce the run of imputations at the head into one
          // micro-batch (max_batch >= 1, so the head always joins it).
          while (!queue_.empty() && queue_.front().kind == head &&
                 taken.size() < options_.max_batch &&
                 queue_.front().deadline > now) {
            taken.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
        }
        in_flight_ = taken.size();
        // The overload check happens AFTER popping: the batch in hand is
        // rerouted when the backlog behind it is still at the watermark.
        use_fallback = head == Kind::kImpute &&
                       options_.fallback_watermark > 0 &&
                       queue_.size() >= options_.fallback_watermark;
      }
    }

    // Resolve deadline misses outside the lock, like every other answer.
    if (!expired.empty()) {
      Status late = Status::DeadlineExceeded(
          "ImputationService: deadline passed while queued; the engine "
          "never saw this request");
      for (Request& req : expired) {
        if (req.kind == Kind::kImpute) {
          req.impute_promise.set_value(late);
        } else {
          req.status_promise.set_value(late);
        }
      }
    }
    if (taken.empty()) continue;  // everything popped had expired

    // Latency injection point: stalls the drain without failing anything
    // (chaos schedules use it to pile up the queue and force deadline
    // misses, shedding and the overload fallback).
    IIM_FAIL_POINT_VOID("service.drain");

    Kind kind = taken.front().kind;
    bool injected = false;
    Stopwatch serve_timer;
    // Batch-execution fault: the whole popped batch resolves to the
    // injected status and the engine is never touched.
    Status batch_fault = iim::fail::Inject("service.batch");
    if (!batch_fault.ok()) {
      injected = true;
      for (Request& req : taken) {
        if (req.kind == Kind::kImpute) {
          req.impute_promise.set_value(batch_fault);
        } else {
          req.status_promise.set_value(batch_fault);
        }
      }
    } else if (kind == Kind::kIngest) {
      data::RowView row(taken.front().values.data(),
                        taken.front().values.size());
      taken.front().status_promise.set_value(engine_->Ingest(row));
    } else if (kind == Kind::kEvict) {
      taken.front().status_promise.set_value(
          engine_->Evict(taken.front().arrival));
    } else if (use_fallback) {
      ServeImputeFallback(&taken);
    } else {
      std::vector<data::RowView> rows;
      rows.reserve(taken.size());
      for (const Request& req : taken) {
        rows.emplace_back(req.values.data(), req.values.size());
      }
      std::vector<Result<double>> answers = engine_->ImputeBatch(rows);
      for (size_t i = 0; i < taken.size(); ++i) {
        taken[i].impute_promise.set_value(std::move(answers[i]));
      }
    }

    // Any served mutation can change the live window, so the cached
    // fallback fit is stale. Injected faults and deadline misses never
    // reach the engine and keep it.
    if (!injected && kind != Kind::kImpute) fallback_fit_valid_ = false;

    double serve_seconds = serve_timer.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (injected) {
        // The engine never saw the batch: no serve counters, no latency
        // sample — only the quiesce/in-flight bookkeeping below.
      } else if (kind == Kind::kIngest) {
        ++stats_.ingests;
        RecordLatency(&ingest_seconds_, &ingest_next_, serve_seconds);
      } else if (kind == Kind::kEvict) {
        ++stats_.evictions;
      } else {
        stats_.imputations += taken.size();
        if (use_fallback) {
          stats_.fallback_imputes += taken.size();
        } else {
          ++stats_.batches;
          stats_.largest_batch = std::max(stats_.largest_batch, taken.size());
        }
        RecordLatency(&impute_seconds_, &impute_next_, serve_seconds);
      }
      // Engine stats are only refreshed at quiesce points — the queue
      // going idle here, or inside Pause() itself — not per served
      // request: copying the engine's stats under mu_ on every drain
      // would tax the same lock Submit* and the latency rings contend on.
      if (queue_.empty()) RefreshEngineStats();
      in_flight_ = 0;
      idle_cv_.notify_all();  // Drain (queue empty) and Pause (quiescent)
    }
  }
  // Unreachable requests would deadlock futures; the loop only exits with
  // an empty queue, so there are none.
}

}  // namespace iim::stream
