// Streaming sensor ingestion — the paper's motivating workload, online.
//
// examples/sensor_imputation.cpp treats the deployment as a frozen
// relation: collect everything, fit once, impute. Real sensor traffic
// arrives one reading at a time, and a reading lost in transmission needs
// its value *now*, against whatever has been collected so far. This
// walkthrough drives the streaming engine that makes this cheap:
//
//   OnlineIim          ingests complete readings by updating only the
//                      per-tuple models the arrival actually touches
//                      (Proposition 3's incremental U/V), never refitting
//                      the relation;
//   ImputationService  queues arrivals from the network thread and drains
//                      imputation requests in micro-batches.
//
// The payoff is printed at the end: the imputations served online are
// bit-identical to what a from-scratch batch fit on the final relation
// would have produced — streaming costs no accuracy at all.
//
// The epilogue replays the stream through a *sliding window*
// (IimOptions::window_size): each arrival past the cap auto-evicts the
// oldest reading — every model that learned from it restreams its fold
// over the repaired learning order on next use — and memory stays
// bounded no matter how long the deployment runs.
//
// Act three makes the deployment durable (IimOptions::persist_dir): every
// arrival is appended to a write-ahead log before it is applied, a
// snapshot of the full engine lands in the background every few hundred
// ops, and when the process "crashes" (the engine is destroyed with no
// shutdown), the next Create restores the newest snapshot, replays the
// log tail, and answers every probe bit-for-bit as the engine that never
// crashed.
//
// Act four lets every reading choose its own neighborhood size l
// (IimOptions::adaptive — the paper's Algorithm 3), online: each arrival
// re-validates only the tuples whose validation lists it actually
// enters, the per-tuple l is re-determined lazily at the next query that
// needs the model, and the chosen values drift as the window slides off
// old regimes — yet the imputations stay bit-identical to a batch
// Algorithm 3 refit on the live window.
//
// Act five breaks the disk under act three's deployment: the wal.append
// fail point (src/common/failpoint.h) injects IoError on every append,
// bounded retries are exhausted, and the engine degrades — further
// ingests are refused with Unavailable while imputations keep serving
// off the last durable state. When the disk comes back,
// RecoverDurability() writes a covering snapshot and returns the engine
// to healthy, and the refused readings are re-ingested as if nothing
// happened. Every transition and refusal is counted.
//
// Act six asks the question the agreement checks above cannot: is the
// imputation any good *right now*? moo_sample_rate arms the
// masking-one-out monitor — a deterministic hash picks 1% of arrivals,
// holds one monitored cell out, and imputes it from the pre-arrival
// window by IIM plus three cheap challengers (column mean, kNN, global
// ridge); the absolute errors feed per-column decayed estimates and
// percentile rings surfaced through the service stats. With
// quality_routing = kAutoRoute each request is additionally served by
// the target column's current champion method (hysteresis-guarded, with
// a weighted ensemble while a fresh champion settles). The deployment
// here runs four laps of the stream through a sliding window; on the
// last two laps the power channel recalibrates — exactly the drift a
// batch-agreement check is blind to and the monitor exists to expose.
//
//   ./examples/streaming_sensor

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream/persist/io.h"

int main() {
  // The deployment of examples/sensor_imputation.cpp: rooms with local
  // linear thermal behaviour, readings over 5 correlated channels.
  iim::datasets::DatasetSpec spec;
  spec.name = "sensor-stream";
  spec.n = 1500;
  spec.m = 5;
  spec.regimes = 6;
  spec.exogenous = 2;
  spec.divergence = 0.8;
  spec.noise = 0.1;
  spec.box_halfwidth = 2.5;
  spec.center_spread = 9.0;
  auto gen = iim::datasets::Generate(spec, /*seed=*/2024);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n", gen.status().ToString().c_str());
    return 1;
  }
  const iim::data::Table& readings = gen.value().table;
  const int target = 4;                       // the power channel
  const std::vector<int> features = {0, 1, 2, 3};

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.ell = 20;
  opt.threads = 2;
  auto engine =
      iim::stream::OnlineIim::Create(readings.schema(), target, features, opt);
  if (!engine.ok()) {
    std::fprintf(stderr, "create: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  iim::stream::OnlineIim& online = *engine.value();

  std::printf("Sensor stream: %zu readings x %zu channels, %zu rooms\n",
              readings.NumRows(), readings.NumCols(), spec.regimes);
  std::printf("Transmission bursts knock the %s value out of 4 consecutive "
              "readings every 40; each is imputed on arrival.\n\n",
              readings.schema().name(static_cast<size_t>(target)).c_str());

  // The "network thread": ingest complete readings, request imputations
  // for the lost ones. Submissions return futures immediately; the
  // service drains them in order, coalescing imputation runs.
  std::vector<std::future<iim::Result<double>>> pending;
  std::vector<double> truths;
  {
    iim::stream::ImputationService::Options sopt;
    sopt.max_batch = 32;
    iim::stream::ImputationService service(engine.value().get(), sopt);
    for (size_t i = 0; i < readings.NumRows(); ++i) {
      std::vector<double> row = readings.Row(i).ToVector();
      // Bursty losses: 4 consecutive readings out of every 40 (clustered
      // missing values, Figure 8's hard case — and consecutive requests
      // are what the service coalesces into one micro-batch).
      if (i > 60 && (i / 4) % 10 == 0) {
        truths.push_back(row[static_cast<size_t>(target)]);
        row[static_cast<size_t>(target)] =
            std::numeric_limits<double>::quiet_NaN();
        pending.push_back(service.SubmitImpute(std::move(row)));
      } else {
        service.SubmitIngest(std::move(row));
      }
    }
    service.Drain();
    auto sstats = service.stats();
    std::printf("Service: %zu ingests, %zu imputations in %zu micro-batches "
                "(largest %zu)\n",
                sstats.ingests, sstats.imputations, sstats.batches,
                sstats.largest_batch);
    std::printf("Service latency: ingest p50 %.3f / p99 %.3f / max %.3f ms; "
                "impute batch p50 %.3f / p99 %.3f / max %.3f ms\n",
                sstats.ingest_latency.p50 * 1e3,
                sstats.ingest_latency.p99 * 1e3,
                sstats.ingest_latency.max * 1e3,
                sstats.impute_latency.p50 * 1e3,
                sstats.impute_latency.p99 * 1e3,
                sstats.impute_latency.max * 1e3);
  }

  double acc = 0.0;
  size_t served = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    iim::Result<double> v = pending[i].get();
    if (!v.ok()) {
      std::fprintf(stderr, "impute %zu: %s\n", i,
                   v.status().ToString().c_str());
      return 1;
    }
    double d = v.value() - truths[i];
    acc += d * d;
    ++served;
  }
  std::printf("Online RMS over %zu lost readings: %.3f\n\n", served,
              std::sqrt(acc / static_cast<double>(served)));

  const auto& stats = online.stats();
  std::printf("Engine: %zu ingested; per-arrival maintenance: %zu cheap "
              "prefix appends, %zu invalidations, %zu lazy model solves\n",
              stats.ingested, stats.fast_path_appends,
              stats.models_invalidated, stats.models_solved);
  // One coherent index snapshot: rebuild counters, double-buffer state
  // and the worst writer-lock hold an arrival ever paid.
  iim::stream::DynamicIndex::Stats istats = online.index().stats();
  std::printf("Index: %zu points, KD-tree over %zu (tail %zu); %zu rebuilds "
              "= %zu background launches, %zu swaps, %zu discarded; worst "
              "Append lock hold %.3f ms\n\n",
              istats.live, istats.tree_size, istats.tail_size,
              istats.rebuilds, istats.launches, istats.swaps,
              istats.discarded, istats.max_append_hold_seconds * 1e3);

  // The streaming guarantee: a batch engine fitted from scratch on the
  // final relation must agree with the online engine bit for bit.
  iim::core::IimImputer batch(opt);
  iim::Status fit = batch.Fit(online.table(), target, features);
  if (!fit.ok()) {
    std::fprintf(stderr, "batch fit: %s\n", fit.ToString().c_str());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < readings.NumRows(); i += 97) {
    std::vector<double> row = readings.Row(i).ToVector();
    row[static_cast<size_t>(target)] =
        std::numeric_limits<double>::quiet_NaN();
    iim::data::RowView view(row.data(), row.size());
    iim::Result<double> got = online.ImputeOne(view);
    iim::Result<double> want = batch.ImputeOne(view);
    if (!got.ok() || !want.ok() || got.value() != want.value()) ++mismatches;
  }
  std::printf("Batch-refit agreement: %s\n",
              mismatches == 0 ? "bit-identical (streaming costs no accuracy)"
                              : "MISMATCH");
  if (mismatches != 0) return 1;

  // Act two: the same stream through a sliding window. A deployment that
  // runs for months cannot keep every reading — and models learned on
  // last winter's regime mislead today's imputations. window_size bounds
  // both: each arrival past the cap retires the oldest live reading.
  const size_t kWindow = 500;
  opt.window_size = kWindow;
  auto wengine =
      iim::stream::OnlineIim::Create(readings.schema(), target, features, opt);
  if (!wengine.ok()) {
    std::fprintf(stderr, "create windowed: %s\n",
                 wengine.status().ToString().c_str());
    return 1;
  }
  iim::stream::OnlineIim& windowed = *wengine.value();
  std::vector<double> arrival_seconds;
  arrival_seconds.reserve(readings.NumRows());
  iim::Stopwatch arrival_timer;
  for (size_t i = 0; i < readings.NumRows(); ++i) {
    arrival_timer.Restart();
    iim::Status st = windowed.Ingest(readings.Row(i));
    arrival_seconds.push_back(arrival_timer.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "windowed ingest %zu: %s\n", i,
                   st.ToString().c_str());
      return 1;
    }
    // Serve a lost reading every burst, as act one did. This is what puts
    // solved models in the window for later evictions to cut.
    if (i > 60 && i % 40 == 0) {
      std::vector<double> lost = readings.Row(i - 1).ToVector();
      lost[static_cast<size_t>(target)] =
          std::numeric_limits<double>::quiet_NaN();
      iim::data::RowView lost_view(lost.data(), lost.size());
      if (!windowed.ImputeOne(lost_view).ok()) {
        std::fprintf(stderr, "windowed impute %zu failed\n", i);
        return 1;
      }
    }
  }
  const auto& wstats = windowed.stats();
  std::printf("\nSliding window (window_size = %zu): %zu ingested, %zu "
              "evicted, %zu live\n",
              kWindow, wstats.ingested, wstats.evicted, windowed.size());
  // The tail-latency smoke check: every arrival above carried ingest +
  // auto-evict + any compaction; the percentiles make a regression in any
  // of them visible at a glance.
  iim::LatencySummary arrival_lat = iim::Summarize(arrival_seconds);
  std::printf("Per-arrival latency (ingest + auto-evict): p50 %.3f / p99 "
              "%.3f / max %.3f ms\n",
              arrival_lat.p50 * 1e3, arrival_lat.p99 * 1e3,
              arrival_lat.max * 1e3);
  iim::stream::DynamicIndex::Stats wistats = windowed.index().stats();
  std::printf("Eviction repair: %zu backfills over %zu reverse-neighbor "
              "postings edges; %zu compactions kept %zu index slots (worst "
              "compact lock hold %.3f ms)\n",
              wstats.backfills, wstats.postings_edges, wstats.compactions,
              wistats.slots, wistats.max_compact_hold_seconds * 1e3);

  // The windowed guarantee: a batch engine fitted on the live window (the
  // last kWindow readings) agrees with the windowed engine bit for bit.
  iim::core::IimImputer wbatch(opt);
  iim::Status wfit = wbatch.Fit(windowed.table(), target, features);
  if (!wfit.ok()) {
    std::fprintf(stderr, "window batch fit: %s\n", wfit.ToString().c_str());
    return 1;
  }
  size_t wmismatches = 0;
  for (size_t i = 0; i < readings.NumRows(); i += 97) {
    std::vector<double> row = readings.Row(i).ToVector();
    row[static_cast<size_t>(target)] =
        std::numeric_limits<double>::quiet_NaN();
    iim::data::RowView view(row.data(), row.size());
    iim::Result<double> got = windowed.ImputeOne(view);
    iim::Result<double> want = wbatch.ImputeOne(view);
    if (!got.ok() || !want.ok()) {
      ++wmismatches;
      continue;
    }
    if (got.value() != want.value()) ++wmismatches;
  }
  std::printf("Window batch-refit agreement: %s\n",
              wmismatches == 0
                  ? "bit-identical to a fresh fit on the live window "
                    "(eviction costs no accuracy)"
                  : "MISMATCH");
  if (wmismatches != 0) return 1;

  // The readings act one ingested (the lost ones were imputed, never
  // ingested), replayed by the durable act below.
  std::vector<std::vector<double>> replay;
  for (size_t i = 0; i < readings.NumRows(); ++i) {
    if (i > 60 && (i / 4) % 10 == 0) continue;
    replay.push_back(readings.Row(i).ToVector());
  }

  // Act three: survive a crash. The same stream, but every arrival goes
  // through the write-ahead log before it is applied and a background
  // snapshot lands every 400 ops. Destroying the engine mid-flight (no
  // shutdown, no flush beyond the per-record log append) is the crash;
  // recovery restores the newest snapshot and replays the log tail
  // through the normal ingest path — so the recovered engine must answer
  // exactly like act one's never-persisted engine, which saw the same
  // arrivals.
  char tmpl[] = "/tmp/iim_sensor_persist_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  std::string persist_dir = std::string(tmpl) + "/wal";
  iim::core::IimOptions dopt = opt;
  dopt.window_size = 0;  // mirror act one
  dopt.persist_dir = persist_dir;
  dopt.snapshot_every = 400;
  {
    auto durable = iim::stream::OnlineIim::Create(readings.schema(), target,
                                                  features, dopt);
    if (!durable.ok()) {
      std::fprintf(stderr, "durable create: %s\n",
                   durable.status().ToString().c_str());
      return 1;
    }
    for (const std::vector<double>& row : replay) {
      iim::data::RowView view(row.data(), row.size());
      iim::Status st = durable.value()->Ingest(view);
      if (!st.ok()) {
        std::fprintf(stderr, "durable ingest: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    iim::Status flushed = durable.value()->FlushPersistence();
    if (!flushed.ok()) {
      std::fprintf(stderr, "flush: %s\n", flushed.ToString().c_str());
      return 1;
    }
    const auto& dstats = durable.value()->stats();
    std::printf("\nDurable (snapshot every %zu ops): %llu ops logged, %zu "
                "snapshots written; worst on-thread serialize pause %.3f "
                "ms\n",
                dopt.snapshot_every,
                static_cast<unsigned long long>(
                    durable.value()->durable_ops()),
                dstats.snapshots_written,
                dstats.max_snapshot_serialize_seconds * 1e3);
    // The engine dies here — destroyed, never told to shut down. Only
    // the files in persist_dir survive.
  }
  iim::Stopwatch recovery_timer;
  auto recovered = iim::stream::OnlineIim::Create(readings.schema(), target,
                                                  features, dopt);
  double recovery_seconds = recovery_timer.ElapsedSeconds();
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  const auto& rstats = recovered.value()->stats();
  std::printf("Recovered in %.1f ms: %zu snapshot restored + %zu log "
              "records replayed; %zu readings live\n",
              recovery_seconds * 1e3, rstats.snapshots_loaded,
              rstats.log_records_replayed, recovered.value()->size());
  size_t dmismatches = 0;
  for (size_t i = 0; i < readings.NumRows(); i += 97) {
    std::vector<double> row = readings.Row(i).ToVector();
    row[static_cast<size_t>(target)] =
        std::numeric_limits<double>::quiet_NaN();
    iim::data::RowView view(row.data(), row.size());
    iim::Result<double> got = recovered.value()->ImputeOne(view);
    iim::Result<double> want = online.ImputeOne(view);
    if (!got.ok() || !want.ok() || got.value() != want.value())
      ++dmismatches;
  }
  std::printf("Recovered-vs-never-crashed agreement: %s\n",
              dmismatches == 0
                  ? "bit-identical (the log replay rebuilds the exact "
                    "state)"
                  : "MISMATCH");
  recovered.value().reset();
  auto leftover = iim::stream::persist::ListDir(persist_dir);
  if (leftover.ok()) {
    for (const std::string& name : leftover.value()) {
      (void)iim::stream::persist::RemoveFile(persist_dir + "/" + name);
    }
  }
  ::rmdir(persist_dir.c_str());
  ::rmdir(tmpl);
  if (dmismatches != 0) return 1;

  // Act four: adaptive neighborhood sizes, online. A fixed l treats every
  // room alike; Algorithm 3 instead validates candidate prefixes of each
  // reading's learning order against its nearest neighbors and keeps the
  // cheapest. With options.adaptive the engine maintains that machinery
  // on the stream: an arrival re-validates only the tuples whose
  // validation lists it enters, and a tuple's l is re-determined lazily
  // the next time a query needs its model — so the chosen values drift
  // as the window slides off old regimes, at per-arrival cost.
  iim::core::IimOptions aopt = opt;
  aopt.window_size = 500;
  aopt.adaptive = true;
  aopt.max_ell = 24;
  aopt.step_h = 4;
  aopt.validation_k = 5;
  auto aengine_r = iim::stream::OnlineIim::Create(readings.schema(), target,
                                                  features, aopt);
  if (!aengine_r.ok()) {
    std::fprintf(stderr, "adaptive create: %s\n",
                 aengine_r.status().ToString().c_str());
    return 1;
  }
  iim::stream::OnlineIim& adaptive = *aengine_r.value();

  // Spread of the CURRENT per-tuple l over the live window. A reading
  // reports 0 until some query has forced its sweep, so the count also
  // shows how lazy the determination really is.
  auto print_chosen_spread = [&](const char* when) {
    size_t total = adaptive.stats().ingested;
    size_t live = adaptive.size();
    std::vector<size_t> ls;
    for (uint64_t a = total - live; a < total; ++a) {
      size_t l = adaptive.ChosenEllByArrival(a);
      if (l > 0) ls.push_back(l);
    }
    std::sort(ls.begin(), ls.end());
    if (ls.empty()) {
      std::printf("  %s: no reading has a determined l yet\n", when);
      return;
    }
    std::printf("  %s: %zu/%zu readings hold a current l; min %zu / median "
                "%zu / max %zu\n",
                when, ls.size(), live, ls.front(), ls[ls.size() / 2],
                ls.back());
  };

  std::printf("\nAdaptive per-reading l (window %zu, candidates 1..%zu step "
              "%zu):\n",
              aopt.window_size, aopt.max_ell, aopt.step_h);
  for (size_t i = 0; i < readings.NumRows(); ++i) {
    iim::Status st = adaptive.Ingest(readings.Row(i));
    if (!st.ok()) {
      std::fprintf(stderr, "adaptive ingest %zu: %s\n", i,
                   st.ToString().c_str());
      return 1;
    }
    // Steady probe traffic: every served imputation re-determines l for
    // the models the preceding arrivals dirtied.
    if (i > 60 && i % 8 == 0) {
      std::vector<double> lost = readings.Row(i - 1).ToVector();
      lost[static_cast<size_t>(target)] =
          std::numeric_limits<double>::quiet_NaN();
      iim::data::RowView lost_view(lost.data(), lost.size());
      if (!adaptive.ImputeOne(lost_view).ok()) {
        std::fprintf(stderr, "adaptive impute %zu failed\n", i);
        return 1;
      }
    }
    if (i == 900) print_chosen_spread("mid-stream");
  }
  print_chosen_spread("end of stream");
  const auto& astats = adaptive.stats();
  std::printf("  maintenance: %zu sweeps solved, %zu served clean, %zu "
              "holders dirtied by arrivals, %zu readings changed their l\n",
              astats.models_solved, astats.global_fits_reused,
              astats.holders_invalidated, astats.adaptive_l_changes);

  // The adaptive guarantee: a batch Algorithm 3 on the live window agrees
  // bitwise — adaptive sweeps always restream a fresh accumulator, so
  // this holds even with down-dating on.
  iim::core::IimImputer abatch(aopt);
  iim::Status afit = abatch.Fit(adaptive.table(), target, features);
  if (!afit.ok()) {
    std::fprintf(stderr, "adaptive batch fit: %s\n",
                 afit.ToString().c_str());
    return 1;
  }
  size_t amismatches = 0;
  for (size_t i = 0; i < readings.NumRows(); i += 97) {
    std::vector<double> row = readings.Row(i).ToVector();
    row[static_cast<size_t>(target)] =
        std::numeric_limits<double>::quiet_NaN();
    iim::data::RowView view(row.data(), row.size());
    iim::Result<double> got = adaptive.ImputeOne(view);
    iim::Result<double> want = abatch.ImputeOne(view);
    if (!got.ok() || !want.ok() || got.value() != want.value())
      ++amismatches;
  }
  std::printf("Adaptive batch-refit agreement: %s\n",
              amismatches == 0
                  ? "bit-identical (per-tuple l costs no accuracy online)"
                  : "MISMATCH");
  if (amismatches != 0) return 1;

  // Act five: survive a failing disk. Act three showed the log replay;
  // this act shows the failure policy around the log. The disk "fills"
  // mid-stream — the wal.append fail point injects IoError on every
  // append — bounded retries find the fault persistent, and the engine
  // degrades: arrivals are refused with Unavailable (never half-applied)
  // while imputations keep serving off the last durable state. When the
  // disk comes back, RecoverDurability() re-syncs the store, writes a
  // covering snapshot and returns the engine to healthy.
  char ftmpl[] = "/tmp/iim_sensor_faults_XXXXXX";
  if (mkdtemp(ftmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  std::string fault_dir = std::string(ftmpl) + "/wal";
  iim::core::IimOptions fopt = opt;
  fopt.window_size = 0;
  fopt.persist_dir = fault_dir;
  fopt.snapshot_every = 400;
  fopt.wal_retry_attempts = 2;  // two bounded retries before degrading
  fopt.wal_retry_base = 0.0005;
  auto fragile_r = iim::stream::OnlineIim::Create(readings.schema(), target,
                                                  features, fopt);
  if (!fragile_r.ok()) {
    std::fprintf(stderr, "fragile create: %s\n",
                 fragile_r.status().ToString().c_str());
    return 1;
  }
  iim::stream::OnlineIim& fragile = *fragile_r.value();
  const size_t kOutageAt = 300;
  const size_t kOutageSpan = 20;
  for (size_t i = 0; i < kOutageAt; ++i) {
    iim::Status st = fragile.Ingest(readings.Row(i));
    if (!st.ok()) {
      std::fprintf(stderr, "fragile ingest %zu: %s\n", i,
                   st.ToString().c_str());
      return 1;
    }
  }
  std::printf("\nFailing disk (WAL retries %zu, then degrade): %llu readings "
              "durable, health %s\n",
              fopt.wal_retry_attempts,
              static_cast<unsigned long long>(fragile.durable_ops()),
              iim::stream::HealthStateName(fragile.Health()));

  // The disk fills: every append from here on fails.
  iim::fail::Spec disk_full;
  disk_full.code = iim::StatusCode::kIoError;
  disk_full.message = "simulated disk full";
  iim::fail::Enable("wal.append", disk_full);
  size_t refused = 0;
  for (size_t i = kOutageAt; i < kOutageAt + kOutageSpan; ++i) {
    if (!fragile.Ingest(readings.Row(i)).ok()) ++refused;
  }
  std::printf("Outage: %zu/%zu arrivals refused un-applied, health %s\n",
              refused, kOutageSpan,
              iim::stream::HealthStateName(fragile.Health()));
  // Reads ride through the outage: a lost reading is still imputed from
  // the durable prefix.
  std::vector<double> lost = readings.Row(kOutageAt - 1).ToVector();
  lost[static_cast<size_t>(target)] = std::numeric_limits<double>::quiet_NaN();
  iim::data::RowView lost_view(lost.data(), lost.size());
  iim::Result<double> served_degraded = fragile.ImputeOne(lost_view);
  if (!served_degraded.ok()) {
    std::fprintf(stderr, "degraded impute: %s\n",
                 served_degraded.status().ToString().c_str());
    return 1;
  }
  std::printf("Imputation during the outage: served %.3f (reads never "
              "degrade)\n",
              served_degraded.value());

  // The disk comes back; recovery is explicit, never a lucky retry.
  iim::fail::DisableAll();
  iim::Status healed = fragile.RecoverDurability();
  if (!healed.ok()) {
    std::fprintf(stderr, "recover durability: %s\n",
                 healed.ToString().c_str());
    return 1;
  }
  for (size_t i = kOutageAt; i < kOutageAt + kOutageSpan; ++i) {
    iim::Status st = fragile.Ingest(readings.Row(i));
    if (!st.ok()) {
      std::fprintf(stderr, "post-recovery ingest %zu: %s\n", i,
                   st.ToString().c_str());
      return 1;
    }
  }
  const auto& fstats = fragile.stats();
  std::printf("Recovered: health %s, refused readings re-ingested; %llu "
              "durable ops, %zu WAL retries, %zu refusals, %zu health "
              "transitions\n",
              iim::stream::HealthStateName(fragile.Health()),
              static_cast<unsigned long long>(fragile.durable_ops()),
              fstats.wal_retries, fstats.degraded_rejected,
              fstats.health_transitions);
  bool fault_act_ok = fragile.Health() == iim::stream::HealthState::kHealthy &&
                      refused == kOutageSpan &&
                      fragile.durable_ops() >=
                          static_cast<uint64_t>(kOutageAt + kOutageSpan) &&
                      fstats.health_transitions == 2;
  auto fault_leftover = iim::stream::persist::ListDir(fault_dir);
  if (fault_leftover.ok()) {
    for (const std::string& name : fault_leftover.value()) {
      (void)iim::stream::persist::RemoveFile(fault_dir + "/" + name);
    }
  }
  ::rmdir(fault_dir.c_str());
  ::rmdir(ftmpl);
  if (!fault_act_ok) {
    std::fprintf(stderr, "fault act left unexpected state\n");
    return 1;
  }

  // Act six: the masking-one-out quality monitor (see the header
  // comment). Four laps of the stream through a 500-reading window, 1%
  // holdout trickle, champion/challenger auto-routing; the power channel
  // recalibrates (y -> y/2 + 3) halfway through the deployment.
  iim::core::IimOptions mopt = opt;
  mopt.window_size = 500;
  mopt.moo_sample_rate = 0.01;
  mopt.quality_routing = iim::core::IimOptions::QualityRouting::kAutoRoute;
  auto monitored_r = iim::stream::OnlineIim::Create(readings.schema(), target,
                                                    features, mopt);
  if (!monitored_r.ok()) {
    std::fprintf(stderr, "monitored create: %s\n",
                 monitored_r.status().ToString().c_str());
    return 1;
  }
  const size_t kLaps = 4;
  std::vector<std::future<iim::Result<double>>> qpending;
  iim::stream::ImputationService::Stats qstats;
  {
    iim::stream::ImputationService::Options sopt;
    sopt.max_batch = 32;
    iim::stream::ImputationService qservice(monitored_r.value().get(), sopt);
    for (size_t lap = 0; lap < kLaps; ++lap) {
      for (size_t i = 0; i < readings.NumRows(); ++i) {
        std::vector<double> row = readings.Row(i).ToVector();
        if (lap >= kLaps / 2) {
          row[static_cast<size_t>(target)] =
              0.5 * row[static_cast<size_t>(target)] + 3.0;
        }
        if (i > 60 && (i / 4) % 10 == 0) {
          row[static_cast<size_t>(target)] =
              std::numeric_limits<double>::quiet_NaN();
          qpending.push_back(qservice.SubmitImpute(std::move(row)));
        } else {
          qservice.SubmitIngest(std::move(row));
        }
      }
      // Quiesce between laps: a lap submits more than the service's
      // bounded queue admits at once, and the backpressure shed is
      // load-shedding by design, not a flow-control channel.
      qservice.Drain();
    }
    qstats = qservice.stats();
  }
  for (size_t i = 0; i < qpending.size(); ++i) {
    iim::Result<double> v = qpending[i].get();
    if (!v.ok()) {
      std::fprintf(stderr, "monitored impute %zu: %s\n", i,
                   v.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("\nQuality monitor (1%% masking-one-out holdouts, "
              "auto-route): %zu probes, %zu skipped; %zu routed + %zu "
              "ensemble serves, %zu champion switches\n",
              qstats.moo_probes, qstats.moo_skipped, qstats.routed_serves,
              qstats.ensemble_serves, qstats.champion_switches);
  std::printf("Held-out absolute error per channel (decayed rms, then the "
              "recent-error percentiles):\n");
  for (size_t c = 0; c < qstats.quality.size(); ++c) {
    const iim::stream::QualityColumnStats& col = qstats.quality[c];
    const std::string& name =
        c < features.size()
            ? readings.schema().name(static_cast<size_t>(features[c]))
            : readings.schema().name(static_cast<size_t>(target));
    std::printf("  %s: %llu holdouts, champion %s\n", name.c_str(),
                static_cast<unsigned long long>(col.holdouts),
                iim::stream::QualityMethodName(col.champion));
    for (int m = 0; m < iim::stream::kQualityMethods; ++m) {
      size_t mi = static_cast<size_t>(m);
      if (col.samples[mi] == 0) continue;
      std::printf("    %-4s n=%-3llu rms %7.3f   abs err p50 %7.3f / p99 "
                  "%7.3f / max %7.3f\n",
                  iim::stream::QualityMethodName(m),
                  static_cast<unsigned long long>(col.samples[mi]),
                  col.ewma_rms[mi], col.abs_error[mi].p50,
                  col.abs_error[mi].p99, col.abs_error[mi].max);
    }
  }
  if (qstats.moo_probes == 0 ||
      qstats.quality.size() != features.size() + 1) {
    std::fprintf(stderr, "quality act left unexpected state\n");
    return 1;
  }
  return 0;
}
