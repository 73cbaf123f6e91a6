// Streaming engine bench: per-arrival online update vs. full relearn,
// sliding-window eviction vs. relearning the window, and — the tail-
// latency story — per-arrival ingest percentiles with the KD-tree
// rebuild in-lock (baseline) vs. on the background builder.
//
// Phase 0 ingests the same n-tuple stream twice and records EVERY
// per-arrival ingest latency, including the arrivals that trigger a
// KD-tree rebuild: once with background_rebuild off (the tree is built
// inside Append under the writer lock — the pre-overhaul behavior) and
// once with the double-buffered background rebuild. Means hide the
// rebuild spikes entirely (they are ~15 arrivals out of 10k), so the
// comparison is made at p50/p99/p99.9/max.
//
// Phase 1 measures the cost of serving one more arrival online — Ingest
// (neighbor-order maintenance) plus an imputation that forces the lazy
// model solves the arrival dirtied — against the batch alternative:
// refit IimImputer from scratch on the same snapshot and impute once.
//
// Phase 2 does the same for retirement at TWO window sizes (n and n/2):
// engines with window_size = w stream further arrivals (each
// auto-evicting the oldest tuple), then explicit Evict calls are timed
// in isolation. The reverse-neighbor postings make eviction O(l), so the
// per-eviction cost must NOT scale with the window — the two-window
// ratio in the JSON is the evidence, next to the brute-tail rows each
// eviction's backfill queries scanned at either window. The batch
// alternative (relearning the n-tuple window) is timed at w = n.
//
// Phase 2 also carries an eviction-scaling cell: engines over the same
// n-row window at l = 10, 50 and 200, and with adaptive l (max_ell 100,
// step_h 2 — the paper benches' budget), each time the same oldest-first
// Evict calls after warming the models around the departing tuples. An
// eviction repairs about l orders, so the cell reports p50/p99, repairs
// per eviction and p50 per unit of l: the cost of each repair.
//
// Phase 3 measures the durability tax: the same n-row ingest with the
// write-ahead log and periodic background snapshots on, compared at
// p50/p99 against the persistence-off profile (the checkpoint "pause" is
// only the in-memory serialize — the file write is backgrounded), plus
// recovery wall-clock cells at three log-tail lengths (~n/10, ~n/2, n)
// showing recovery scales with the tail, not the total history.
//
// Phase 4 meters the fail-point tax. The WAL append/fsync fail points
// ride the per-arrival durable path and are compiled into every build;
// the contract (common/failpoint.h) is that inactive points are free.
// One cell times the disarmed Inject call itself (a relaxed atomic load
// and a predictable branch); the other re-runs the phase-3 durable
// ingest with the hot-path points ARMED at probability 0 — every
// arrival then pays the full registry slow path without a single fire,
// the worst case for points that never act — and the p50 must stay
// within noise of the disarmed profile. The armed point's hit counter
// doubles as coverage proof: a gate over a path the points are not on
// would be vacuous.
//
// Phase 5 meters the masking-one-out monitoring tax: the same n-row
// ingest with moo_sample_rate at the documented 1% deployment trickle,
// against a fresh monitoring-off engine fed side by side with it (blocks
// of 64 arrivals, alternating which engine goes first), so host weather
// lands on both profiles instead of tilting the ratio. At 1% the
// median arrival does no holdout work at all, so the ingest p50 must
// stay within 1.05x of the disabled engine (with a small absolute
// floor for machines where both p50s are microseconds of scheduling
// noise); the probe counter doubles as coverage proof.
//
// Phase 0 also carries the admission-bound story: a third ingest profile
// with options.admission_bound off (every arrival scans every live
// order — the pre-overhaul O(n) insertion test) sits next to the pruned
// default, and the steady-state arrivals of phase 1 are metered for the
// orders they actually visit. Two gated cells ride on this: the mean
// affected-orders-per-arrival must stay within 5% of the live count
// (the sublinear-ingest claim), and a dedicated staged-compaction cell
// asserts the worst writer-lock hold inside Compact stays within the
// Append hold gate — the O(n*d) survivor slide runs off the lock now,
// so the lock pays only the O(1) buffer swap.
//
// Tail percentiles are only as honest as their sample counts: the
// online and eviction phases draw at least 1000 samples each regardless
// of the [arrivals] argument (which only sizes the probe pool), and a
// shape check FAILS the run if any p99.9 cell was computed from fewer
// than 1000 samples — the regression that motivated it shipped a JSON
// whose online p99 equaled its max because only 50 arrivals were timed.
//
// The acceptance bars at n = 10k: >= 10x per-arrival advantage,
// per-eviction >= 10x cheaper than a window relearn, (whenever the
// baseline actually rebuilt in-lock) a smaller worst-case ingest with
// the background builder, ingest p99 with checkpointing within 2x of
// checkpointing off, inactive fail points free (disarmed Inject <= 100
// ns/call, armed-never-firing durable ingest p50 within 1.5x of
// disarmed), and the 1% masking-one-out trickle keeping ingest p50
// within 1.05x of monitoring off.
// Results are written as JSON for BENCH_streaming.json.
//
//   ./bench_streaming [n] [arrivals] [out.json]
//
// Exit status: 0 when the shape checks hold, 1 otherwise.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "stream/online_iim.h"
#include "stream/persist/io.h"

namespace {

double Mean(const std::vector<double>& xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return xs.empty() ? 0.0 : acc / static_cast<double>(xs.size());
}

struct IngestProfile {
  std::unique_ptr<iim::stream::OnlineIim> engine;
  std::vector<double> seconds;  // one entry per arrival
  double total_seconds = 0.0;
};

// An empty engine, ready to ingest `count` timed arrivals.
IngestProfile CreateProfile(const iim::data::Table& data, int target,
                            const std::vector<int>& features,
                            const iim::core::IimOptions& opt, size_t count) {
  IngestProfile out;
  auto engine =
      iim::stream::OnlineIim::Create(data.schema(), target, features, opt);
  if (!engine.ok()) {
    std::fprintf(stderr, "create: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }
  out.engine = std::move(engine.value());
  out.seconds.reserve(count);
  return out;
}

// Ingests rows [begin, end) of `data` into `p`, timing every arrival.
void IngestRows(const iim::data::Table& data, size_t begin, size_t end,
                IngestProfile* p) {
  iim::Stopwatch timer;
  for (size_t i = begin; i < end; ++i) {
    timer.Restart();
    iim::Status st = p->engine->Ingest(data.Row(i));
    p->seconds.push_back(timer.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "ingest %zu: %s\n", i, st.ToString().c_str());
      std::exit(1);
    }
  }
}

// Ingests rows [0, count) of `data`, timing every arrival.
IngestProfile BuildEngine(const iim::data::Table& data, int target,
                          const std::vector<int>& features,
                          const iim::core::IimOptions& opt, size_t count) {
  IngestProfile out = CreateProfile(data, target, features, opt, count);
  iim::Stopwatch total;
  IngestRows(data, 0, count, &out);
  out.total_seconds = total.ElapsedSeconds();
  return out;
}

// Ingests rows [0, count) into two engines side by side: blocks of 64
// arrivals alternate between them, and so does which engine takes a
// block first, so both profiles sample the same host weather.
void BuildSideBySide(const iim::data::Table& data, size_t count,
                     IngestProfile* a, IngestProfile* b) {
  const size_t kBlock = 64;
  for (size_t begin = 0; begin < count; begin += kBlock) {
    size_t end = std::min(begin + kBlock, count);
    bool a_first = (begin / kBlock) % 2 == 0;
    IngestRows(data, begin, end, a_first ? a : b);
    IngestRows(data, begin, end, a_first ? b : a);
  }
}

// One row of the eviction-scaling cell.
struct EvictScalingCell {
  const char* config = "";
  size_t ell = 0;  // order length: l, or max_ell in adaptive mode
  size_t samples = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double backfills_per_evict = 0.0;
};

// Ingests rows [0, n) into an engine with window n, imputes the first
// `reps` rows with their target masked (so the orders around them hold
// folded models, as in a serving deployment), then times `reps`
// oldest-first Evict calls.
EvictScalingCell MeasureEvictScaling(const iim::data::Table& data, int target,
                                     const std::vector<int>& features,
                                     iim::core::IimOptions opt, size_t n,
                                     size_t reps, const char* config) {
  opt.window_size = n;
  IngestProfile p = BuildEngine(data, target, features, opt, n);
  iim::stream::OnlineIim& engine = *p.engine;
  std::vector<std::vector<double>> warm(reps);
  std::vector<iim::data::RowView> warm_rows;
  for (size_t e = 0; e < reps; ++e) {
    warm[e] = data.Row(e).ToVector();
    warm[e][static_cast<size_t>(target)] =
        std::numeric_limits<double>::quiet_NaN();
    warm_rows.emplace_back(warm[e].data(), warm[e].size());
  }
  for (const iim::Result<double>& v : engine.ImputeBatch(warm_rows)) {
    if (!v.ok()) {
      std::fprintf(stderr, "scaling warm impute: %s\n",
                   v.status().ToString().c_str());
      std::exit(1);
    }
  }
  size_t backfills_before = engine.stats().backfills;
  std::vector<double> seconds;
  seconds.reserve(reps);
  iim::Stopwatch timer;
  for (size_t e = 0; e < reps; ++e) {
    timer.Restart();
    iim::Status st = engine.Evict(e);
    seconds.push_back(timer.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "scaling evict: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  EvictScalingCell cell;
  cell.config = config;
  cell.ell = opt.adaptive ? opt.max_ell : opt.ell;
  cell.samples = reps;
  iim::LatencySummary lat = iim::Summarize(seconds);
  cell.p50_seconds = lat.p50;
  cell.p99_seconds = lat.p99;
  cell.backfills_per_evict =
      static_cast<double>(engine.stats().backfills - backfills_before) /
      static_cast<double>(std::max<size_t>(reps, 1));
  return cell;
}

void PrintLatency(const char* label, const std::vector<double>& seconds) {
  iim::LatencySummary s = iim::Summarize(seconds);
  std::printf("%-34s p50 %9.4f  p99 %9.4f  p99.9 %9.4f  max %9.4f ms\n",
              label, s.p50 * 1e3, s.p99 * 1e3,
              iim::Percentile(seconds, 99.9) * 1e3, s.max * 1e3);
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/iim_bench_persist_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return tmpl;
}

// Removes the snapshot/log files a StateStore left in `dir`, then the
// directory itself.
void WipeStoreDir(const std::string& dir) {
  auto names = iim::stream::persist::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      (void)iim::stream::persist::RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 10000;
  size_t arrivals = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 50;
  const char* out_path = argc > 3 ? argv[3] : "BENCH_streaming.json";
  // Full refits are expensive by design; a handful of repetitions is
  // plenty for a mean.
  size_t refits = n >= 5000 ? 3 : 5;
  // Percentile sample floors. [arrivals] sizes only the probe pool; the
  // timed online and eviction phases draw at least 1000 samples each so
  // the p99/p99.9 cells are real percentiles, not the sample max.
  size_t online_reps = std::max<size_t>(arrivals, 1000);
  size_t evict_reps = std::min<size_t>(online_reps, n / 2 > 200 ? n / 2 - 200
                                                                : n / 4);

  iim::datasets::DatasetSpec spec;
  spec.name = "stream-bench";
  spec.n = n + online_reps;
  spec.m = 5;
  spec.regimes = 6;
  spec.exogenous = 2;
  spec.divergence = 0.8;
  spec.noise = 0.1;
  auto gen = iim::datasets::Generate(spec, /*seed=*/4242);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n", gen.status().ToString().c_str());
    return 1;
  }
  const iim::data::Table& data = gen.value().table;
  const int target = 4;
  const std::vector<int> features = {0, 1, 2, 3};

  iim::core::IimOptions opt;
  opt.k = 5;
  opt.ell = 10;

  // Phase 0: ingest tail latency, in-lock rebuild vs. background rebuild.
  iim::core::IimOptions inlock_opt = opt;
  inlock_opt.background_rebuild = false;
  IngestProfile inlock = BuildEngine(data, target, features, inlock_opt, n);
  iim::stream::DynamicIndex::Stats inlock_istats =
      inlock.engine->index().stats();
  inlock.engine.reset();  // only its latency profile is needed

  IngestProfile built = BuildEngine(data, target, features, opt, n);
  iim::stream::OnlineIim& online = *built.engine;
  online.WaitForIndexRebuild();  // flush before phase 1 reads

  // The pre-overhaul insertion test: every arrival scans every live
  // learning order. Same engine, same stream, admission bound off — the
  // profile the pruned default is compared against.
  iim::core::IimOptions fullscan_opt = opt;
  fullscan_opt.admission_bound = false;
  IngestProfile fullscan = BuildEngine(data, target, features, fullscan_opt, n);
  fullscan.engine.reset();  // only its latency profile is needed

  iim::LatencySummary ingest_inlock = iim::Summarize(inlock.seconds);
  double ingest_inlock_p999 = iim::Percentile(inlock.seconds, 99.9);
  iim::LatencySummary ingest_bg = iim::Summarize(built.seconds);
  double ingest_bg_p999 = iim::Percentile(built.seconds, 99.9);
  iim::LatencySummary ingest_fullscan = iim::Summarize(fullscan.seconds);
  double admission_speedup_p50 =
      ingest_bg.p50 > 0.0 ? ingest_fullscan.p50 / ingest_bg.p50 : 0.0;

  // A recurring probe whose imputation forces the engine to surface any
  // model work an arrival left pending (the lazy solves are part of the
  // per-arrival cost, not hidden from it).
  std::vector<double> probe_row = data.Row(n).ToVector();
  probe_row[static_cast<size_t>(target)] =
      std::numeric_limits<double>::quiet_NaN();
  iim::data::RowView probe(probe_row.data(), probe_row.size());

  // Phase 1: ingest one arrival + impute, per arrival, online. The
  // steady-state arrivals are also metered for admission-bound work:
  // counter deltas over this phase give the mean orders an arrival
  // actually visits against the live count it would have scanned.
  iim::stream::OnlineIim::Stats admission_before = online.stats();
  iim::Stopwatch timer;
  std::vector<double> online_seconds;
  online_seconds.reserve(online_reps);
  for (size_t a = 0; a < online_reps; ++a) {
    timer.Restart();
    iim::Status st = online.Ingest(data.Row(n + a));
    if (!st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return 1;
    }
    iim::Result<double> v = online.ImputeOne(probe);
    if (!v.ok()) {
      std::fprintf(stderr, "impute: %s\n", v.status().ToString().c_str());
      return 1;
    }
    online_seconds.push_back(timer.ElapsedSeconds());
  }

  // The sublinear-ingest gate: mean orders visited per steady-state
  // arrival vs the live orders a full scan would touch. 5% is a loose
  // ceiling — the affected set is the orders whose worst kept distance
  // the arrival beats, typically a few dozen at n = 10k.
  iim::stream::OnlineIim::Stats admission_after = online.stats();
  double mean_orders_scanned =
      static_cast<double>(admission_after.orders_scanned -
                          admission_before.orders_scanned) /
      static_cast<double>(online_reps);
  double mean_orders_admitted =
      static_cast<double>(admission_after.orders_admitted -
                          admission_before.orders_admitted) /
      static_cast<double>(online_reps);
  double live_at_end = static_cast<double>(online.size());
  double affected_fraction =
      live_at_end > 0.0 ? mean_orders_scanned / live_at_end : 0.0;
  bool affected_ok = live_at_end < 1000.0 || affected_fraction <= 0.05;

  // Batch: the same arrival served by a from-scratch relearn on the final
  // snapshot (what a non-streaming deployment would have to do).
  std::vector<double> relearn_seconds;
  relearn_seconds.reserve(refits);
  double check_online = 0.0, check_batch = 0.0;
  for (size_t r = 0; r < refits; ++r) {
    timer.Restart();
    iim::core::IimImputer batch(opt);
    iim::Status st = batch.Fit(online.table(), target, features);
    if (!st.ok()) {
      std::fprintf(stderr, "fit: %s\n", st.ToString().c_str());
      return 1;
    }
    iim::Result<double> v = batch.ImputeOne(probe);
    if (!v.ok()) {
      std::fprintf(stderr, "batch impute: %s\n",
                   v.status().ToString().c_str());
      return 1;
    }
    relearn_seconds.push_back(timer.ElapsedSeconds());
    check_batch = v.value();
  }
  {
    iim::Result<double> v = online.ImputeOne(probe);
    if (!v.ok()) return 1;
    check_online = v.value();
  }

  double online_mean = Mean(online_seconds);
  iim::LatencySummary online_lat = iim::Summarize(online_seconds);
  double relearn_mean = Mean(relearn_seconds);
  double speedup = online_mean > 0.0 ? relearn_mean / online_mean : 0.0;
  bool identical = check_online == check_batch;
  bool fast_enough = speedup >= 10.0;

  // Phase 2: sliding windows at w = n and w = n/2. Engines capped at
  // window_size = w stream `online_reps` past the cap (each ingest retiring
  // the oldest tuple: learning-order repair via the reverse-neighbor
  // postings + reset of every cut fold + index tombstone). Explicit
  // Evict calls are then timed in isolation; comparing the two windows
  // shows whether eviction cost scales with the window.
  auto run_window = [&](size_t w, std::vector<double>* arrival_seconds,
                        std::vector<double>* evict_seconds,
                        double* evict_tail_rows)
      -> std::unique_ptr<iim::stream::OnlineIim> {
    iim::core::IimOptions wopt = opt;
    wopt.window_size = w;
    IngestProfile wp = BuildEngine(data, target, features, wopt, w);
    iim::stream::OnlineIim& windowed = *wp.engine;
    iim::Stopwatch wtimer;
    for (size_t a = 0; a < online_reps; ++a) {
      wtimer.Restart();
      iim::Status st = windowed.Ingest(data.Row(w + a));
      if (!st.ok()) {
        std::fprintf(stderr, "windowed ingest: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      iim::Result<double> v = windowed.ImputeOne(probe);
      if (!v.ok()) {
        std::fprintf(stderr, "windowed impute: %s\n",
                     v.status().ToString().c_str());
        std::exit(1);
      }
      arrival_seconds->push_back(wtimer.ElapsedSeconds());
    }
    // First solve models around each soon-to-be-evicted tuple (a live
    // deployment serves imputations continuously), so the timed
    // evictions cut real folds rather than only unfolded lazy state.
    for (size_t e = 0; e < evict_reps; ++e) {
      std::vector<double> warm_row = data.Row(online_reps + e).ToVector();
      warm_row[static_cast<size_t>(target)] =
          std::numeric_limits<double>::quiet_NaN();
      iim::data::RowView warm(warm_row.data(), warm_row.size());
      iim::Result<double> v = windowed.ImputeOne(warm);
      if (!v.ok()) {
        std::fprintf(stderr, "warm impute: %s\n",
                     v.status().ToString().c_str());
        std::exit(1);
      }
    }
    uint64_t scanned_before = windowed.index().stats().tail_rows_scanned;
    for (size_t e = 0; e < evict_reps; ++e) {
      wtimer.Restart();
      iim::Status st = windowed.Evict(online_reps + e);
      if (!st.ok()) {
        std::fprintf(stderr, "evict: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      evict_seconds->push_back(wtimer.ElapsedSeconds());
    }
    *evict_tail_rows =
        static_cast<double>(windowed.index().stats().tail_rows_scanned -
                            scanned_before) /
        static_cast<double>(std::max<size_t>(evict_reps, 1));
    return std::move(wp.engine);
  };

  std::vector<double> windowed_seconds, evict_seconds;
  double evict_tail_rows = 0.0, half_evict_tail_rows = 0.0;
  std::unique_ptr<iim::stream::OnlineIim> wengine =
      run_window(n, &windowed_seconds, &evict_seconds, &evict_tail_rows);
  iim::stream::OnlineIim& windowed = *wengine;
  std::vector<double> half_arrival_seconds, half_evict_seconds;
  size_t n_half = n / 2;
  std::unique_ptr<iim::stream::OnlineIim> hengine =
      run_window(n_half, &half_arrival_seconds, &half_evict_seconds,
                 &half_evict_tail_rows);

  // Batch alternative: relearn the live window from scratch (at w = n).
  std::vector<double> window_relearn_seconds;
  window_relearn_seconds.reserve(refits);
  double check_windowed_batch = 0.0;
  iim::core::IimOptions wopt = opt;
  wopt.window_size = n;
  for (size_t r = 0; r < refits; ++r) {
    timer.Restart();
    iim::core::IimImputer wbatch(wopt);
    iim::Status st = wbatch.Fit(windowed.table(), target, features);
    if (!st.ok()) {
      std::fprintf(stderr, "window fit: %s\n", st.ToString().c_str());
      return 1;
    }
    iim::Result<double> v = wbatch.ImputeOne(probe);
    if (!v.ok()) {
      std::fprintf(stderr, "window batch impute: %s\n",
                   v.status().ToString().c_str());
      return 1;
    }
    window_relearn_seconds.push_back(timer.ElapsedSeconds());
    check_windowed_batch = v.value();
  }
  double check_windowed = 0.0;
  {
    iim::Result<double> v = windowed.ImputeOne(probe);
    if (!v.ok()) return 1;
    check_windowed = v.value();
  }

  // Eviction cost as l grows (same window, same data, same evictions).
  size_t scaling_reps = std::min<size_t>(400, n / 4);
  std::vector<EvictScalingCell> scaling;
  for (size_t ell : {size_t{10}, size_t{50}, size_t{200}}) {
    iim::core::IimOptions sopt = opt;
    sopt.ell = ell;
    const char* name = ell == 10 ? "ell10" : ell == 50 ? "ell50" : "ell200";
    scaling.push_back(MeasureEvictScaling(data, target, features, sopt, n,
                                          scaling_reps, name));
  }
  {
    iim::core::IimOptions sopt = opt;
    sopt.adaptive = true;
    sopt.max_ell = 100;
    sopt.step_h = 2;
    scaling.push_back(MeasureEvictScaling(data, target, features, sopt, n,
                                          scaling_reps,
                                          "adaptive_max_ell100_step2"));
  }

  double windowed_mean = Mean(windowed_seconds);
  iim::LatencySummary windowed_lat = iim::Summarize(windowed_seconds);
  double evict_mean = Mean(evict_seconds);
  iim::LatencySummary evict_lat = iim::Summarize(evict_seconds);
  double half_evict_mean = Mean(half_evict_seconds);
  double evict_window_ratio =
      half_evict_mean > 0.0 ? evict_mean / half_evict_mean : 0.0;
  double window_relearn_mean = Mean(window_relearn_seconds);
  double evict_speedup =
      evict_mean > 0.0 ? window_relearn_mean / evict_mean : 0.0;
  // Every cut fold restreams in the batch fit's summation order, so the
  // windowed engine matches the batch refit bit for bit.
  bool windowed_matches = check_windowed == check_windowed_batch;
  bool evict_fast_enough = evict_speedup >= 10.0;
  iim::stream::DynamicIndex::Stats istats = online.index().stats();
  // The ingest CRITICAL SECTION must shrink once the baseline actually
  // rebuilt under the writer lock (below the KD-tree threshold neither
  // mode builds trees and the comparison is noise). The gate is the
  // worst writer-lock hold inside Append — the quantity the background
  // rebuild bounds by design — because wall-clock per-arrival
  // percentiles conflate it with CPU contention: on a single-core
  // machine the builder thread competes for the same core and the
  // wall-clock spike merely moves, while the lock hold (what blocks
  // concurrent queries and producers) provably drops from O(n log n) to
  // O(1).
  bool tail_check_applies = inlock_istats.rebuilds >= 1;
  bool tail_improved =
      !tail_check_applies ||
      istats.max_append_hold_seconds < inlock_istats.max_append_hold_seconds;

  // Staged-compaction hold cell: a dedicated index carrying n rows drops
  // a third of them and compacts once. The O(n*d) survivor slide is
  // staged under a reader lock, so the writer lock pays only the buffer
  // swap + rebuild launch — gated against the Append hold (the bound the
  // background rebuild already enforces), with a small absolute floor so
  // sub-millisecond scheduling noise cannot flake the gate.
  double compact_hold_seconds = 0.0;
  size_t compact_survivors = 0;
  {
    iim::stream::DynamicIndex cindex(features);
    for (size_t i = 0; i < n; ++i) cindex.Append(data.Row(i));
    cindex.WaitForRebuild();
    for (size_t i = 0; i < n; i += 3) cindex.Remove(i);
    (void)cindex.Compact();
    iim::stream::DynamicIndex::Stats cstats = cindex.stats();
    compact_hold_seconds = cstats.max_compact_hold_seconds;
    compact_survivors = cstats.live;
    cindex.WaitForRebuild();
  }
  const double kCompactHoldFloorSeconds = 0.0005;  // 0.5 ms
  bool compact_hold_ok =
      compact_hold_seconds <=
      std::max(istats.max_append_hold_seconds, kCompactHoldFloorSeconds);

  // Phase 3: checkpoint pauses and recovery. The same n-row stream is
  // ingested with durability on — every arrival appended to the
  // write-ahead log, a snapshot every n/10 ops — and the per-arrival
  // percentiles are compared against the persistence-off background-
  // rebuild profile from phase 0. Only the in-memory serialize runs on
  // the ingest thread (the file write is backgrounded), so the p99 with
  // checkpointing on must stay within 2x of the p99 with it off (a small
  // absolute floor absorbs machines where both p99s are a few
  // microseconds and the ratio is pure noise). Recovery wall-clock is
  // then measured against the log-tail length: stores checkpointed at
  // different cadences leave tails of ~n, ~n/2 and ~n/10 records, and
  // recovery = newest snapshot restore + tail replay, so the wall-clock
  // must follow the tail, not the total op count.
  size_t snap_every = std::max<size_t>(1, n / 10);
  std::string persist_root = MakeTempDir();

  struct RecoveryCell {
    size_t snapshot_every = 0;
    uint64_t log_tail_ops = 0;
    size_t snapshots_loaded = 0;
    double recovery_seconds = 0.0;
  };
  std::vector<RecoveryCell> recovery_cells;

  iim::core::IimOptions popt = opt;
  popt.persist_dir = persist_root + "/every-" + std::to_string(snap_every);
  popt.snapshot_every = snap_every;
  IngestProfile persisted = BuildEngine(data, target, features, popt, n);
  iim::Status flush_st = persisted.engine->FlushPersistence();
  if (!flush_st.ok()) {
    std::fprintf(stderr, "flush: %s\n", flush_st.ToString().c_str());
    return 1;
  }
  iim::stream::OnlineIim::Stats persist_stats = persisted.engine->stats();
  persisted.engine.reset();  // "crash": only the files survive

  WipeStoreDir(popt.persist_dir);

  iim::LatencySummary ingest_persist = iim::Summarize(persisted.seconds);
  double ingest_persist_p999 = iim::Percentile(persisted.seconds, 99.9);
  const double kCheckpointFloorSeconds = 0.00025;  // 0.25 ms
  bool checkpoint_ok =
      ingest_persist.p99 <=
      std::max(2.0 * ingest_bg.p99, kCheckpointFloorSeconds);

  // Recovery cells at three cadences. The +1 offsets keep the cadence
  // from dividing n exactly — a snapshot landing on the very last op
  // would leave a zero-length tail and say nothing about replay cost.
  std::vector<size_t> cadences = {std::max<size_t>(1, n / 10) + 1,
                                  std::max<size_t>(1, n / 2) + 1, 0};
  for (size_t cadence : cadences) {
    iim::core::IimOptions ropt = opt;
    ropt.persist_dir =
        persist_root + "/every-" + std::to_string(cadence);
    ropt.snapshot_every = cadence;
    {
      IngestProfile rp = BuildEngine(data, target, features, ropt, n);
      iim::Status st = rp.engine->FlushPersistence();
      if (!st.ok()) {
        std::fprintf(stderr, "flush: %s\n", st.ToString().c_str());
        return 1;
      }
      rp.engine.reset();
    }
    timer.Restart();
    auto recovered =
        iim::stream::OnlineIim::Create(data.schema(), target, features, ropt);
    double recovery_seconds = timer.ElapsedSeconds();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    RecoveryCell cell;
    cell.snapshot_every = cadence;
    cell.log_tail_ops = recovered.value()->stats().log_records_replayed;
    cell.snapshots_loaded = recovered.value()->stats().snapshots_loaded;
    cell.recovery_seconds = recovery_seconds;
    if (recovered.value()->size() != n ||
        recovered.value()->durable_ops() != n) {
      std::fprintf(stderr, "recovery lost state: size %zu durable %llu\n",
                   recovered.value()->size(),
                   static_cast<unsigned long long>(
                       recovered.value()->durable_ops()));
      return 1;
    }
    recovered.value().reset();
    recovery_cells.push_back(cell);
    WipeStoreDir(ropt.persist_dir);
  }
  ::rmdir(persist_root.c_str());

  // Phase 4: the fail-point tax (see the header comment). Disarmed cell
  // first: a tight loop over Inject on a never-armed name. The !ok()
  // branch keeps the compiler from discarding the call.
  iim::fail::DisableAll();
  double failpoint_disarmed_ns = 0.0;
  {
    const size_t kCalls = 2000000;
    timer.Restart();
    for (size_t c = 0; c < kCalls; ++c) {
      iim::Status st = iim::fail::Inject("bench.disarmed");
      if (!st.ok()) return 1;
    }
    failpoint_disarmed_ns =
        timer.ElapsedSeconds() / static_cast<double>(kCalls) * 1e9;
  }

  // Armed-never-firing cell: the phase-3 durable ingest again, with the
  // two points on its per-arrival path armed at probability 0. Every
  // append/fsync now takes the registry slow path (mutex + lookup +
  // trigger evaluation) and returns OK — the cost a deployment pays for
  // leaving instrumentation armed but quiet.
  iim::fail::Spec never_fires;
  never_fires.probability = 0.0;
  iim::fail::Enable("wal.append", never_fires);
  iim::fail::Enable("wal.fsync", never_fires);
  std::string armed_root = MakeTempDir();
  iim::core::IimOptions aopt = opt;
  aopt.persist_dir = armed_root + "/armed";
  aopt.snapshot_every = snap_every;
  IngestProfile armed = BuildEngine(data, target, features, aopt, n);
  iim::Status armed_flush = armed.engine->FlushPersistence();
  if (!armed_flush.ok()) {
    std::fprintf(stderr, "armed flush: %s\n", armed_flush.ToString().c_str());
    return 1;
  }
  armed.engine.reset();
  WipeStoreDir(aopt.persist_dir);
  ::rmdir(armed_root.c_str());
  iim::fail::PointStats append_point = iim::fail::GetStats("wal.append");
  iim::fail::DisableAll();

  iim::LatencySummary ingest_armed = iim::Summarize(armed.seconds);
  double failpoint_overhead_p50 =
      ingest_persist.p50 > 0.0 ? ingest_armed.p50 / ingest_persist.p50 : 0.0;
  // 100 ns is ~50x the measured disarmed cost — the gate catches a
  // registry lookup or lock leaking onto the disarmed path, not cache
  // weather. The p50 slack likewise carries a small absolute floor for
  // machines where both p50s are a few microseconds.
  const double kFailpointFloorSeconds = 0.00001;  // 10 us
  bool failpoint_covered =
      append_point.hits >= static_cast<uint64_t>(n) && append_point.fires == 0;
  bool failpoint_ok =
      failpoint_disarmed_ns <= 100.0 && failpoint_covered &&
      ingest_armed.p50 <= std::max(1.5 * ingest_persist.p50,
                                   ingest_persist.p50 +
                                       kFailpointFloorSeconds);

  // Phase 5: the masking-one-out monitoring tax (see the header
  // comment). A fresh pair — monitoring off and the 1% holdout trickle —
  // ingests the identical stream side by side.
  iim::core::IimOptions moo_opt = opt;
  moo_opt.moo_sample_rate = 0.01;
  IngestProfile moo_off = CreateProfile(data, target, features, opt, n);
  IngestProfile moo_on = CreateProfile(data, target, features, moo_opt, n);
  BuildSideBySide(data, n, &moo_off, &moo_on);
  iim::stream::OnlineIim::Stats moo_stats = moo_on.engine->stats();
  moo_off.engine.reset();
  moo_on.engine.reset();
  iim::LatencySummary ingest_moo_off = iim::Summarize(moo_off.seconds);
  iim::LatencySummary ingest_moo_on = iim::Summarize(moo_on.seconds);
  double moo_overhead_p50 =
      ingest_moo_off.p50 > 0.0 ? ingest_moo_on.p50 / ingest_moo_off.p50 : 0.0;
  // The p50 gate carries the same small absolute floor as the
  // fail-point gate: on machines where both p50s sit at a few
  // microseconds, a 1.05x ratio is scheduling weather, not a tax. The
  // probe counter proves the trickle actually ran — a gate over an
  // engine that never sampled would be vacuous.
  const double kMooFloorSeconds = 0.00001;  // 10 us
  bool moo_covered = moo_stats.moo_probes > 0;
  bool moo_ok =
      moo_covered &&
      ingest_moo_on.p50 <= std::max(1.05 * ingest_moo_off.p50,
                                    ingest_moo_off.p50 + kMooFloorSeconds);

  const auto& stats = online.stats();
  const auto& wstats = windowed.stats();
  iim::stream::DynamicIndex::Stats wistats = windowed.index().stats();
  const auto& hstats = hengine->stats();

  // Every p99.9 cell in the JSON must rest on at least 1000 samples —
  // with fewer, nearest-rank p99 and p99.9 collapse onto the max and the
  // tail story is fiction.
  const size_t kMinTailSamples = 1000;
  bool samples_ok = inlock.seconds.size() >= kMinTailSamples &&
                    built.seconds.size() >= kMinTailSamples &&
                    fullscan.seconds.size() >= kMinTailSamples &&
                    online_seconds.size() >= kMinTailSamples &&
                    windowed_seconds.size() >= kMinTailSamples &&
                    evict_seconds.size() >= kMinTailSamples &&
                    half_evict_seconds.size() >= kMinTailSamples &&
                    persisted.seconds.size() >= kMinTailSamples &&
                    armed.seconds.size() >= kMinTailSamples &&
                    moo_off.seconds.size() >= kMinTailSamples &&
                    moo_on.seconds.size() >= kMinTailSamples;

  std::printf("n=%zu arrivals=%zu (initial build %.3f s in-lock, %.3f s "
              "background)\n",
              n, online_reps, inlock.total_seconds, built.total_seconds);
  std::printf("ingest tail latency over %zu arrivals (%zu in-lock "
              "rebuilds vs %zu background swaps):\n",
              n, inlock_istats.rebuilds, istats.swaps);
  PrintLatency("  in-lock rebuild (baseline)", inlock.seconds);
  PrintLatency("  background rebuild", built.seconds);
  PrintLatency("  admission bound off (full scan)", fullscan.seconds);
  std::printf("%-34s %12.2fx (p50, admission bound on vs off)\n",
              "admission-bound ingest speedup", admission_speedup_p50);
  std::printf("%-34s %12.6f ms -> %.6f ms (worst writer-lock hold in "
              "Append)\n",
              "ingest critical section",
              inlock_istats.max_append_hold_seconds * 1e3,
              istats.max_append_hold_seconds * 1e3);
  std::printf("%-34s %12.6f ms over %zu survivors (staged slide off the "
              "lock)\n",
              "worst writer-lock hold in Compact", compact_hold_seconds * 1e3,
              compact_survivors);
  std::printf("%-34s %12.6f ms\n", "online per-arrival (ingest+impute)",
              online_mean * 1e3);
  PrintLatency("  per-arrival percentiles", online_seconds);
  std::printf("%-34s %12.6f ms\n", "full relearn per arrival",
              relearn_mean * 1e3);
  std::printf("%-34s %12.1fx\n", "speedup", speedup);
  std::printf("engine: %zu prefix appends, %zu invalidations, %zu lazy "
              "solves; index tree over %zu/%zu (%zu rebuilds: %zu "
              "launched, %zu swapped, %zu discarded)\n",
              stats.fast_path_appends, stats.models_invalidated,
              stats.models_solved, istats.tree_size, istats.live,
              istats.rebuilds, istats.launches, istats.swaps,
              istats.discarded);
  std::printf("admission bound: %.1f orders visited / %.1f admitted per "
              "steady-state arrival over %.0f live (%.2f%% of a full "
              "scan; %zu skips lifetime)\n",
              mean_orders_scanned, mean_orders_admitted, live_at_end,
              affected_fraction * 100.0, stats.admission_skips);
  std::printf("\nsliding window (window_size = n):\n");
  std::printf("%-34s %12.6f ms\n", "windowed per-arrival (+auto-evict)",
              windowed_mean * 1e3);
  PrintLatency("  per-arrival percentiles", windowed_seconds);
  std::printf("%-34s %12.6f ms\n", "explicit eviction", evict_mean * 1e3);
  PrintLatency("  per-eviction percentiles", evict_seconds);
  std::printf("%-34s %12.6f ms (window %zu)\n", "explicit eviction",
              half_evict_mean * 1e3, n_half);
  iim::stream::DynamicIndex::Stats histats = hengine->index().stats();
  std::printf("%-34s %12.2fx (1.0 = flat in window size; backfill "
              "queries scanned %.0f vs %.0f brute-tail rows per eviction, "
              "tails now %zu vs %zu)\n",
              "eviction cost ratio n vs n/2", evict_window_ratio,
              evict_tail_rows, half_evict_tail_rows, wistats.tail_size,
              histats.tail_size);
  std::printf("%-34s %12.6f ms\n", "window relearn", window_relearn_mean * 1e3);
  std::printf("%-34s %12.1fx\n", "eviction speedup", evict_speedup);
  std::printf("windowed engine: %zu evictions (%zu backfills, %zu "
              "compactions, %zu postings edges live)\n",
              wstats.evicted, wstats.backfills, wstats.compactions,
              wstats.postings_edges);
  std::printf("eviction cost vs l (window %zu, %zu evictions each):\n", n,
              scaling_reps);
  for (const EvictScalingCell& cell : scaling) {
    std::printf("  %-26s l %4zu  p50 %9.4f  p99 %9.4f ms  %6.2f "
                "backfills/evict  p50 %8.3f us per unit of l\n",
                cell.config, cell.ell, cell.p50_seconds * 1e3,
                cell.p99_seconds * 1e3, cell.backfills_per_evict,
                cell.p50_seconds * 1e6 / static_cast<double>(cell.ell));
  }
  std::printf("SHAPE CHECK: online update >= 10x full relearn and "
              "bit-identical to batch ... %s\n",
              fast_enough && identical ? "OK" : "DEVIATES");
  std::printf("SHAPE CHECK: eviction >= 10x cheaper than window relearn and "
              "windowed matches batch refit ... %s\n",
              evict_fast_enough && windowed_matches ? "OK" : "DEVIATES");
  std::printf("SHAPE CHECK: background rebuild shrinks the worst ingest "
              "critical section ... %s\n",
              !tail_check_applies ? "N/A (no in-lock rebuild at this n)"
              : tail_improved     ? "OK"
                                  : "DEVIATES");
  std::printf("\ncheckpointing (WAL every arrival, snapshot every %zu ops):\n",
              snap_every);
  PrintLatency("  ingest, persistence off", built.seconds);
  PrintLatency("  ingest, persistence on", persisted.seconds);
  std::printf("%-34s %zu written, %zu failed; worst serialize pause "
              "%.4f ms\n",
              "snapshots", persist_stats.snapshots_written,
              persist_stats.snapshot_write_failures,
              persist_stats.max_snapshot_serialize_seconds * 1e3);
  std::printf("recovery wall-clock vs log-tail length:\n");
  for (const RecoveryCell& cell : recovery_cells) {
    std::printf("  snapshot_every=%-6zu tail %6llu records, %zu snapshot "
                "loaded -> recovery %8.3f ms\n",
                cell.snapshot_every,
                static_cast<unsigned long long>(cell.log_tail_ops),
                cell.snapshots_loaded, cell.recovery_seconds * 1e3);
  }
  std::printf("SHAPE CHECK: ingest p99 with checkpointing within 2x of "
              "persistence-off ... %s\n",
              checkpoint_ok ? "OK" : "DEVIATES");
  std::printf("\nfail points (compiled in; wal.append/wal.fsync armed at "
              "p=0 — evaluated every arrival, never firing):\n");
  std::printf("%-34s %12.2f ns/call\n", "disarmed Inject",
              failpoint_disarmed_ns);
  PrintLatency("  durable ingest, points disarmed", persisted.seconds);
  PrintLatency("  durable ingest, points armed", armed.seconds);
  std::printf("%-34s %12.2fx over %llu evaluations (%llu fires)\n",
              "inactive fail-point p50 tax", failpoint_overhead_p50,
              static_cast<unsigned long long>(append_point.hits),
              static_cast<unsigned long long>(append_point.fires));
  std::printf("SHAPE CHECK: inactive fail points are free (disarmed Inject "
              "<= 100 ns, armed-never-firing ingest p50 within 1.5x of "
              "disarmed, hot path covered) ... %s\n",
              failpoint_ok ? "OK" : "DEVIATES");
  std::printf("\nmasking-one-out quality monitoring (moo_sample_rate = "
              "0.01):\n");
  PrintLatency("  ingest, monitoring off", moo_off.seconds);
  PrintLatency("  ingest, 1% holdout trickle", moo_on.seconds);
  std::printf("%-34s %12.3fx over %llu probes (%llu skipped)\n",
              "moo ingest p50 tax", moo_overhead_p50,
              static_cast<unsigned long long>(moo_stats.moo_probes),
              static_cast<unsigned long long>(moo_stats.moo_skipped));
  std::printf("SHAPE CHECK: 1%% masking-one-out trickle keeps ingest p50 "
              "within 1.05x of monitoring off (or %.0f us absolute), "
              "probes ran ... %s\n",
              kMooFloorSeconds * 1e6, moo_ok ? "OK" : "DEVIATES");
  std::printf("SHAPE CHECK: mean affected orders per arrival within 5%% of "
              "the live count ... %s\n",
              affected_ok ? "OK" : "DEVIATES");
  std::printf("SHAPE CHECK: worst Compact writer-lock hold within the "
              "Append hold gate (or %.2f ms absolute) ... %s\n",
              kCompactHoldFloorSeconds * 1e3,
              compact_hold_ok ? "OK" : "DEVIATES");
  std::printf("SHAPE CHECK: every tail percentile rests on >= %zu samples "
              "... %s\n",
              kMinTailSamples, samples_ok ? "OK" : "DEVIATES");

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"bench_streaming\",\n"
               "  \"n\": %zu,\n"
               "  \"arrivals\": %zu,\n"
               "  \"initial_build_seconds\": %.6f,\n"
               "  \"initial_build_seconds_inlock\": %.6f,\n"
               "  \"ingest_p50_seconds_inlock\": %.9f,\n"
               "  \"ingest_p99_seconds_inlock\": %.9f,\n"
               "  \"ingest_p999_seconds_inlock\": %.9f,\n"
               "  \"ingest_max_seconds_inlock\": %.9f,\n"
               "  \"ingest_p50_seconds\": %.9f,\n"
               "  \"ingest_p99_seconds\": %.9f,\n"
               "  \"ingest_p999_seconds\": %.9f,\n"
               "  \"ingest_max_seconds\": %.9f,\n"
               "  \"append_hold_max_seconds_inlock\": %.9f,\n"
               "  \"append_hold_max_seconds\": %.9f,\n"
               "  \"append_hold_improvement\": %.1f,\n"
               "  \"kdtree_rebuilds_inlock\": %zu,\n"
               "  \"kdtree_rebuilds\": %zu,\n"
               "  \"kdtree_launches\": %zu,\n"
               "  \"kdtree_swaps\": %zu,\n"
               "  \"kdtree_discarded\": %zu,\n"
               "  \"online_per_arrival_seconds\": %.9f,\n"
               "  \"online_p50_seconds\": %.9f,\n"
               "  \"online_p99_seconds\": %.9f,\n"
               "  \"online_max_seconds\": %.9f,\n"
               "  \"full_relearn_seconds\": %.9f,\n"
               "  \"speedup\": %.1f,\n"
               "  \"bit_identical_to_batch\": %s,\n"
               "  \"fast_path_appends\": %zu,\n"
               "  \"models_invalidated\": %zu,\n"
               "  \"models_solved\": %zu,\n"
               "  \"windowed_per_arrival_seconds\": %.9f,\n"
               "  \"windowed_p50_seconds\": %.9f,\n"
               "  \"windowed_p99_seconds\": %.9f,\n"
               "  \"windowed_max_seconds\": %.9f,\n"
               "  \"eviction_seconds\": %.9f,\n"
               "  \"eviction_p50_seconds\": %.9f,\n"
               "  \"eviction_p99_seconds\": %.9f,\n"
               "  \"eviction_max_seconds\": %.9f,\n"
               "  \"window_half\": %zu,\n"
               "  \"eviction_seconds_window_half\": %.9f,\n"
               "  \"eviction_cost_ratio_full_vs_half\": %.2f,\n"
               "  \"window_relearn_seconds\": %.9f,\n"
               "  \"eviction_speedup\": %.1f,\n"
               "  \"windowed_matches_batch_refit\": %s,\n"
               "  \"evictions\": %zu,\n"
               "  \"backfills\": %zu,\n"
               "  \"compactions\": %zu,\n"
               "  \"postings_edges\": %zu,\n"
               "  \"windowed_kdtree_swaps\": %zu,\n"
               "  \"windowed_tail_size\": %zu,\n"
               "  \"windowed_half_tail_size\": %zu,\n"
               "  \"eviction_tail_rows_scanned\": %.1f,\n"
               "  \"eviction_tail_rows_scanned_window_half\": %.1f,\n"
               "  \"windowed_half_evictions\": %zu,\n",
               n, online_reps, built.total_seconds, inlock.total_seconds,
               ingest_inlock.p50, ingest_inlock.p99, ingest_inlock_p999,
               ingest_inlock.max, ingest_bg.p50, ingest_bg.p99,
               ingest_bg_p999, ingest_bg.max,
               inlock_istats.max_append_hold_seconds,
               istats.max_append_hold_seconds,
               istats.max_append_hold_seconds > 0.0
                   ? inlock_istats.max_append_hold_seconds /
                         istats.max_append_hold_seconds
                   : 0.0,
               inlock_istats.rebuilds, istats.rebuilds, istats.launches,
               istats.swaps, istats.discarded, online_mean, online_lat.p50,
               online_lat.p99, online_lat.max, relearn_mean, speedup,
               identical ? "true" : "false", stats.fast_path_appends,
               stats.models_invalidated, stats.models_solved, windowed_mean,
               windowed_lat.p50, windowed_lat.p99, windowed_lat.max,
               evict_mean, evict_lat.p50, evict_lat.p99, evict_lat.max,
               n_half, half_evict_mean, evict_window_ratio,
               window_relearn_mean, evict_speedup,
               windowed_matches ? "true" : "false", wstats.evicted,
               wstats.backfills, wstats.compactions, wstats.postings_edges,
               wistats.swaps, wistats.tail_size, histats.tail_size,
               evict_tail_rows, half_evict_tail_rows, hstats.evicted);
  std::fprintf(out,
               "  \"online_samples\": %zu,\n"
               "  \"eviction_samples\": %zu,\n"
               "  \"online_p999_seconds\": %.9f,\n"
               "  \"eviction_p999_seconds\": %.9f,\n"
               "  \"tail_samples_min\": %zu,\n"
               "  \"tail_samples_ok\": %s,\n"
               "  \"ingest_p50_seconds_fullscan\": %.9f,\n"
               "  \"ingest_p99_seconds_fullscan\": %.9f,\n"
               "  \"admission_speedup_p50\": %.2f,\n"
               "  \"orders_scanned\": %zu,\n"
               "  \"orders_admitted\": %zu,\n"
               "  \"admission_skips\": %zu,\n"
               "  \"mean_orders_scanned_per_arrival\": %.2f,\n"
               "  \"mean_orders_admitted_per_arrival\": %.2f,\n"
               "  \"affected_fraction_of_live\": %.6f,\n"
               "  \"affected_within_5pct\": %s,\n"
               "  \"compact_hold_max_seconds\": %.9f,\n"
               "  \"compact_survivors\": %zu,\n"
               "  \"compact_hold_within_append_gate\": %s,\n",
               online_seconds.size(), evict_seconds.size(),
               iim::Percentile(online_seconds, 99.9),
               iim::Percentile(evict_seconds, 99.9), kMinTailSamples,
               samples_ok ? "true" : "false", ingest_fullscan.p50,
               ingest_fullscan.p99, admission_speedup_p50,
               stats.orders_scanned, stats.orders_admitted,
               stats.admission_skips, mean_orders_scanned,
               mean_orders_admitted, affected_fraction,
               affected_ok ? "true" : "false", compact_hold_seconds,
               compact_survivors, compact_hold_ok ? "true" : "false");
  std::fprintf(out,
               "  \"checkpoint_snapshot_every\": %zu,\n"
               "  \"ingest_p50_seconds_persist\": %.9f,\n"
               "  \"ingest_p99_seconds_persist\": %.9f,\n"
               "  \"ingest_p999_seconds_persist\": %.9f,\n"
               "  \"ingest_max_seconds_persist\": %.9f,\n"
               "  \"snapshots_written\": %zu,\n"
               "  \"snapshot_write_failures\": %zu,\n"
               "  \"snapshot_serialize_max_seconds\": %.9f,\n"
               "  \"checkpoint_p99_within_2x\": %s,\n",
               snap_every, ingest_persist.p50, ingest_persist.p99,
               ingest_persist_p999, ingest_persist.max,
               persist_stats.snapshots_written,
               persist_stats.snapshot_write_failures,
               persist_stats.max_snapshot_serialize_seconds,
               checkpoint_ok ? "true" : "false");
  std::fprintf(out,
               "  \"failpoint_disarmed_ns_per_call\": %.2f,\n"
               "  \"ingest_p50_seconds_failpoints_armed\": %.9f,\n"
               "  \"ingest_p99_seconds_failpoints_armed\": %.9f,\n"
               "  \"failpoint_armed_evaluations\": %llu,\n"
               "  \"failpoint_armed_fires\": %llu,\n"
               "  \"failpoint_overhead_ratio_p50\": %.3f,\n"
               "  \"failpoint_inactive_ok\": %s,\n",
               failpoint_disarmed_ns, ingest_armed.p50, ingest_armed.p99,
               static_cast<unsigned long long>(append_point.hits),
               static_cast<unsigned long long>(append_point.fires),
               failpoint_overhead_p50, failpoint_ok ? "true" : "false");
  std::fprintf(out,
               "  \"evict_scaling_window\": %zu,\n"
               "  \"evict_scaling_samples\": %zu,\n"
               "  \"evict_scaling\": [\n",
               n, scaling_reps);
  for (size_t c = 0; c < scaling.size(); ++c) {
    const EvictScalingCell& cell = scaling[c];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"ell\": %zu, "
                 "\"evict_p50_seconds\": %.9f, "
                 "\"evict_p99_seconds\": %.9f, "
                 "\"backfills_per_evict\": %.4f, "
                 "\"evict_p50_seconds_per_ell\": %.9f}%s\n",
                 cell.config, cell.ell, cell.p50_seconds, cell.p99_seconds,
                 cell.backfills_per_evict,
                 cell.p50_seconds / static_cast<double>(cell.ell),
                 c + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"recovery\": [\n");
  for (size_t c = 0; c < recovery_cells.size(); ++c) {
    const RecoveryCell& cell = recovery_cells[c];
    std::fprintf(out,
                 "    {\"snapshot_every\": %zu, \"log_tail_ops\": %llu, "
                 "\"snapshots_loaded\": %zu, "
                 "\"recovery_seconds\": %.6f}%s\n",
                 cell.snapshot_every,
                 static_cast<unsigned long long>(cell.log_tail_ops),
                 cell.snapshots_loaded, cell.recovery_seconds,
                 c + 1 < recovery_cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"moo_sample_rate\": 0.01,\n"
               "  \"ingest_p50_seconds_moo_off\": %.9f,\n"
               "  \"ingest_p99_seconds_moo_off\": %.9f,\n"
               "  \"ingest_p50_seconds_moo\": %.9f,\n"
               "  \"ingest_p99_seconds_moo\": %.9f,\n"
               "  \"moo_probes\": %llu,\n"
               "  \"moo_skipped\": %llu,\n"
               "  \"moo_overhead_ratio_p50\": %.3f,\n"
               "  \"moo_overhead_within_gate\": %s\n"
               "}\n",
               ingest_moo_off.p50, ingest_moo_off.p99, ingest_moo_on.p50,
               ingest_moo_on.p99,
               static_cast<unsigned long long>(moo_stats.moo_probes),
               static_cast<unsigned long long>(moo_stats.moo_skipped),
               moo_overhead_p50, moo_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return fast_enough && identical && evict_fast_enough && windowed_matches &&
                 tail_improved && checkpoint_ok && affected_ok &&
                 compact_hold_ok && samples_ok && failpoint_ok && moo_ok
             ? 0
             : 1;
}
