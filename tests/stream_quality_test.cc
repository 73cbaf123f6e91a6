// Online imputation-quality monitoring: the masking-one-out differential
// harness (ROADMAP item 2).
//
// What is pinned here, suite by suite:
//
//   - The estimator itself: the decayed per-column error a stationary
//     stream accumulates converges to the batch masking error computed
//     directly over the final window (src/eval's RMS metric) — the online
//     trickle and the offline protocol measure the same quantity.
//   - The zero-impact contract: a kObserveOnly engine answers every
//     impute bit-identically to a quality-disabled engine, and its core
//     maintenance counters match exactly — monitoring must never perturb
//     what it monitors.
//   - Routing: on a deliberately drifted stream the kAutoRoute engine
//     switches at least one column's champion off IIM and serves the
//     drifted tail with LOWER held-out error than the kObserveOnly twin.
//   - Time-based eviction: EvictWhere / EvictOlderThan retire exactly the
//     matching tuples, tolerate holes anywhere in the window (no
//     FIFO-prefix assumption), and leave imputations bitwise equal to a
//     batch refit on the surviving window.
//   - The service's overload fallback: the column-mean fit is cached per
//     quiescent span — fits advance with window *changes*, not with the
//     number of fallback batches served.
//   - Persistence: quality estimates snapshot and restore bitwise, and a
//     restored engine's subsequent probes match the original's exactly.

#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/iim_imputer.h"
#include "data/table.h"
#include "eval/metrics.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

constexpr int kTarget = 2;
const std::vector<int> kFeatures = {0, 1};

core::IimOptions QualityOptions() {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 8;
  opt.window_size = 128;
  opt.moo_sample_rate = 1.0;
  return opt;
}

// A stationary linear relation with noise: y = 2 x0 + x1 + eps.
data::Table StationaryTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  data::Table t(data::Schema::Default(3));
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    double y = 2.0 * x0 + x1 + rng.Gaussian(0.0, 0.3);
    EXPECT_TRUE(t.AppendRow({x0, x1, y}).ok());
  }
  return t;
}

// An abruptly drifting relation: the head is exactly linear (IIM's home
// turf), the tail's target is feature-independent noise around 5 (the
// column mean's home turf).
data::Table DriftTable(size_t head, size_t tail, uint64_t seed) {
  Rng rng(seed);
  data::Table t(data::Schema::Default(3));
  for (size_t i = 0; i < head; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    EXPECT_TRUE(t.AppendRow({x0, x1, 3.0 * x0 + 2.0 * x1}).ok());
  }
  for (size_t i = 0; i < tail; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    EXPECT_TRUE(t.AppendRow({x0, x1, 5.0 + rng.Gaussian(0.0, 1.0)}).ok());
  }
  return t;
}

void ExpectSameQuality(const OnlineIim::Stats& x, const OnlineIim::Stats& y,
                       const char* where) {
  EXPECT_EQ(x.moo_probes, y.moo_probes) << where;
  EXPECT_EQ(x.moo_skipped, y.moo_skipped) << where;
  EXPECT_EQ(x.champion_switches, y.champion_switches) << where;
  ASSERT_EQ(x.quality.size(), y.quality.size()) << where;
  for (size_t c = 0; c < x.quality.size(); ++c) {
    const QualityColumnStats& a = x.quality[c];
    const QualityColumnStats& b = y.quality[c];
    EXPECT_EQ(a.holdouts, b.holdouts) << where << " col " << c;
    EXPECT_EQ(a.champion, b.champion) << where << " col " << c;
    EXPECT_EQ(a.switches, b.switches) << where << " col " << c;
    for (int m = 0; m < kQualityMethods; ++m) {
      EXPECT_EQ(a.samples[m], b.samples[m]) << where << " col " << c;
      EXPECT_EQ(a.ewma_abs[m], b.ewma_abs[m]) << where << " col " << c;
      EXPECT_EQ(a.ewma_rms[m], b.ewma_rms[m]) << where << " col " << c;
      EXPECT_EQ(a.abs_error[m].p50, b.abs_error[m].p50)
          << where << " col " << c;
      EXPECT_EQ(a.abs_error[m].p99, b.abs_error[m].p99)
          << where << " col " << c;
    }
  }
}

// --- Zero-impact contract ---------------------------------------------

TEST(QualityObserveOnlyTest, BitIdenticalToQualityDisabledEngine) {
  data::Table full = HeterogeneousTable(260, 3, 17);
  core::IimOptions monitored = QualityOptions();
  monitored.window_size = 80;
  core::IimOptions plain = monitored;
  plain.moo_sample_rate = 0.0;

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, monitored);
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, plain);
  ASSERT_TRUE(a_r.ok());
  ASSERT_TRUE(b_r.ok());
  OnlineIim& a = *a_r.value();
  OnlineIim& b = *b_r.value();

  std::vector<ScheduleOp> ops = MakeSchedule(99, 240, /*min_live=*/10,
                                             /*evict_p=*/0.2,
                                             /*impute_every=*/17);
  for (const ScheduleOp& op : ops) {
    if (op.kind == ScheduleOp::kIngest) {
      ASSERT_TRUE(a.Ingest(full.Row(op.src_row)).ok());
      ASSERT_TRUE(b.Ingest(full.Row(op.src_row)).ok());
    } else if (op.kind == ScheduleOp::kEvict) {
      ASSERT_EQ(a.Evict(op.arrival).code(), b.Evict(op.arrival).code());
    } else {
      std::vector<double> probe = Probe(full, 250, kTarget);
      Result<double> va =
          a.ImputeOne(data::RowView(probe.data(), probe.size()));
      Result<double> vb =
          b.ImputeOne(data::RowView(probe.data(), probe.size()));
      ASSERT_EQ(va.ok(), vb.ok());
      if (va.ok()) EXPECT_EQ(va.value(), vb.value());
    }
  }
  // Monitoring left no trace in the engine: every maintenance counter the
  // core exposes is identical, and nothing was ever routed.
  OnlineIim::Stats sa = a.stats();
  OnlineIim::Stats sb = b.stats();
  EXPECT_GT(sa.moo_probes, 0u);
  EXPECT_EQ(sb.moo_probes, 0u);
  EXPECT_EQ(sa.routed_serves, 0u);
  EXPECT_EQ(sa.ensemble_serves, 0u);
  EXPECT_EQ(sa.imputed, sb.imputed);
  EXPECT_EQ(sa.models_solved, sb.models_solved);
  EXPECT_EQ(sa.global_fits_reused, sb.global_fits_reused);
  EXPECT_EQ(sa.holders_invalidated, sb.holders_invalidated);
  EXPECT_EQ(sa.fast_path_appends, sb.fast_path_appends);
  EXPECT_EQ(sa.backfills, sb.backfills);
}

// --- Estimator convergence vs. the batch masking protocol -------------

class QualityConvergenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

// The second axis streams through an ImputationService and reads the
// estimates the service surfaces instead of the engine's own.
TEST_P(QualityConvergenceTest, DecayedErrorTracksBatchMaskingError) {
  const uint64_t seed = std::get<0>(GetParam());
  const bool via_service = std::get<1>(GetParam());
  const size_t n = 400;
  data::Table full = StationaryTable(n, seed);
  core::IimOptions opt = QualityOptions();
  opt.moo_decay = 0.05;

  auto r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(r.ok());
  OnlineIim& engine = *r.value();
  std::vector<QualityColumnStats> quality;
  if (via_service) {
    ImputationService service(&engine);
    std::vector<std::future<Status>> acks;
    for (size_t i = 0; i < n; ++i) {
      acks.push_back(service.SubmitIngest(full.Row(i).ToVector()));
    }
    for (std::future<Status>& ack : acks) ASSERT_TRUE(ack.get().ok());
    service.Drain();
    quality = service.stats().quality;
  } else {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
    }
    quality = engine.stats().quality;
  }

  // Batch masking-one-out over the FINAL window, mean method: hold each
  // live target out, impute with the mean of the others, score via the
  // paper's RMS metric.
  const size_t live = opt.window_size;
  double sum = 0.0;
  for (size_t i = n - live; i < n; ++i) sum += full.Row(i)[kTarget];
  std::vector<eval::ScoredCell> cells;
  for (size_t i = n - live; i < n; ++i) {
    double truth = full.Row(i)[kTarget];
    eval::ScoredCell cell;
    cell.truth = truth;
    cell.imputed = (sum - truth) / static_cast<double>(live - 1);
    cells.push_back(cell);
  }
  Result<double> batch_rms = eval::RmsError(cells);
  ASSERT_TRUE(batch_rms.ok());

  ASSERT_EQ(quality.size(), kFeatures.size() + 1);
  const QualityColumnStats& target_col = quality.back();
  ASSERT_GT(target_col.samples[kQualityMean], 30u);
  // The decayed online estimate and the batch protocol measure the same
  // stationary quantity; the tolerance covers EWMA variance and the
  // window drift between probes.
  double online = target_col.ewma_rms[kQualityMean];
  EXPECT_GT(online, 0.55 * batch_rms.value());
  EXPECT_LT(online, 1.8 * batch_rms.value());
  // The regression methods learn the linear relation the mean ignores,
  // so both must come out clearly ahead of it — and the champion is one
  // of them (on an exactly-global relation GLR legitimately edges out
  // the local-model IIM; what matters is that mean never wins).
  EXPECT_LT(target_col.ewma_rms[kQualityIim],
            target_col.ewma_rms[kQualityMean]);
  EXPECT_LT(target_col.ewma_rms[kQualityGlr],
            target_col.ewma_rms[kQualityMean]);
  EXPECT_TRUE(target_col.champion == kQualityIim ||
              target_col.champion == kQualityGlr)
      << target_col.champion;
}

INSTANTIATE_TEST_SUITE_P(Cells, QualityConvergenceTest,
                         ::testing::Combine(::testing::Values<uint64_t>(5, 23),
                                            ::testing::Bool()));

// --- Champion/challenger routing under drift --------------------------

TEST(QualityRoutingTest, AutoRouteSwitchesOffIimAndLowersDriftError) {
  const size_t head = 240;
  const size_t tail = 260;
  data::Table full = DriftTable(head, tail, 41);
  core::IimOptions observe = QualityOptions();
  observe.window_size = 96;
  observe.moo_decay = 0.2;
  observe.moo_min_samples = 12;
  observe.moo_margin = 0.05;
  core::IimOptions route = observe;
  route.quality_routing = core::IimOptions::QualityRouting::kAutoRoute;

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, observe);
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, route);
  ASSERT_TRUE(a_r.ok());
  ASSERT_TRUE(b_r.ok());
  OnlineIim& observer = *a_r.value();
  OnlineIim& router = *b_r.value();

  Rng probe_rng(97);
  double sq_observer = 0.0;
  double sq_router = 0.0;
  size_t served = 0;
  for (size_t i = 0; i < head + tail; ++i) {
    ASSERT_TRUE(observer.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(router.Ingest(full.Row(i)).ok());
    // Once the window lies fully in the drifted regime, serve held-out
    // probes drawn from that regime through both engines.
    if (i >= head + observe.window_size + 40 && i % 5 == 0) {
      double x0 = probe_rng.Uniform();
      double x1 = probe_rng.Uniform();
      double truth = 5.0 + probe_rng.Gaussian(0.0, 1.0);
      std::vector<double> probe = {
          x0, x1, std::numeric_limits<double>::quiet_NaN()};
      data::RowView row(probe.data(), probe.size());
      Result<double> va = observer.ImputeOne(row);
      Result<double> vb = router.ImputeOne(row);
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      sq_observer += (va.value() - truth) * (va.value() - truth);
      sq_router += (vb.value() - truth) * (vb.value() - truth);
      ++served;
    }
  }
  ASSERT_GT(served, 20u);

  OnlineIim::Stats so = observer.stats();
  OnlineIim::Stats sr = router.stats();
  // The router noticed the drift: at least one column's champion left
  // IIM, and tail requests were actually served off the IIM path.
  EXPECT_GE(sr.champion_switches, 1u);
  bool any_off_iim = false;
  for (const QualityColumnStats& col : sr.quality) {
    if (col.champion != kQualityIim) any_off_iim = true;
  }
  EXPECT_TRUE(any_off_iim);
  EXPECT_GT(sr.routed_serves + sr.ensemble_serves, 0u);
  // The observe-only engine never routes (same estimates, no action).
  EXPECT_EQ(so.routed_serves, 0u);
  EXPECT_EQ(so.ensemble_serves, 0u);
  // And routing paid off: lower held-out error on the drifted tail.
  double rms_observer = std::sqrt(sq_observer / static_cast<double>(served));
  double rms_router = std::sqrt(sq_router / static_cast<double>(served));
  EXPECT_LT(rms_router, rms_observer);
}

// --- Time-based eviction ----------------------------------------------

TEST(QualityEvictionTest, EvictWhereAgreesAcrossEnginesWithHoles) {
  // Column 3 is a timestamp (not a feature, not the target).
  Rng rng(7);
  data::Table full(data::Schema::Default(4));
  for (size_t i = 0; i < 150; ++i) {
    double x0 = rng.Uniform();
    double x1 = rng.Uniform();
    ASSERT_TRUE(full.AppendRow({x0, x1, 2.0 * x0 + x1 + rng.Gaussian(0, 0.1),
                                static_cast<double>(i)})
                    .ok());
  }
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 8;
  opt.timestamp_column = 3;

  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  OnlineIim& online = *e_r.value();
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
  }
  // Punch holes in the MIDDLE first — the sweep must not assume the
  // predicate matches an oldest-first prefix of the window. Arrivals
  // 3, 10, ..., 115 match.
  auto holes = [](uint64_t arrival, const data::RowView&) {
    return arrival % 7 == 3;
  };
  Result<size_t> evicted = online.EvictWhere(holes);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value(), 17u);

  // Then retire everything older than t = 40 by timestamp: the 40 oldest
  // arrivals less the 6 holes already among them.
  evicted = online.EvictOlderThan(40.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value(), 34u);

  // Exactly the survivors remain, in arrival order.
  std::vector<double> want_ts;
  for (size_t i = 40; i < 120; ++i) {
    if (i % 7 != 3) want_ts.push_back(static_cast<double>(i));
  }
  const data::Table& window = online.table();
  ASSERT_EQ(window.NumRows(), want_ts.size());
  for (size_t r = 0; r < want_ts.size(); ++r) {
    EXPECT_EQ(window.At(r, 3), want_ts[r]) << "window row " << r;
  }

  // Imputations equal a batch refit on the surviving window right after
  // the sweeps, and keep doing so as the stream continues.
  auto expect_batch_parity = [&](size_t probe_row) {
    std::vector<double> probe = full.Row(probe_row).ToVector();
    probe[kTarget] = std::numeric_limits<double>::quiet_NaN();
    data::RowView row(probe.data(), probe.size());
    data::Table snapshot = online.table();
    core::IimImputer batch(opt);
    ASSERT_TRUE(batch.Fit(snapshot, kTarget, kFeatures).ok());
    Result<double> got = online.ImputeOne(row);
    Result<double> want = batch.ImputeOne(row);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value(), want.value())
        << "probe row " << probe_row << ", " << online.size() << " live";
  };
  expect_batch_parity(149);
  for (size_t i = 120; i < 150; ++i) {
    ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
    if (i % 6 == 0) expect_batch_parity(i);
  }
}

TEST(QualityEvictionTest, EvictOlderThanNeedsTimestampColumn) {
  data::Table full = StationaryTable(30, 3);
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 6;
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(e_r.value()->Ingest(full.Row(i)).ok());
  }
  Result<size_t> r = e_r.value()->EvictOlderThan(10.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// --- Service overload-fallback fit cache ------------------------------

TEST(QualityServiceTest, FallbackFitIsCachedPerQuiescentSpan) {
  data::Table full = StationaryTable(40, 13);
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 6;
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());

  ImputationService::Options sopt;
  sopt.max_batch = 1;  // every popped impute is its own batch
  sopt.fallback_watermark = 1;
  ImputationService service(e_r.value().get(), sopt);

  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.SubmitIngest(full.Row(i).ToVector()).get().ok());
  }
  service.Drain();

  // Six imputes queued behind a paused server: the first five pop with a
  // non-empty backlog (fallback), the sixth drains normally. Without the
  // cache this span would fit five times; with it, exactly once.
  auto submit_probes = [&](size_t n) {
    std::vector<std::future<Result<double>>> futs;
    for (size_t i = 0; i < n; ++i) {
      futs.push_back(service.SubmitImpute(Probe(full, 30, kTarget)));
    }
    return futs;
  };
  service.Pause();
  auto first = submit_probes(6);
  service.Resume();
  for (auto& f : first) ASSERT_TRUE(f.get().ok());
  service.Drain();
  ImputationService::Stats s1 = service.stats();
  EXPECT_EQ(s1.fallback_imputes, 5u);
  EXPECT_EQ(s1.fallback_fits, 1u);

  // A served mutation invalidates the cache; the next overloaded span
  // fits exactly once more.
  service.Pause();
  std::future<Status> ingest = service.SubmitIngest(full.Row(20).ToVector());
  auto second = submit_probes(6);
  service.Resume();
  ASSERT_TRUE(ingest.get().ok());
  for (auto& f : second) ASSERT_TRUE(f.get().ok());
  service.Drain();
  ImputationService::Stats s2 = service.stats();
  EXPECT_EQ(s2.fallback_imputes, 10u);
  EXPECT_EQ(s2.fallback_fits, 2u);
}

TEST(QualityServiceTest, QualityStatsSurfaceThroughService) {
  data::Table full = StationaryTable(120, 29);
  core::IimOptions opt = QualityOptions();
  auto e_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(e_r.ok());
  ImputationService service(e_r.value().get());
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(service.SubmitIngest(full.Row(i).ToVector()).get().ok());
  }
  service.Drain();
  service.Pause();
  ImputationService::Stats s = service.stats();
  service.Resume();
  EXPECT_GT(s.moo_probes, 0u);
  ASSERT_EQ(s.quality.size(), kFeatures.size() + 1);
  EXPECT_GT(s.quality.back().samples[kQualityIim], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityMean], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityKnn], 0u);
  EXPECT_GT(s.quality.back().samples[kQualityGlr], 0u);
}

// --- Persistence ------------------------------------------------------

TEST(QualitySnapshotTest, EstimatesRoundTripAndProbesStayDeterministic) {
  data::Table full = StationaryTable(90, 31);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;  // unbounded: restore rebuilds the exact mirror

  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  OnlineIim& original = *a_r.value();
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(original.Ingest(full.Row(i)).ok());
  }
  std::string bytes = original.SerializeSnapshot();

  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(b_r.ok());
  OnlineIim& restored = *b_r.value();
  ASSERT_TRUE(restored.RestoreFromSnapshot(bytes).ok());
  {
    ExpectSameQuality(original.stats(), restored.stats(), "post-restore");
  }

  // Feed both the same continuation: estimates restored bitwise and the
  // mirror rebuilt in arrival order mean every further probe matches.
  for (size_t i = 60; i < 90; ++i) {
    ASSERT_TRUE(original.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(restored.Ingest(full.Row(i)).ok());
  }
  OnlineIim::Stats sa = original.stats();
  OnlineIim::Stats sb = restored.stats();
  EXPECT_EQ(sa.moo_probes, sb.moo_probes);
  ASSERT_EQ(sa.quality.size(), sb.quality.size());
  for (size_t c = 0; c < sa.quality.size(); ++c) {
    for (int m = 0; m < kQualityMethods; ++m) {
      EXPECT_EQ(sa.quality[c].ewma_abs[m], sb.quality[c].ewma_abs[m])
          << "col " << c << " method " << m;
      EXPECT_EQ(sa.quality[c].samples[m], sb.quality[c].samples[m])
          << "col " << c << " method " << m;
    }
  }
}

TEST(QualitySnapshotTest, RestoreRefusesMismatchedQualityConfig) {
  data::Table full = StationaryTable(40, 37);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;
  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(a_r.value()->Ingest(full.Row(i)).ok());
  }
  std::string bytes = a_r.value()->SerializeSnapshot();

  core::IimOptions other = opt;
  other.moo_sample_rate = 0.5;
  auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, other);
  ASSERT_TRUE(b_r.ok());
  Status st = b_r.value()->RestoreFromSnapshot(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("moo_sample_rate"), std::string::npos);
}

}  // namespace
}  // namespace iim::stream
