// Online imputation-quality monitoring: the masking-one-out differential
// harness (ROADMAP item 2).
//
// What is pinned here, suite by suite:
//
//   - The probe scores the deployed imputer: each probe's IIM error is
//     the error of the engine's own served imputation of the masked row,
//     and its kNN error that of the same k neighbors' mean target.
//   - The estimator itself: the decayed error a stationary stream
//     accumulates converges to the batch masking error computed directly
//     over the final window (src/eval's RMS metric) — the online trickle
//     and the offline protocol measure the same quantity.
//   - The zero-impact contract: a kObserveOnly engine answers every
//     impute bit-identically to a quality-disabled engine, and the
//     counters a model solve does not move match exactly — monitoring
//     must never perturb what it monitors.
//   - Routing: on a deliberately drifted stream the kAutoRoute engine
//     switches the target's champion off IIM and serves the drifted tail
//     with LOWER held-out error than the kObserveOnly twin; a mean or GLR
//     serve never queries the index.
//   - Time-based eviction: EvictWhere / EvictOlderThan retire exactly the
//     matching tuples, tolerate holes anywhere in the window (no
//     FIFO-prefix assumption), and leave imputations bitwise equal to a
//     batch refit on the surviving window.
//   - The service's overload fallback: the column-mean fit is cached per
//     quiescent span — fits advance with window *changes*, not with the
//     number of fallback batches served.
//   - Persistence: quality estimates snapshot and restore bitwise, and a
//     restored engine's subsequent probes match the original's exactly.

#include <array>
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
#include "neighbors/knn.h"
#include "regress/incremental_ridge.h"
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
  const QualityStats& a = x.quality;
  const QualityStats& b = y.quality;
  EXPECT_EQ(a.champion, b.champion) << where;
  for (int m = 0; m < kQualityMethods; ++m) {
    EXPECT_EQ(a.samples[m], b.samples[m]) << where << " method " << m;
    EXPECT_EQ(a.ewma_abs[m], b.ewma_abs[m]) << where << " method " << m;
    EXPECT_EQ(a.ewma_rms[m], b.ewma_rms[m]) << where << " method " << m;
    EXPECT_EQ(a.abs_error[m].p50, b.abs_error[m].p50)
        << where << " method " << m;
    EXPECT_EQ(a.abs_error[m].p99, b.abs_error[m].p99)
        << where << " method " << m;
    EXPECT_EQ(a.abs_error[m].max, b.abs_error[m].max)
        << where << " method " << m;
  }
}

// --- The probe is the served imputation --------------------------------

// A monitored engine and a monitor-off twin take the same stream. Before
// each arrival the twin serves the masked row (IIM) and a brute-force
// top-k over its window gives the kNN answer; replaying the decayed-error
// recursion over those errors reproduces the monitored engine's IIM and
// kNN estimates bit for bit. Mean and GLR come from streaming fits that
// down-date on eviction, so batch fits over the twin's window match them
// to 1e-9 relative. Fixed and adaptive l.
TEST(QualityServedPathTest, ProbesScoreTheServedImputation) {
  data::Table full = HeterogeneousTable(200, 3, 11);
  core::IimOptions fixed = QualityOptions();
  fixed.window_size = 60;
  core::IimOptions adaptive = fixed;
  adaptive.adaptive = true;
  adaptive.max_ell = 12;
  adaptive.step_h = 2;
  for (const core::IimOptions& monitored : {fixed, adaptive}) {
    SCOPED_TRACE(monitored.adaptive ? "adaptive" : "fixed l");
    core::IimOptions plain = monitored;
    plain.moo_sample_rate = 0.0;
    auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, monitored);
    auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, plain);
    ASSERT_TRUE(a_r.ok());
    ASSERT_TRUE(b_r.ok());
    OnlineIim& engine = *a_r.value();
    OnlineIim& twin = *b_r.value();

    std::array<uint64_t, kQualityMethods> samples{};
    std::array<double, kQualityMethods> ewma_abs{};
    std::array<double, kQualityMethods> ewma_sq{};
    const double lambda = monitored.moo_decay;
    auto record = [&](int m, double err) {
      if (samples[m]++ == 0) {
        ewma_abs[m] = err;
        ewma_sq[m] = err * err;
      } else {
        ewma_abs[m] = (1.0 - lambda) * ewma_abs[m] + lambda * err;
        ewma_sq[m] = (1.0 - lambda) * ewma_sq[m] + lambda * err * err;
      }
    };
    for (size_t i = 0; i < full.NumRows(); ++i) {
      if (twin.size() >= 2) {
        const double truth = full.At(i, kTarget);
        std::vector<double> masked = Probe(full, i, kTarget);
        data::RowView row(masked.data(), masked.size());
        Result<double> iim = twin.ImputeOne(row);
        ASSERT_TRUE(iim.ok());
        const data::Table& window = twin.table();
        neighbors::BruteForceIndex index(&window, kFeatures);
        neighbors::QueryOptions qopt;
        qopt.k = monitored.k;
        double knn = 0.0;
        std::vector<neighbors::Neighbor> nbrs = index.Query(row, qopt);
        for (const neighbors::Neighbor& nb : nbrs) {
          knn += window.At(nb.index, kTarget);
        }
        knn /= static_cast<double>(nbrs.size());
        double mean = 0.0;
        regress::IncrementalRidge ridge(kFeatures.size());
        for (size_t r = 0; r < window.NumRows(); ++r) {
          mean += window.At(r, kTarget);
          ridge.AddRow({window.At(r, 0), window.At(r, 1)},
                       window.At(r, kTarget));
        }
        mean /= static_cast<double>(window.NumRows());
        Result<regress::LinearModel> glr = ridge.Solve(monitored.alpha);
        ASSERT_TRUE(glr.ok());
        record(kQualityIim, std::fabs(iim.value() - truth));
        record(kQualityMean, std::fabs(mean - truth));
        record(kQualityKnn, std::fabs(knn - truth));
        record(kQualityGlr,
               std::fabs(glr.value().Predict({masked[0], masked[1]}) - truth));
      }
      ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
      ASSERT_TRUE(twin.Ingest(full.Row(i)).ok());
    }

    OnlineIim::Stats s = engine.stats();
    EXPECT_EQ(s.moo_skipped, 2u);
    EXPECT_EQ(s.moo_probes, full.NumRows() - 2);
    EXPECT_EQ(s.imputed, 0u);  // probes are not served imputations
    for (int m = 0; m < kQualityMethods; ++m) {
      EXPECT_EQ(s.quality.samples[m], samples[m]) << QualityMethodName(m);
      if (m == kQualityIim || m == kQualityKnn) {
        EXPECT_EQ(s.quality.ewma_abs[m], ewma_abs[m]) << QualityMethodName(m);
        EXPECT_EQ(s.quality.ewma_rms[m], std::sqrt(ewma_sq[m]))
            << QualityMethodName(m);
      } else {
        EXPECT_NEAR(s.quality.ewma_abs[m], ewma_abs[m], 1e-9 * ewma_abs[m])
            << QualityMethodName(m);
        EXPECT_NEAR(s.quality.ewma_rms[m], std::sqrt(ewma_sq[m]),
                    1e-9 * std::sqrt(ewma_sq[m]))
            << QualityMethodName(m);
      }
    }
  }
}

// --- Zero-impact contract ---------------------------------------------

// Every impute of a kObserveOnly engine equals a monitor-off engine's bit
// for bit, at threads 1 and 4, fixed and adaptive l. The probes solve
// their neighbors' models before a request would, so the solve counters
// (models_solved, global_fits_reused, holders_invalidated) differ; the
// order-maintenance counters a solve does not move stay equal.
TEST(QualityObserveOnlyTest, BitIdenticalToQualityDisabledEngine) {
  data::Table full = HeterogeneousTable(260, 3, 17);
  core::IimOptions base = QualityOptions();
  base.window_size = 80;
  core::IimOptions threads4 = base;
  threads4.threads = 4;
  core::IimOptions adaptive = base;
  adaptive.adaptive = true;
  adaptive.max_ell = 16;
  adaptive.step_h = 2;
  std::vector<ScheduleOp> ops = MakeSchedule(99, 240, /*min_live=*/10,
                                             /*evict_p=*/0.2,
                                             /*impute_every=*/17);
  for (const core::IimOptions& monitored : {base, threads4, adaptive}) {
    SCOPED_TRACE(std::string(monitored.adaptive ? "adaptive" : "fixed l") +
                 ", threads " + std::to_string(monitored.threads));
    core::IimOptions plain = monitored;
    plain.moo_sample_rate = 0.0;
    auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, monitored);
    auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, plain);
    ASSERT_TRUE(a_r.ok());
    ASSERT_TRUE(b_r.ok());
    OnlineIim& a = *a_r.value();
    OnlineIim& b = *b_r.value();

    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kIngest) {
        ASSERT_TRUE(a.Ingest(full.Row(op.src_row)).ok());
        ASSERT_TRUE(b.Ingest(full.Row(op.src_row)).ok());
      } else if (op.kind == ScheduleOp::kEvict) {
        ASSERT_EQ(a.Evict(op.arrival).code(), b.Evict(op.arrival).code());
      } else {
        std::vector<std::vector<double>> probes = {
            Probe(full, 250, kTarget), Probe(full, 251, kTarget),
            Probe(full, op.src_row % 250, kTarget)};
        std::vector<data::RowView> rows;
        for (const std::vector<double>& p : probes) {
          rows.emplace_back(p.data(), p.size());
        }
        std::vector<Result<double>> va = a.ImputeBatch(rows);
        std::vector<Result<double>> vb = b.ImputeBatch(rows);
        for (size_t r = 0; r < rows.size(); ++r) {
          ASSERT_EQ(va[r].ok(), vb[r].ok());
          if (va[r].ok()) {
            EXPECT_EQ(va[r].value(), vb[r].value());
          }
        }
        Result<double> one_a = a.ImputeOne(rows[0]);
        Result<double> one_b = b.ImputeOne(rows[0]);
        ASSERT_EQ(one_a.ok(), one_b.ok());
        if (one_a.ok()) {
          EXPECT_EQ(one_a.value(), one_b.value());
        }
      }
    }
    OnlineIim::Stats sa = a.stats();
    OnlineIim::Stats sb = b.stats();
    EXPECT_GT(sa.moo_probes, 0u);
    EXPECT_EQ(sb.moo_probes, 0u);
    EXPECT_EQ(sa.routed_serves, 0u);
    EXPECT_EQ(sa.ensemble_serves, 0u);
    EXPECT_EQ(sa.imputed, sb.imputed);
    EXPECT_EQ(sa.core.fast_path_appends, sb.core.fast_path_appends);
    EXPECT_EQ(sa.core.models_invalidated, sb.core.models_invalidated);
    EXPECT_EQ(sa.core.backfills, sb.core.backfills);
    EXPECT_EQ(sa.core.evicted, sb.core.evicted);
    EXPECT_EQ(sa.core.orders_scanned, sb.core.orders_scanned);
  }
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
  QualityStats quality;
  if (via_service) {
    ImputationService service(&engine);
    std::vector<std::future<Status>> acks;
    for (size_t i = 0; i < n; ++i) {
      acks.push_back(service.SubmitIngest(full.Row(i).ToVector()));
    }
    for (std::future<Status>& ack : acks) ASSERT_TRUE(ack.get().ok());
    service.Drain();
    quality = service.stats().engine.quality;
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

  const QualityStats& target_col = quality;
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
  size_t served_without_query = 0;
  // The index's lifetime search count says whether a serve queried it, at
  // every rebuild timing (a tail scan count would not: a serve right
  // after a tree install scans an empty tail).
  auto queries = [](const OnlineIim& e) { return e.index().stats().queries; };
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
      const uint64_t observer_queries = queries(observer);
      const uint64_t router_queries = queries(router);
      const size_t routed_before = router.stats().routed_serves;
      Result<double> va = observer.ImputeOne(row);
      Result<double> vb = router.ImputeOne(row);
      ASSERT_TRUE(va.ok());
      ASSERT_TRUE(vb.ok());
      // The IIM, kNN and ensemble routes read neighbors; the mean and GLR
      // routes answer from the monitor's fits without a query.
      EXPECT_GT(queries(observer), observer_queries) << "arrival " << i;
      const OnlineIim::Stats rs = router.stats();
      const int champion = rs.quality.champion;
      if (rs.routed_serves > routed_before &&
          (champion == kQualityMean || champion == kQualityGlr)) {
        EXPECT_EQ(queries(router), router_queries) << "arrival " << i;
        ++served_without_query;
      } else {
        EXPECT_GT(queries(router), router_queries) << "arrival " << i;
      }
      sq_observer += (va.value() - truth) * (va.value() - truth);
      sq_router += (vb.value() - truth) * (vb.value() - truth);
      ++served;
    }
  }
  ASSERT_GT(served, 20u);
  EXPECT_GT(served_without_query, 0u) << "no serve took the mean/GLR route";

  OnlineIim::Stats so = observer.stats();
  OnlineIim::Stats sr = router.stats();
  // The router noticed the drift: the target's champion left IIM, and
  // tail requests were actually served off the IIM path.
  EXPECT_GE(sr.champion_switches, 1u);
  EXPECT_NE(sr.quality.champion, kQualityIim);
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
  EXPECT_GT(s.engine.moo_probes, 0u);
  for (int m = 0; m < kQualityMethods; ++m) {
    EXPECT_EQ(s.engine.quality.samples[m], s.engine.moo_probes)
        << QualityMethodName(m);
  }
}

// --- Persistence ------------------------------------------------------

TEST(QualitySnapshotTest, EstimatesRoundTripAndProbesStayDeterministic) {
  data::Table full = StationaryTable(90, 31);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 0;  // unbounded: the fits never down-date

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
  // fits rebuilt in arrival order mean every further probe matches.
  for (size_t i = 60; i < 90; ++i) {
    ASSERT_TRUE(original.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(restored.Ingest(full.Row(i)).ok());
  }
  OnlineIim::Stats sa = original.stats();
  OnlineIim::Stats sb = restored.stats();
  EXPECT_EQ(sa.moo_probes, sb.moo_probes);
  for (int m = 0; m < kQualityMethods; ++m) {
    EXPECT_EQ(sa.quality.ewma_abs[m], sb.quality.ewma_abs[m])
        << "method " << m;
    EXPECT_EQ(sa.quality.samples[m], sb.quality.samples[m])
        << "method " << m;
  }
}

// The monitor keeps the record Stats() last computed and recomputes it
// only after a probe is recorded. After every ingest, sampled or not, the
// kept record must equal the one an engine restored from the same image
// computes afresh (its monitor has computed nothing yet).
TEST(QualitySnapshotTest, KeptStatsMatchAFreshRestoreAfterEveryIngest) {
  data::Table full = StationaryTable(300, 41);
  core::IimOptions opt = QualityOptions();
  opt.window_size = 40;
  opt.moo_sample_rate = 0.5;
  auto a_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
  ASSERT_TRUE(a_r.ok());
  OnlineIim& engine = *a_r.value();
  uint64_t probes = 0;
  size_t unprobed = 0;  // ingests that recorded no probe
  for (size_t i = 0; i < full.NumRows(); ++i) {
    ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
    const OnlineIim::Stats kept = engine.stats();
    if (kept.moo_probes == probes) ++unprobed;
    probes = kept.moo_probes;
    auto b_r = OnlineIim::Create(full.schema(), kTarget, kFeatures, opt);
    ASSERT_TRUE(b_r.ok());
    ASSERT_TRUE(
        b_r.value()->RestoreFromSnapshot(engine.SerializeSnapshot()).ok());
    const std::string where = "ingest " + std::to_string(i);
    ExpectSameQuality(kept, b_r.value()->stats(), where.c_str());
  }
  EXPECT_GT(probes, 100u);
  EXPECT_GT(unprobed, 100u);
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
