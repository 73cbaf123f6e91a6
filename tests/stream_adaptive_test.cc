// Online adaptive per-tuple l (Algorithm 3 on the stream): the
// adaptive-vs-batch differential harness.
//
// The claim under test: an OnlineIim with options.adaptive maintains each
// live tuple's validation order incrementally and re-runs the batch
// LearnAdaptive candidate sweep lazily, so after ANY sequence of ingests
// and evictions its imputations — and the per-tuple l its models chose —
// are those of a from-scratch batch Algorithm 3 on the live window, bit
// for bit at threads 1 and 4: adaptive sweeps always restream a fresh
// accumulator.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/iim_imputer.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

core::IimOptions AdaptiveOptions(size_t threads = 1) {
  core::IimOptions opt;
  opt.k = 4;
  opt.adaptive = true;
  opt.max_ell = 6;
  opt.step_h = 2;
  opt.validation_k = 3;
  opt.threads = threads;
  opt.window_size = 70;
  return opt;
}

// --- Online adaptive vs batch LearnAdaptive ---------------------------

// One cell: drive a randomized arrival/evict/impute schedule through an
// adaptive OnlineIim and, at checkpoints, compare its imputations against
// a from-scratch batch Algorithm 3 fitted on the live window.
void RunAdaptiveBatchDifferential(uint64_t seed, size_t threads) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(260, 3, seed);
  core::IimOptions opt = AdaptiveOptions(threads);

  Result<std::unique_ptr<OnlineIim>> engine_r =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  OnlineIim& engine = *engine_r.value();

  data::Table probes(data::Schema::Default(3));
  for (size_t i = 240; i < 256; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(full, i, target)).ok());
  }
  std::vector<data::RowView> probe_rows;
  for (size_t p = 0; p < probes.NumRows(); ++p) {
    probe_rows.push_back(probes.Row(p));
  }

  std::vector<ScheduleOp> ops = MakeSchedule(
      seed * 31 + 7, 240, /*min_live=*/12, /*evict_p=*/0.25,
      /*impute_every=*/19);
  size_t checked = 0;
  for (size_t step = 0; step < ops.size(); ++step) {
    const ScheduleOp& op = ops[step];
    if (op.kind == ScheduleOp::kIngest) {
      ASSERT_TRUE(engine.Ingest(full.Row(op.src_row)).ok());
    } else if (op.kind == ScheduleOp::kEvict) {
      Status st = engine.Evict(op.arrival);
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kNotFound);
    } else if (engine.size() > 0) {
      // Query-time lazy solves between checkpoints: this is what keeps
      // the dirty set small and the reuse counter honest.
      ASSERT_TRUE(engine.ImputeOne(probes.Row(0)).ok()) << "step " << step;
    }

    if (step % 60 != 0 && step + 1 != ops.size()) continue;
    if (engine.size() == 0) continue;
    ++checked;

    // A batch Algorithm 3 on a copy of the live window, with the same
    // options. (The copy must outlive the fitted imputer, which retains
    // a reference to it.)
    data::Table snapshot = engine.table();
    core::IimImputer batch(opt);
    ASSERT_TRUE(batch.Fit(snapshot, target, features).ok());
    std::vector<Result<double>> want = batch.ImputeBatch(probe_rows);
    std::vector<Result<double>> got = engine.ImputeBatch(probe_rows);
    ASSERT_EQ(got.size(), want.size());
    for (size_t p = 0; p < got.size(); ++p) {
      ASSERT_TRUE(want[p].ok()) << "probe " << p;
      ASSERT_TRUE(got[p].ok()) << "probe " << p;
      EXPECT_EQ(got[p].value(), want[p].value())
          << "seed " << seed << " threads " << threads << " step " << step
          << " probe " << p;
    }
  }
  ASSERT_GE(checked, 3u) << "schedule too short to mean anything";

  // The schedule really exercised the adaptive machinery: validation
  // lists churned clean models dirty, lazy sweeps re-solved them, clean
  // models were served without a refit, and the chosen l actually moved
  // as the window slid.
  EXPECT_TRUE(engine.VerifyPostings());
  OnlineIim::Stats stats = engine.stats();
  EXPECT_GT(stats.core.models_solved, 0u);
  EXPECT_GT(stats.core.holders_invalidated, 0u);
  EXPECT_GT(stats.core.models_reused, 0u);
  EXPECT_GT(stats.core.adaptive_l_changes, 0u);
  EXPECT_GT(stats.core.evicted, 0u);
}

class AdaptiveBatchDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveBatchDifferentialTest, BitIdenticalOnRestreamPath) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RunAdaptiveBatchDifferential(GetParam(), threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveBatchDifferentialTest,
                         ::testing::Values(uint64_t{13}, uint64_t{29},
                                           uint64_t{61}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

// Per-tuple chosen l, compared head-on. k = n makes one imputation ensure
// EVERY live model, so every slot's last evaluation is current and
// ChosenEllByArrival must reproduce the batch learner's chosen_ell
// vector entry for entry (orphan fallbacks included).
TEST(AdaptiveOnlineTest, ChosenEllsMatchBatchOnPureIngestStream) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  const size_t n = 60;
  data::Table full = HeterogeneousTable(n + 4, 3, 5);
  core::IimOptions opt = AdaptiveOptions();
  opt.window_size = 0;
  opt.k = n;

  Result<std::unique_ptr<OnlineIim>> engine_r =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(engine_r.ok());
  OnlineIim& engine = *engine_r.value();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
  }

  data::Table probe(data::Schema::Default(3));
  ASSERT_TRUE(probe.AppendRow(Probe(full, n + 1, target)).ok());
  Result<double> got = engine.ImputeOne(probe.Row(0));
  ASSERT_TRUE(got.ok());

  data::Table snapshot = engine.table();
  core::IimImputer batch(opt);
  ASSERT_TRUE(batch.Fit(snapshot, target, features).ok());
  Result<double> want = batch.ImputeOne(probe.Row(0));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value(), want.value());

  const core::AdaptiveStats& astats = batch.adaptive_stats();
  ASSERT_EQ(astats.chosen_ell.size(), n);
  for (uint64_t a = 0; a < n; ++a) {
    EXPECT_EQ(engine.ChosenEllByArrival(a), astats.chosen_ell[a])
        << "arrival " << a;
  }
  // The candidate sequence for n = 60, h = 2, cap 6: {1, 3, 5, 6}.
  ASSERT_EQ(astats.candidate_ells.size(), 4u);
  EXPECT_EQ(astats.candidate_ells.back(), 6u);
}

// --- Create validation ------------------------------------------------

TEST(AdaptiveValidationTest, RejectsUnboundedCandidateBudget) {
  data::Table full = HeterogeneousTable(10, 3, 1);
  core::IimOptions opt;
  opt.adaptive = true;
  opt.max_ell = 0;
  Result<std::unique_ptr<OnlineIim>> r =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("max_ell"), std::string::npos);
}

TEST(AdaptiveValidationTest, RejectsFromScratchFold) {
  data::Table full = HeterogeneousTable(10, 3, 1);
  core::IimOptions opt;
  opt.adaptive = true;
  opt.max_ell = 6;
  opt.incremental = false;
  Result<std::unique_ptr<OnlineIim>> r =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("incremental"), std::string::npos);
}

TEST(AdaptiveValidationTest, RejectsFrozenValidationSample) {
  data::Table full = HeterogeneousTable(10, 3, 1);
  core::IimOptions opt;
  opt.adaptive = true;
  opt.max_ell = 6;
  opt.validation_sample = 5;
  Result<std::unique_ptr<OnlineIim>> r =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("validation_sample"),
            std::string::npos);
  // An adaptive engine that satisfies all three requirements is accepted.
  opt.validation_sample = 0;
  EXPECT_TRUE(OnlineIim::Create(full.schema(), 2, {0, 1}, opt).ok());
}

// --- Service counter surfacing ----------------------------------------

TEST(AdaptiveServiceTest, SurfacesMaintenanceCounters) {
  data::Table full = HeterogeneousTable(120, 3, 9);
  core::IimOptions opt = AdaptiveOptions();
  opt.window_size = 60;
  Result<std::unique_ptr<OnlineIim>> engine_r =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine_r.ok());

  ImputationService service(engine_r.value().get());
  // Imputations interleave with the arrivals: each impute SOLVES its
  // neighbors' models, and the next arrivals then invalidate only the
  // solved holders whose orders they actually enter — a pure ingest run
  // would leave every holder dirty-from-birth and the invalidation
  // counter untouched.
  for (size_t i = 0; i < 100; ++i) {
    service.SubmitIngest(full.Row(i).ToVector());
    if (i >= 20 && i % 10 == 0) {
      service.SubmitImpute(Probe(full, 100 + i / 10, 2));
    }
  }
  // A second wave of the same probes against a quiescent engine: these
  // hit still-clean maintained models (no mutation in between).
  service.Drain();
  for (size_t i = 102; i < 110; ++i) {
    service.SubmitImpute(Probe(full, i, 2));
  }
  service.Drain();
  service.Pause();
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.ingests, 100u);
  EXPECT_EQ(stats.imputations, 16u);
  EXPECT_GT(stats.engine.core.holders_invalidated, 0u);
  EXPECT_GT(stats.engine.core.models_reused, 0u);
  service.Resume();
  service.Shutdown();
}

// --- Snapshot round trip ----------------------------------------------

// Serialize an adaptive engine mid-stream, restore into a fresh one, and
// require indistinguishable behavior: same imputations and — after MORE
// arrivals pushed through both — still the same bits. The image holds
// only the window, so a restored tuple's chosen l reads 0 until its model
// is next evaluated, as a fresh arrival's does. With k = window one
// imputation evaluates every live model (as in
// ChosenEllsMatchBatchOnPureIngestStream), and the chosen l then matches
// the writer's and a batch LearnAdaptive's on table(), entry for entry.
TEST(AdaptiveSnapshotTest, EngineRoundTripBitIdentical) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(140, 3, 21);
  core::IimOptions opt = AdaptiveOptions();
  opt.window_size = 40;
  opt.k = opt.window_size;

  Result<std::unique_ptr<OnlineIim>> a_r =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(a_r.ok());
  OnlineIim& a = *a_r.value();
  for (size_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(a.Ingest(full.Row(i)).ok());
  }
  data::Table probe(data::Schema::Default(3));
  ASSERT_TRUE(probe.AppendRow(Probe(full, 130, target)).ok());
  ASSERT_TRUE(a.ImputeOne(probe.Row(0)).ok());  // models solved

  std::string bytes = a.SerializeSnapshot();
  Result<std::unique_ptr<OnlineIim>> b_r =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(b_r.ok());
  OnlineIim& b = *b_r.value();
  ASSERT_TRUE(b.RestoreFromSnapshot(bytes).ok());

  ASSERT_EQ(b.size(), a.size());
  EXPECT_TRUE(b.VerifyPostings());
  for (uint64_t arrival = 40; arrival < 80; ++arrival) {
    EXPECT_EQ(b.ChosenEllByArrival(arrival), 0u) << "arrival " << arrival;
  }
  Result<double> va = a.ImputeOne(probe.Row(0));
  Result<double> vb = b.ImputeOne(probe.Row(0));
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(vb.value(), va.value());

  data::Table window = b.table();
  core::IimImputer batch(opt);
  ASSERT_TRUE(batch.Fit(window, target, features).ok());
  const std::vector<size_t>& want = batch.adaptive_stats().chosen_ell;
  ASSERT_EQ(want.size(), b.size());
  for (uint64_t arrival = 40; arrival < 80; ++arrival) {
    EXPECT_EQ(b.ChosenEllByArrival(arrival), a.ChosenEllByArrival(arrival))
        << "arrival " << arrival;
    EXPECT_EQ(b.ChosenEllByArrival(arrival), want[arrival - 40])
        << "arrival " << arrival;
  }

  // The restored state machine continues identically, not just reads
  // identically.
  for (size_t i = 80; i < 110; ++i) {
    ASSERT_TRUE(a.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(b.Ingest(full.Row(i)).ok());
  }
  va = a.ImputeOne(probe.Row(0));
  vb = b.ImputeOne(probe.Row(0));
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(vb.value(), va.value());

  // A fixed-l engine refuses the adaptive image: restoring state that
  // would answer differently is a config mismatch, not a merge.
  core::IimOptions fixed = opt;
  fixed.adaptive = false;
  Result<std::unique_ptr<OnlineIim>> c_r =
      OnlineIim::Create(full.schema(), target, features, fixed);
  ASSERT_TRUE(c_r.ok());
  EXPECT_EQ(c_r.value()->RestoreFromSnapshot(bytes).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace iim::stream
