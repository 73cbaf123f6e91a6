// Chaos harness: fail-point injection, request deadlines, degradation and
// recovery semantics (src/common/failpoint + the engine/service wiring).
//
// Three layers of contract under attack:
//
//   1. The fail-point framework itself: triggers (probability, once,
//      every-Nth), actions (error, latency, crash), arm/disarm/stats.
//   2. Engine fault semantics: a failed durable append rejects the op
//      UNAPPLIED; exhausted retries step the sticky health ladder
//      (healthy -> degraded -> read-only); RecoverDurability() is the
//      only way back; durably-acked ops survive kill-and-recover
//      bitwise against a never-faulted reference.
//   3. Service semantics under faults: deadlines expire without engine
//      work, overload reroutes imputes to the fallback imputer,
//      injected drain/batch faults never hang a future, and Shutdown
//      always completes — every submitted future resolves exactly once
//      no matter how the fault schedule interleaves.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream/persist/io.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

constexpr int kTarget = 3;
const std::vector<int>& Features() {
  static const std::vector<int> f = {0, 1, 2};
  return f;
}

class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/iim_chaos_XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got == nullptr ? std::string() : got;
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    Result<std::vector<std::string>> entries = persist::ListDir(path_);
    if (entries.ok()) {
      for (const std::string& e : entries.value()) {
        Status st = persist::RemoveFile(path_ + "/" + e);
        (void)st;
      }
    }
    rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

core::IimOptions ChaosOptions() {
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 5;
  opt.threads = 1;
  opt.window_size = 40;
  return opt;
}

std::unique_ptr<OnlineIim> MakeEngine(const data::Table& src,
                                      const core::IimOptions& opt) {
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(src.schema(), kTarget, Features(), opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

std::vector<std::vector<double>> MakeProbes(const data::Table& src,
                                            size_t count) {
  std::vector<std::vector<double>> probes;
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(Probe(src, (i * 13) % src.NumRows(), kTarget));
  }
  return probes;
}

// Bitwise engine-state comparison: live set, window rows, and the
// imputations `probes` produce (the recovery suite's stronger order-level
// comparison is not needed here — imputed values are a function of the
// full maintained state).
void ExpectEngineStateEq(OnlineIim* got, OnlineIim* want,
                         const std::vector<std::vector<double>>& probes,
                         const std::string& where) {
  ASSERT_EQ(got->size(), want->size()) << where;
  const data::Table& tg = got->table();
  const data::Table& tw = want->table();
  ASSERT_EQ(tg.NumRows(), tw.NumRows()) << where;
  for (size_t i = 0; i < tw.NumRows(); ++i) {
    for (size_t j = 0; j < tw.NumCols(); ++j) {
      ASSERT_EQ(tg.At(i, j), tw.At(i, j)) << where << " row " << i;
    }
  }
  EXPECT_TRUE(got->VerifyPostings()) << where;
  for (size_t p = 0; p < probes.size(); ++p) {
    data::RowView view(probes[p].data(), probes[p].size());
    Result<double> rg = got->ImputeOne(view);
    Result<double> rw = want->ImputeOne(view);
    ASSERT_EQ(rg.ok(), rw.ok()) << where << " probe " << p;
    if (rw.ok()) {
      ASSERT_EQ(rg.value(), rw.value()) << where << " probe " << p;
    }
  }
}

// Every suite disarms on entry AND exit so a failed test cannot leak an
// armed point into its neighbors.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisableAll(); }
  void TearDown() override { fail::DisableAll(); }
};

// ---------------------------------------------------------------------------
// Crash action (suite name ends in DeathTest so gtest runs these first,
// before other suites have spawned background threads).

using ChaosDeathTest = ChaosTest;

TEST_F(ChaosDeathTest, CrashActionTerminatesWithCode42) {
  fail::Spec crash;
  crash.action = fail::Spec::Action::kCrash;
  EXPECT_EXIT(
      {
        fail::Enable("unit.crash", crash);
        (void)fail::Inject("unit.crash");
      },
      ::testing::ExitedWithCode(42), "");
}

TEST_F(ChaosDeathTest, DurablyAckedOpsSurviveACrashMidAppend) {
  data::Table src = HeterogeneousTable(60, 4, 31);
  core::IimOptions opt = ChaosOptions();
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;  // every acked op is on disk before the ack

  constexpr size_t kAcked = 25;
  // The child ingests kAcked rows durably, then arms a crash on the next
  // write-ahead append: the process dies WITHOUT destructors (a genuine
  // crash), leaving exactly the acked prefix on disk.
  EXPECT_EXIT(
      {
        std::unique_ptr<OnlineIim> child = MakeEngine(src, popt);
        for (size_t i = 0; i < kAcked; ++i) {
          Status st = child->Ingest(src.Row(i));
          if (!st.ok()) std::_Exit(3);  // wrong exit -> test fails
        }
        fail::Spec crash;
        crash.action = fail::Spec::Action::kCrash;
        fail::Enable("wal.append", crash);
        (void)child->Ingest(src.Row(kAcked));
        std::_Exit(4);  // unreachable: the append must crash first
      },
      ::testing::ExitedWithCode(42), "");

  // Recover in THIS process and compare against a never-crashed engine
  // that applied exactly the acked prefix.
  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  ASSERT_NE(recovered, nullptr);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, opt);
  for (size_t i = 0; i < kAcked; ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(recovered.get(), reference.get(), MakeProbes(src, 4),
                      "crash-recover");
}

// ---------------------------------------------------------------------------
// The fail-point framework

using FailPointTest = ChaosTest;

TEST_F(FailPointTest, DisarmedPointsAreFree) {
  EXPECT_EQ(fail::ArmedCount().load(), 0);
  EXPECT_TRUE(fail::Inject("never.armed").ok());
  EXPECT_FALSE(fail::IsEnabled("never.armed"));
  EXPECT_TRUE(fail::ActivePoints().empty());
  fail::PointStats st = fail::GetStats("never.armed");
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.fires, 0u);
}

TEST_F(FailPointTest, ErrorActionInjectsTheConfiguredStatus) {
  fail::Spec spec;
  spec.code = StatusCode::kIoError;
  spec.message = "disk on fire";
  fail::Enable("unit.err", spec);
  EXPECT_EQ(fail::ArmedCount().load(), 1);
  EXPECT_TRUE(fail::IsEnabled("unit.err"));

  Status st = fail::Inject("unit.err");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("unit.err"), std::string::npos);
  EXPECT_NE(st.message().find("disk on fire"), std::string::npos);
  fail::PointStats ps = fail::GetStats("unit.err");
  EXPECT_EQ(ps.hits, 1u);
  EXPECT_EQ(ps.fires, 1u);

  // An armed point does not leak onto other names.
  EXPECT_TRUE(fail::Inject("unit.other").ok());

  fail::Disable("unit.err");
  EXPECT_EQ(fail::ArmedCount().load(), 0);
  EXPECT_TRUE(fail::Inject("unit.err").ok());
  // Stats survive disarm (until the next Enable zeroes them).
  EXPECT_EQ(fail::GetStats("unit.err").fires, 1u);
}

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  fail::Spec spec;
  spec.once = true;
  fail::Enable("unit.once", spec);
  EXPECT_FALSE(fail::Inject("unit.once").ok());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fail::Inject("unit.once").ok());
  fail::PointStats ps = fail::GetStats("unit.once");
  EXPECT_EQ(ps.hits, 6u);
  EXPECT_EQ(ps.fires, 1u);
}

TEST_F(FailPointTest, EveryNthFiresOnMultiples) {
  fail::Spec spec;
  spec.every_nth = 3;
  fail::Enable("unit.nth", spec);
  size_t fires = 0;
  for (int i = 1; i <= 9; ++i) {
    if (!fail::Inject("unit.nth").ok()) {
      ++fires;
      EXPECT_EQ(i % 3, 0) << "fired on hit " << i;
    }
  }
  EXPECT_EQ(fires, 3u);
}

TEST_F(FailPointTest, ProbabilityGatesFiring) {
  fail::Spec never;
  never.probability = 0.0;
  fail::Enable("unit.p0", never);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(fail::Inject("unit.p0").ok());
  EXPECT_EQ(fail::GetStats("unit.p0").fires, 0u);

  fail::Spec sometimes;
  sometimes.probability = 0.5;
  sometimes.seed = 7;
  fail::Enable("unit.p50", sometimes);
  size_t fires = 0;
  for (int i = 0; i < 200; ++i) {
    if (!fail::Inject("unit.p50").ok()) ++fires;
  }
  EXPECT_GT(fires, 50u);   // 200 draws at p=0.5: far from either edge
  EXPECT_LT(fires, 150u);
  EXPECT_EQ(fail::GetStats("unit.p50").fires, fires);
}

TEST_F(FailPointTest, LatencyActionDelaysThenSucceeds) {
  fail::Spec spec;
  spec.action = fail::Spec::Action::kLatency;
  spec.latency_seconds = 0.05;
  spec.once = true;
  fail::Enable("unit.slow", spec);
  Stopwatch timer;
  EXPECT_TRUE(fail::Inject("unit.slow").ok());
  EXPECT_GE(timer.ElapsedSeconds(), 0.04);
  EXPECT_EQ(fail::GetStats("unit.slow").fires, 1u);
}

TEST_F(FailPointTest, EnableReplacesSpecAndZeroesStats) {
  fail::Spec spec;
  fail::Enable("unit.re", spec);
  EXPECT_FALSE(fail::Inject("unit.re").ok());
  EXPECT_EQ(fail::GetStats("unit.re").fires, 1u);

  spec.probability = 0.0;
  fail::Enable("unit.re", spec);  // re-arm: stats restart from zero
  EXPECT_EQ(fail::GetStats("unit.re").fires, 0u);
  EXPECT_TRUE(fail::Inject("unit.re").ok());
  EXPECT_EQ(fail::ArmedCount().load(), 1);

  fail::Enable("unit.re2", spec);
  std::vector<std::string> active = fail::ActivePoints();
  EXPECT_EQ(active.size(), 2u);
  fail::DisableAll();
  EXPECT_EQ(fail::ArmedCount().load(), 0);
  EXPECT_TRUE(fail::ActivePoints().empty());
}

// ---------------------------------------------------------------------------
// Engine fault semantics: the health ladder

using HealthLadderTest = ChaosTest;

TEST_F(HealthLadderTest, WalFaultRejectsUnappliedAndDegradesStickily) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());
  EXPECT_EQ(e->Health(), HealthState::kHealthy);

  fail::Spec spec;
  spec.once = true;
  fail::Enable("wal.append", spec);
  Status st = e->Ingest(src.Row(10));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(e->size(), 10u);  // rejected UNAPPLIED
  EXPECT_EQ(e->Health(), HealthState::kDegraded);

  // Sticky: the fail point is spent, so the log is writable again — but a
  // lucky later append must not hide the hole. Mutations stay rejected;
  // imputations keep serving.
  st = e->Ingest(src.Row(10));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  std::vector<double> probe = Probe(src, 20, kTarget);
  EXPECT_TRUE(e->ImputeOne(data::RowView(probe.data(), probe.size())).ok());

  OnlineIim::Stats stats = e->stats();
  EXPECT_EQ(stats.degraded_rejected, 2u);
  EXPECT_EQ(stats.health_transitions, 1u);

  // The explicit way back: recovery publishes a covering snapshot and
  // re-opens the gate.
  ASSERT_TRUE(e->RecoverDurability().ok());
  EXPECT_EQ(e->Health(), HealthState::kHealthy);
  EXPECT_TRUE(e->Ingest(src.Row(10)).ok());
  EXPECT_EQ(e->stats().health_transitions, 2u);
}

TEST_F(HealthLadderTest, BoundedRetriesRideOutATransientFault) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.wal_retry_attempts = 3;
  popt.wal_retry_base = 1e-4;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());

  fail::Spec spec;
  spec.once = true;  // transient: first attempt fails, the retry lands
  fail::Enable("wal.append", spec);
  EXPECT_TRUE(e->Ingest(src.Row(5)).ok());
  EXPECT_EQ(e->Health(), HealthState::kHealthy);  // never degraded
  EXPECT_EQ(e->size(), 6u);
  EXPECT_GE(e->stats().wal_retries, 1u);
  EXPECT_EQ(e->durable_ops(), 6u);  // the op IS in the log
}

TEST_F(HealthLadderTest, FsyncFaultExercisesTheRollbackPath) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.wal_retry_attempts = 2;
  popt.wal_retry_base = 1e-4;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());

  // A failed fsync truncates the half-appended record before the retry
  // re-appends it: the log must end up with exactly one copy.
  fail::Spec spec;
  spec.once = true;
  fail::Enable("wal.fsync", spec);
  EXPECT_TRUE(e->Ingest(src.Row(5)).ok());
  EXPECT_EQ(e->durable_ops(), 6u);
  fail::DisableAll();

  // Kill and recover: a duplicated record would replay a 7th ingest.
  e.reset();
  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, ChaosOptions());
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(recovered.get(), reference.get(), MakeProbes(src, 3),
                      "fsync-rollback");
}

TEST_F(HealthLadderTest, AcceptNonDurableEscalatesToReadOnly) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.degraded_ingest = core::IimOptions::DegradedIngest::kAcceptNonDurable;
  popt.max_nondurable_ops = 3;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());

  fail::Spec spec;  // the log stays broken
  fail::Enable("wal.append", spec);
  for (size_t i = 10; i < 13; ++i) {
    Status st = e->Ingest(src.Row(i));
    EXPECT_TRUE(st.ok());                 // accepted...
    EXPECT_TRUE(st.nondurable()) << i;    // ...flagged non-durable
  }
  EXPECT_EQ(e->size(), 13u);  // applied, unlike the kReject policy
  EXPECT_EQ(e->Health(), HealthState::kReadOnly);  // debt hit the cap
  EXPECT_EQ(e->Ingest(src.Row(13)).code(), StatusCode::kUnavailable);
  OnlineIim::Stats stats = e->stats();
  EXPECT_EQ(stats.nondurable_ops, 3u);
  EXPECT_EQ(stats.health_transitions, 2u);  // healthy->degraded->read-only

  // Recovery folds the debt into a covering snapshot: afterwards a crash
  // loses nothing.
  fail::DisableAll();
  ASSERT_TRUE(e->RecoverDurability().ok());
  EXPECT_EQ(e->Health(), HealthState::kHealthy);
  ASSERT_TRUE(e->Ingest(src.Row(13)).ok());
  e.reset();

  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, ChaosOptions());
  for (size_t i = 0; i < 14; ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(recovered.get(), reference.get(), MakeProbes(src, 3),
                      "post-recovery");
}

TEST_F(HealthLadderTest, CrashBeforeRecoveryLosesExactlyTheNonDurableOps) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.degraded_ingest = core::IimOptions::DegradedIngest::kAcceptNonDurable;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());

  fail::Spec spec;
  fail::Enable("wal.append", spec);
  for (size_t i = 10; i < 15; ++i) EXPECT_TRUE(e->Ingest(src.Row(i)).ok());
  EXPECT_EQ(e->size(), 15u);
  fail::DisableAll();
  e.reset();  // crash WITHOUT RecoverDurability()

  // The recovered engine holds the durable prefix only — the five
  // flagged ops are gone, exactly as their acks warned.
  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, ChaosOptions());
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(recovered.get(), reference.get(), MakeProbes(src, 3),
                      "durable-prefix");
}

TEST_F(HealthLadderTest, SnapshotPublishFaultIsCountedNotFatal) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  std::unique_ptr<OnlineIim> e = MakeEngine(src, popt);
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());

  fail::Spec spec;
  fail::Enable("snapshot.publish", spec);
  EXPECT_FALSE(e->SaveSnapshot().ok());
  EXPECT_GE(e->stats().snapshot_write_failures, 1u);
  // The engine keeps serving and logging: durability rides the WAL.
  EXPECT_TRUE(e->Ingest(src.Row(10)).ok());
  EXPECT_EQ(e->Health(), HealthState::kHealthy);
  fail::DisableAll();
  EXPECT_TRUE(e->SaveSnapshot().ok());

  e.reset();
  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, ChaosOptions());
  for (size_t i = 0; i < 11; ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(recovered.get(), reference.get(), MakeProbes(src, 3),
                      "snapshot-fault");
}

// ---------------------------------------------------------------------------
// Randomized kill-and-recover differential

using ChaosRecoveryTest = ChaosTest;

TEST_F(ChaosRecoveryTest, AckedOpsSurviveRandomFaultSchedules) {
  data::Table src = HeterogeneousTable(140, 4, 23);
  std::vector<ScheduleOp> ops = MakeSchedule(9, 110, 10, 0.2, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 4);

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ScopedTempDir dir;
    core::IimOptions popt = ChaosOptions();
    popt.persist_dir = dir.path();
    popt.wal_fsync_every = 1;
    popt.snapshot_every = 25;
    std::unique_ptr<OnlineIim> crashy = MakeEngine(src, popt);
    std::unique_ptr<OnlineIim> reference = MakeEngine(src, ChaosOptions());

    // Random faults at every persistence seam at once. kReject policy:
    // an acked op is always durably logged, so the recovered timeline
    // must equal the acked timeline bit for bit.
    fail::Spec wal;
    wal.probability = 0.3;
    wal.seed = seed;
    fail::Enable("wal.append", wal);
    fail::Spec fsync = wal;
    fsync.probability = 0.15;
    fsync.seed = seed + 100;
    fail::Enable("wal.fsync", fsync);
    fail::Spec snap = wal;
    snap.seed = seed + 200;
    fail::Enable("snapshot.publish", snap);

    size_t acked = 0, rejected = 0;
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) continue;
      Status st = op.kind == ScheduleOp::kIngest
                      ? crashy->Ingest(src.Row(op.src_row))
                      : crashy->Evict(op.arrival);
      if (st.ok()) {
        EXPECT_FALSE(st.nondurable());  // kReject never acks non-durably
        Status rs = op.kind == ScheduleOp::kIngest
                        ? reference->Ingest(src.Row(op.src_row))
                        : reference->Evict(op.arrival);
        ASSERT_TRUE(rs.ok()) << rs.ToString();
        ++acked;
      } else if (st.code() == StatusCode::kUnavailable) {
        ++rejected;
        // Try to climb back; under an armed snapshot.publish the attempt
        // may itself fail — the engine just stays degraded.
        Status rec = crashy->RecoverDurability();
        (void)rec;
      }
      // Any other code (e.g. NotFound evicts) must agree with the
      // reference by construction: both engines hold the same state.
    }
    ASSERT_GT(acked, 0u) << "schedule applied nothing";
    ASSERT_GT(rejected, 0u) << "fault schedule never fired";
    fail::DisableAll();

    crashy.reset();  // kill; recover from disk alone
    std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
    ExpectEngineStateEq(recovered.get(), reference.get(), probes,
                        "seed " + std::to_string(seed));
  }
}

TEST_F(ChaosRecoveryTest, FaultedIndexRebuildsAreAbandonedAndRelaunched) {
  data::Table src = HeterogeneousTable(220, 4, 29);
  core::IimOptions opt = ChaosOptions();
  opt.window_size = 0;  // grow: forces repeated KD-tree rebuild launches
  std::unique_ptr<OnlineIim> faulted = MakeEngine(src, opt);
  std::unique_ptr<OnlineIim> reference = MakeEngine(src, opt);

  // Phase 1, fault-free: a first tree installs.
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(faulted->Ingest(src.Row(i)).ok());
  }
  faulted->WaitForIndexRebuild();
  ASSERT_GE(faulted->index().stats().swaps, 1u);
  size_t swaps_before = faulted->index().stats().swaps;

  // Phase 2: EVERY rebuild dies mid-build. Builds keep launching (the
  // tail keeps growing past the policy threshold) and every one is
  // discarded at install time instead of publishing a corrupt tree.
  fail::Spec spec;
  fail::Enable("index.rebuild", spec);
  for (size_t i = 60; i < 120; ++i) {
    ASSERT_TRUE(faulted->Ingest(src.Row(i)).ok());
  }
  faulted->WaitForIndexRebuild();
  EXPECT_GE(fail::GetStats("index.rebuild").fires, 1u);
  EXPECT_GE(faulted->index().stats().discarded, 1u);
  EXPECT_EQ(faulted->index().stats().swaps, swaps_before);

  // Phase 3: faults clear; the tail policy relaunches and a fresh tree
  // finally lands.
  fail::DisableAll();
  for (size_t i = 120; i < src.NumRows(); ++i) {
    ASSERT_TRUE(faulted->Ingest(src.Row(i)).ok());
  }
  faulted->WaitForIndexRebuild();
  EXPECT_GT(faulted->index().stats().swaps, swaps_before);

  // Answers never depend on which builds survived.
  for (size_t i = 0; i < src.NumRows(); ++i) {
    ASSERT_TRUE(reference->Ingest(src.Row(i)).ok());
  }
  ExpectEngineStateEq(faulted.get(), reference.get(), MakeProbes(src, 4),
                      "index-chaos");
}

// ---------------------------------------------------------------------------
// Service: deadlines, fallback, injected faults, shutdown races

using ChaosServiceTest = ChaosTest;

TEST_F(ChaosServiceTest, ExpiredRequestsResolveWithoutEngineWork) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService service(engine.get());

  service.Pause();  // hold the drain so the deadline passes in-queue
  std::future<Status> doomed =
      service.SubmitIngest(src.Row(0).ToVector(), 0.005);
  std::future<Result<double>> doomed_probe =
      service.SubmitImpute(Probe(src, 1, kTarget), 0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.Resume();
  service.Drain();

  EXPECT_EQ(doomed.get().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(doomed_probe.get().status().code(),
            StatusCode::kDeadlineExceeded);
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 2u);
  EXPECT_EQ(stats.queue_shed, 0u);  // distinct from the overload shed
  EXPECT_EQ(stats.ingests, 0u);     // the engine never saw either
  EXPECT_EQ(engine->size(), 0u);
}

TEST_F(ChaosServiceTest, DefaultDeadlineAppliesAndZeroMeansNone) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService::Options sopt;
  sopt.default_deadline = 0.005;
  ImputationService service(engine.get(), sopt);

  service.Pause();
  std::future<Status> defaulted = service.SubmitIngest(src.Row(0).ToVector());
  std::future<Status> unbounded =
      service.SubmitIngest(src.Row(1).ToVector(), 0.0);  // override: none
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.Resume();
  service.Drain();

  EXPECT_EQ(defaulted.get().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(unbounded.get().ok());
  EXPECT_EQ(engine->size(), 1u);
}

TEST_F(ChaosServiceTest, OverloadRoutesImputesToTheFallback) {
  data::Table src = HeterogeneousTable(80, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService::Options sopt;
  sopt.max_batch = 8;
  sopt.fallback_watermark = 4;
  ImputationService service(engine.get(), sopt);
  std::vector<std::future<Status>> fed;
  for (size_t i = 0; i < 30; ++i) {
    fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
  }
  service.Drain();
  for (auto& f : fed) ASSERT_TRUE(f.get().ok());

  service.Pause();  // queue all 30 imputes before the drain restarts
  std::vector<std::future<Result<double>>> answers;
  for (size_t i = 0; i < 30; ++i) {
    answers.push_back(service.SubmitImpute(Probe(src, 40, kTarget)));
  }
  service.Resume();
  service.Drain();
  for (auto& f : answers) EXPECT_TRUE(f.get().ok());

  // Batches of 8,8,8,6: the first three leave >= 4 queued behind them and
  // reroute; the last sees an empty backlog and uses the engine.
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.imputations, 30u);
  EXPECT_EQ(stats.fallback_imputes, 24u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST_F(ChaosServiceTest, InjectedBatchFaultResolvesEveryRequest) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService service(engine.get());
  std::vector<std::future<Status>> fed;
  for (size_t i = 0; i < 10; ++i) {
    fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
  }
  service.Drain();
  for (auto& f : fed) ASSERT_TRUE(f.get().ok());

  fail::Spec spec;
  spec.once = true;
  spec.code = StatusCode::kInternal;
  fail::Enable("service.batch", spec);
  service.Pause();
  std::vector<std::future<Result<double>>> answers;
  for (size_t i = 0; i < 5; ++i) {
    answers.push_back(service.SubmitImpute(Probe(src, 20, kTarget)));
  }
  service.Resume();
  service.Drain();
  // The whole popped micro-batch resolves to the injected status; the
  // engine is never touched, so serve counters stand still.
  for (auto& f : answers) {
    EXPECT_EQ(f.get().status().code(), StatusCode::kInternal);
  }
  EXPECT_EQ(service.stats().imputations, 0u);
  EXPECT_EQ(engine->stats().imputed, 0u);
}

TEST_F(ChaosServiceTest, HealthSurfacesThroughServiceStats) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, popt);
  ImputationService service(engine.get());
  std::vector<std::future<Status>> fed;
  for (size_t i = 0; i < 10; ++i) {
    fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
  }
  service.Drain();
  for (auto& f : fed) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(service.Health(), HealthState::kHealthy);

  fail::Spec spec;
  fail::Enable("wal.append", spec);
  std::vector<std::future<Status>> refused;
  for (size_t i = 10; i < 15; ++i) {
    refused.push_back(service.SubmitIngest(src.Row(i).ToVector()));
  }
  service.Drain();
  for (auto& f : refused) {
    EXPECT_EQ(f.get().code(), StatusCode::kUnavailable);
  }
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.engine.health, HealthState::kDegraded);
  EXPECT_EQ(service.Health(), HealthState::kDegraded);
  EXPECT_EQ(stats.engine.degraded_rejected, 5u);
  EXPECT_EQ(stats.engine.health_transitions, 1u);
  // Imputations keep serving while degraded.
  std::future<Result<double>> probe =
      service.SubmitImpute(Probe(src, 20, kTarget));
  EXPECT_TRUE(probe.get().ok());
}

// Field-for-field equality of two engine records. OrderCore::Counters
// holds only size_t fields, so its bytes are its fields.
void ExpectSameRecord(const OnlineIim::Stats& a, const OnlineIim::Stats& b) {
  EXPECT_EQ(a.ingested, b.ingested);
  EXPECT_EQ(a.imputed, b.imputed);
  EXPECT_EQ(std::memcmp(&a.core, &b.core, sizeof(a.core)), 0);
  EXPECT_EQ(a.snapshots_written, b.snapshots_written);
  EXPECT_EQ(a.snapshot_write_failures, b.snapshot_write_failures);
  EXPECT_EQ(a.snapshots_loaded, b.snapshots_loaded);
  EXPECT_EQ(a.log_records_replayed, b.log_records_replayed);
  EXPECT_EQ(a.max_snapshot_serialize_seconds,
            b.max_snapshot_serialize_seconds);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.wal_retries, b.wal_retries);
  EXPECT_EQ(a.nondurable_ops, b.nondurable_ops);
  EXPECT_EQ(a.degraded_rejected, b.degraded_rejected);
  EXPECT_EQ(a.health_transitions, b.health_transitions);
  EXPECT_EQ(a.moo_probes, b.moo_probes);
  EXPECT_EQ(a.moo_skipped, b.moo_skipped);
  EXPECT_EQ(a.routed_serves, b.routed_serves);
  EXPECT_EQ(a.ensemble_serves, b.ensemble_serves);
  EXPECT_EQ(a.champion_switches, b.champion_switches);
  EXPECT_EQ(a.quality.champion, b.quality.champion);
  for (int m = 0; m < kQualityMethods; ++m) {
    EXPECT_EQ(a.quality.samples[m], b.quality.samples[m]) << m;
    EXPECT_EQ(a.quality.ewma_abs[m], b.quality.ewma_abs[m]) << m;
    EXPECT_EQ(a.quality.ewma_rms[m], b.quality.ewma_rms[m]) << m;
    EXPECT_EQ(a.quality.abs_error[m].p50, b.quality.abs_error[m].p50) << m;
    EXPECT_EQ(a.quality.abs_error[m].p99, b.quality.abs_error[m].p99) << m;
    EXPECT_EQ(a.quality.abs_error[m].max, b.quality.abs_error[m].max) << m;
  }
}

// The service embeds the engine's whole record: at a quiesce point it
// reads, field for field, what the engine itself reports. A recovered,
// monitored, windowed engine that then degrades gives the cursors, the
// core counters, durability, health and quality all a value to carry.
TEST_F(ChaosServiceTest, ServiceCarriesTheEngineRecordWhole) {
  data::Table src = HeterogeneousTable(120, 4, 23);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.snapshot_every = 16;
  popt.wal_retry_attempts = 1;
  popt.wal_retry_base = 1e-4;
  popt.moo_sample_rate = 0.25;
  {
    // A blocking snapshot at 40 ops is the newest: the next one is due at
    // 56, so exactly 10 records follow it in the log.
    std::unique_ptr<OnlineIim> first = MakeEngine(src, popt);
    for (size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(first->Ingest(src.Row(i)).ok());
      if (i == 39) {
        ASSERT_TRUE(first->SaveSnapshot().ok());
      }
    }
  }
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, popt);
  ImputationService service(engine.get());
  std::vector<std::future<Status>> fed;
  std::vector<std::future<Result<double>>> answered;
  for (size_t i = 50; i < 100; ++i) {
    fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
    if (i % 5 == 0) {
      answered.push_back(service.SubmitImpute(Probe(src, i, kTarget)));
    }
  }
  service.Drain();
  for (auto& f : fed) ASSERT_TRUE(f.get().ok());
  for (auto& f : answered) ASSERT_TRUE(f.get().ok());
  fail::Enable("wal.append", fail::Spec());
  for (size_t i = 100; i < 103; ++i) {
    EXPECT_EQ(service.SubmitIngest(src.Row(i).ToVector()).get().code(),
              StatusCode::kUnavailable);
  }

  service.Pause();
  const OnlineIim::Stats carried = service.stats().engine;
  const OnlineIim::Stats direct = engine->stats();
  service.Resume();
  ExpectSameRecord(carried, direct);
  EXPECT_EQ(carried.ingested, 100u);
  EXPECT_EQ(carried.imputed, 10u);
  EXPECT_GT(carried.core.evicted, 0u);
  EXPECT_GT(carried.core.models_solved, 0u);
  EXPECT_GT(carried.core.orders_scanned, 0u);
  EXPECT_EQ(carried.snapshots_loaded, 1u);
  EXPECT_EQ(carried.log_records_replayed, 10u);
  EXPECT_EQ(carried.health, HealthState::kDegraded);
  EXPECT_EQ(carried.degraded_rejected, 3u);
  EXPECT_GE(carried.wal_retries, 1u);
  EXPECT_EQ(carried.health_transitions, 1u);
  EXPECT_GT(carried.moo_probes, 0u);
  EXPECT_GT(carried.quality.samples[kQualityIim], 0u);
}

TEST_F(ChaosServiceTest, RandomFaultScheduleNeverHangsOrLosesAFuture) {
  data::Table src = HeterogeneousTable(200, 4, 41);
  ScopedTempDir dir;
  core::IimOptions popt = ChaosOptions();
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  popt.wal_retry_attempts = 1;
  popt.wal_retry_base = 1e-4;
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, popt);
  ImputationService::Options sopt;
  sopt.max_batch = 8;
  sopt.max_queue = 64;
  sopt.fallback_watermark = 16;
  {
    ImputationService service(engine.get(), sopt);

    fail::Spec wal;
    wal.probability = 0.2;
    wal.seed = 5;
    fail::Enable("wal.append", wal);
    fail::Spec batch;
    batch.probability = 0.05;
    batch.seed = 6;
    batch.code = StatusCode::kInternal;
    fail::Enable("service.batch", batch);
    fail::Spec drain;
    drain.action = fail::Spec::Action::kLatency;
    drain.latency_seconds = 0.001;
    drain.probability = 0.1;
    drain.seed = 7;
    fail::Enable("service.drain", drain);
    fail::Spec snap;
    snap.probability = 0.3;
    snap.seed = 8;
    fail::Enable("snapshot.publish", snap);

    Rng rng(97);
    std::vector<std::future<Status>> muts;
    std::vector<std::future<Result<double>>> imps;
    for (size_t i = 0; i < src.NumRows(); ++i) {
      double deadline = rng.Bernoulli(0.3) ? 0.002 : 0.0;
      if (rng.Bernoulli(0.25)) {
        imps.push_back(
            service.SubmitImpute(Probe(src, i, kTarget), deadline));
      } else {
        muts.push_back(
            service.SubmitIngest(src.Row(i).ToVector(), deadline));
      }
      if (rng.Bernoulli(0.1)) {
        muts.push_back(service.SubmitEvict(rng.UniformInt(0, 50)));
      }
    }
    // Every future resolves with SOME status — deadline misses, sheds,
    // injected faults and degraded rejections included — and Shutdown
    // completes with the fault schedule still armed.
    service.Shutdown();
    size_t mut_total = muts.size(), imp_total = imps.size();
    for (auto& f : muts) (void)f.get();
    for (auto& f : imps) (void)f.get();
    ImputationService::Stats stats = service.stats();
    EXPECT_GT(mut_total + imp_total, 0u);
    EXPECT_LE(stats.queue_shed + stats.deadline_expired +
                  stats.shutdown_rejected,
              mut_total + imp_total);
  }
  fail::DisableAll();

  // The engine is still coherent: recover durability if needed and keep
  // going, then kill-and-recover must come back valid.
  if (engine->Health() != HealthState::kHealthy) {
    ASSERT_TRUE(engine->RecoverDurability().ok());
  }
  ASSERT_TRUE(engine->Ingest(src.Row(0)).ok());
  EXPECT_TRUE(engine->VerifyPostings());
  size_t live = engine->size();
  engine.reset();
  std::unique_ptr<OnlineIim> recovered = MakeEngine(src, popt);
  EXPECT_EQ(recovered->size(), live);
  EXPECT_TRUE(recovered->VerifyPostings());
}

// ---------------------------------------------------------------------------
// Service lifecycle edges (no faults armed)

using ServiceEdgeTest = ChaosTest;

TEST_F(ServiceEdgeTest, DrainOnPausedServiceUnblocksOnResume) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService service(engine.get());
  service.Pause();
  std::vector<std::future<Status>> fed;
  for (size_t i = 0; i < 5; ++i) {
    fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
  }
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    service.Drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());  // paused with queued work: Drain blocks
  service.Resume();
  waiter.join();
  EXPECT_TRUE(drained.load());
  for (auto& f : fed) EXPECT_TRUE(f.get().ok());
}

TEST_F(ServiceEdgeTest, PauseShutdownRaceResolvesEveryFutureExactlyOnce) {
  data::Table src = HeterogeneousTable(80, 4, 17);
  for (int round = 0; round < 10; ++round) {
    std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
    ImputationService service(engine.get());
    std::vector<std::future<Status>> fed;
    for (size_t i = 0; i < 32; ++i) {
      fed.push_back(service.SubmitIngest(src.Row(i).ToVector()));
    }
    std::thread pauser([&] {
      service.Pause();
      service.Resume();
    });
    std::thread stopper([&] { service.Shutdown(); });
    pauser.join();
    stopper.join();
    // Shutdown serves the whole backlog; a double set_value or an
    // abandoned promise would throw/hang here.
    for (auto& f : fed) {
      Status st = f.get();
      EXPECT_TRUE(st.ok() || st.code() == StatusCode::kShutdown)
          << st.ToString();
    }
  }
}

TEST_F(ServiceEdgeTest, SubmitsRacingShutdownGetShutdownNotAHang) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  std::unique_ptr<OnlineIim> engine = MakeEngine(src, ChaosOptions());
  ImputationService service(engine.get());
  std::vector<std::future<Status>> fed;
  std::atomic<bool> go{false};
  std::thread producer([&] {
    go.store(true);
    for (size_t i = 0; i < 200; ++i) {
      fed.push_back(service.SubmitIngest(src.Row(i % 60).ToVector()));
    }
  });
  while (!go.load()) std::this_thread::yield();
  service.Shutdown();
  producer.join();
  size_t served = 0, refused = 0;
  for (auto& f : fed) {
    Status st = f.get();
    ASSERT_TRUE(st.ok() || st.code() == StatusCode::kShutdown)
        << st.ToString();
    st.ok() ? ++served : ++refused;
  }
  EXPECT_EQ(served + refused, fed.size());
  EXPECT_EQ(service.stats().shutdown_rejected, refused);
}

}  // namespace
}  // namespace iim::stream
