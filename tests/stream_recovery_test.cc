// Durability and crash recovery (src/stream/persist + the engine wiring).
//
// The recovery contract under test: an engine recovered from its persist
// directory — newest valid snapshot plus write-ahead log tail replayed
// through the normal Ingest/Evict path — is indistinguishable from an
// engine that never crashed and applied exactly the acknowledged op
// prefix. Because engine state is a deterministic function of the op
// sequence (the contract the differential suites pin), "indistinguishable"
// here means BITWISE: window rows, learning orders and imputed values.
//
// The harness attacks every layer: WAL truncation at every byte boundary,
// snapshot byte flips, randomized kill points mid-schedule, disk-full /
// short-write fault injection through the Writer factory, stray .tmp
// files, and re-sealed snapshots whose counts are forged. Nothing in here
// may crash, and no recovered engine may ever produce a wrong answer —
// partial loss of the un-acked tail is the only permitted outcome.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"
#include "stream/persist/io.h"
#include "stream/persist/snapshot.h"
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
    char tmpl[] = "/tmp/iim_recovery_XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got == nullptr ? std::string() : got;
  }
  ~ScopedTempDir() {
    Wipe();
    if (!path_.empty()) rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  void Wipe() {
    if (path_.empty()) return;
    Result<std::vector<std::string>> entries = persist::ListDir(path_);
    if (!entries.ok()) return;
    for (const std::string& e : entries.value()) {
      Status st = persist::RemoveFile(path_ + "/" + e);
      (void)st;
    }
  }

 private:
  std::string path_;
};

core::IimOptions RecoveryOptions() {
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 5;
  opt.threads = 1;
  opt.window_size = 40;
  // Low thresholds so small schedules still cross KD-tree rebuilds and
  // physical compactions (results are invariant to both).
  opt.index_kdtree_threshold = 32;
  opt.index_min_compact_tombstones = 4;
  return opt;
}

std::unique_ptr<OnlineIim> MakeEngine(const data::Table& src,
                                      const core::IimOptions& opt) {
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(src.schema(), kTarget, Features(), opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

Status ApplyOp(OnlineIim* e, const data::Table& src, const ScheduleOp& op) {
  return op.kind == ScheduleOp::kIngest ? e->Ingest(src.Row(op.src_row))
                                        : e->Evict(op.arrival);
}

// Applies schedule mutations in order until `limit` of them SUCCEEDED
// (failed ops — e.g. evicting a tuple the window already retired — log
// nothing and change nothing, so the durable op count only counts
// successes). Returns the number applied.
size_t DriveLogged(OnlineIim* e, const data::Table& src,
                   const std::vector<ScheduleOp>& ops, size_t limit) {
  size_t logged = 0;
  for (const ScheduleOp& op : ops) {
    if (op.kind == ScheduleOp::kImpute) continue;
    if (logged >= limit) break;
    if (ApplyOp(e, src, op).ok()) ++logged;
  }
  return logged;
}

// Asserts `got` and `want` hold bitwise-identical engine state: live
// count, window rows, per-tuple learning orders, postings invariant, and
// the imputations `probes` produce.
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
  for (uint64_t a = 0; a < want->stats().ingested; ++a) {
    ASSERT_EQ(got->IsLive(a), want->IsLive(a)) << where << " arrival " << a;
    if (!want->IsLive(a)) continue;
    std::vector<neighbors::Neighbor> og = got->LearningOrderByArrival(a);
    std::vector<neighbors::Neighbor> ow = want->LearningOrderByArrival(a);
    ASSERT_EQ(og.size(), ow.size()) << where << " arrival " << a;
    for (size_t j = 0; j < ow.size(); ++j) {
      ASSERT_EQ(og[j].index, ow[j].index) << where << " arrival " << a;
      ASSERT_EQ(og[j].distance, ow[j].distance) << where << " arrival " << a;
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

std::vector<std::vector<double>> MakeProbes(const data::Table& src,
                                            size_t count) {
  std::vector<std::vector<double>> probes;
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(Probe(src, (i * 13) % src.NumRows(), kTarget));
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Snapshot round-trip

// The schedule interleaves imputations, so the image holds solved models
// and folded prefixes; a snapshot carries no ridge accumulators, and
// restore refolds each from its learning order. Two shapes: the windowed
// engine, whose evictions cut folded prefixes, and a growing prefix (no
// window, ell above every live count) fed drifting arrivals, each farther
// from every earlier tuple than the last. Those land at the end of every
// old order, a fast-path append onto the restored fold, so the later
// solves are exactly where a restore that skipped the refold goes wrong.
TEST(SnapshotRoundTripTest, RestoredEngineIsBitwiseIdentical) {
  data::Table src = HeterogeneousTable(170, 4, 11);
  core::IimOptions growing = RecoveryOptions();
  growing.window_size = 0;
  growing.ell = src.NumRows();
  std::vector<ScheduleOp> ops = MakeSchedule(3, 130, 12, 0.25, 9);
  std::vector<std::vector<double>> probes = MakeProbes(src, 4);

  for (const core::IimOptions& opt : {RecoveryOptions(), growing}) {
    const bool drift = opt.window_size == 0;
    const std::string shape = drift ? "growing" : "windowed";
    std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
    size_t imputes = 0;
    auto serve = [&](const std::vector<double>& probe) {
      ++imputes;
      return a->ImputeOne(data::RowView(probe.data(), probe.size())).ok();
    };
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) {
        ASSERT_TRUE(serve(probes[imputes % probes.size()])) << shape;
      } else {
        (void)ApplyOp(a.get(), src, op);
      }
    }
    // Serve every probe once more, so the image holds the folds of the
    // models the checks below re-solve.
    for (const std::vector<double>& probe : probes) {
      ASSERT_TRUE(serve(probe)) << shape;
    }

    std::string bytes = a->SerializeSnapshot();
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    ASSERT_TRUE(b->RestoreFromSnapshot(bytes).ok()) << shape;
    EXPECT_EQ(b->stats().snapshots_loaded, 1u);
    ExpectEngineStateEq(b.get(), a.get(), probes, shape + " post-restore");

    // Bitwise-identical state + identical subsequent ops must stay
    // bitwise identical — including across further compactions and
    // window evicts.
    for (size_t i = 130; i < src.NumRows(); ++i) {
      std::vector<double> row = src.Row(i).ToVector();
      if (drift) {
        for (int f : Features()) {
          row[static_cast<size_t>(f)] += 100.0 * (i - 129.0);
        }
      }
      data::RowView view(row.data(), row.size());
      Status sa = a->Ingest(view);
      Status sb = b->Ingest(view);
      ASSERT_EQ(sa.ok(), sb.ok());
    }
    ExpectEngineStateEq(b.get(), a.get(), probes,
                        shape + " post-restore-continue");
  }
}

TEST(SnapshotRoundTripTest, RestoreValidatesTargetEngine) {
  data::Table src = HeterogeneousTable(60, 4, 5);
  core::IimOptions opt = RecoveryOptions();
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  std::string bytes = a->SerializeSnapshot();

  // Mismatched result-shaping options are rejected.
  core::IimOptions other = opt;
  other.k = opt.k + 1;
  std::unique_ptr<OnlineIim> b = MakeEngine(src, other);
  Status st = b->RestoreFromSnapshot(bytes);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // A non-empty engine refuses to be overwritten.
  std::unique_ptr<OnlineIim> c = MakeEngine(src, opt);
  ASSERT_TRUE(c->Ingest(src.Row(0)).ok());
  st = c->RestoreFromSnapshot(bytes);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();

  // Garbage bytes are an error, never a crash.
  std::unique_ptr<OnlineIim> d = MakeEngine(src, opt);
  EXPECT_FALSE(d->RestoreFromSnapshot("not a snapshot").ok());
  EXPECT_FALSE(d->RestoreFromSnapshot(std::string()).ok());
  EXPECT_EQ(d->size(), 0u);
}

TEST(SnapshotRoundTripTest, EveryByteFlipIsRejected) {
  data::Table src = HeterogeneousTable(50, 4, 7);
  core::IimOptions opt = RecoveryOptions();
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  std::string bytes = a->SerializeSnapshot();
  ASSERT_TRUE(persist::SnapshotView::Parse(bytes).ok());

  // The whole-file CRC makes ANY single-byte corruption detectable.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(persist::SnapshotView::Parse(bad).ok()) << "byte " << i;
  }
  // Sampled full restores: the engine layer rejects too and stays empty.
  for (size_t i = 0; i < bytes.size(); i += 97) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    EXPECT_FALSE(b->RestoreFromSnapshot(bad).ok()) << "byte " << i;
    EXPECT_EQ(b->size(), 0u);
  }
}

// Re-seals a genuine snapshot with the `len` bytes at `offset` of section
// `tag` replaced by `patch`. Every CRC in the result is valid, so only the
// engine's own decode stands between a forged field and the engine state.
std::string Reseal(const std::string& genuine, uint32_t tag, size_t offset,
                   const void* patch, size_t len) {
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(genuine);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return std::string();
  persist::SnapshotBuilder b(view.value().ops_covered());
  for (uint32_t t : {persist::kSecMeta, persist::kSecEngine, persist::kSecRows,
                     persist::kSecCoreMeta, persist::kSecCoreRows,
                     persist::kSecCoreOrders, persist::kSecCoreModels}) {
    Result<persist::SectionReader> r = view.value().Section(t);
    EXPECT_TRUE(r.ok()) << "section " << t;
    if (!r.ok()) return std::string();
    persist::SectionReader reader = r.value();
    std::string payload;
    while (reader.remaining() > 0) {
      payload.push_back(static_cast<char>(reader.U8()));
    }
    if (t == tag) {
      EXPECT_LE(offset + len, payload.size());
      std::memcpy(&payload[offset], patch, len);
    }
    b.BeginSection(t);
    for (char c : payload) b.PutU8(static_cast<uint8_t>(c));
  }
  return b.Finish();
}

std::string ForgeU64(const std::string& genuine, uint32_t tag, size_t offset,
                     uint64_t value) {
  return Reseal(genuine, tag, offset, &value, sizeof(value));
}

// Snapshots of an older layout hold state this build cannot read (the
// engine layout 3 fingerprinted a down-date flag; the core layout 2
// carried raw ridge accumulators). Restore refuses them as a mismatch, and
// a persist dir holding one fails Create instead of starting cold, which
// would silently drop the acknowledged window.
TEST(SnapshotRoundTripTest, OlderLayoutVersionsAreRefused) {
  data::Table src = HeterogeneousTable(40, 4, 29);
  core::IimOptions opt = RecoveryOptions();
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  std::string snap_path;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
    ASSERT_TRUE(a->SaveSnapshot().ok());
    snap_path = dir.path() + "/snap-" + std::to_string(a->durable_ops()) +
                ".snap";
  }
  Result<std::string> genuine = persist::ReadFileToString(snap_path);
  ASSERT_TRUE(genuine.ok()) << snap_path;
  auto install = [&](const std::string& bytes) {
    Result<std::unique_ptr<persist::Writer>> w =
        persist::OpenPosixWriter(snap_path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(w.value()->Close().ok());
  };

  // Both layout versions are the first u32 of their section.
  struct Old {
    uint32_t tag;
    uint32_t version;
  };
  for (Old old : {Old{persist::kSecMeta, 3}, Old{persist::kSecCoreMeta, 2}}) {
    std::string bytes = Reseal(genuine.value(), old.tag, 0, &old.version,
                               sizeof(old.version));
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    Status st = b->RestoreFromSnapshot(bytes);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "section " << old.tag << ": " << st.ToString();
    EXPECT_EQ(b->size(), 0u);

    install(bytes);
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_FALSE(rec.ok()) << "section " << old.tag
                           << ": Create accepted an old layout";
    EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument)
        << rec.status().ToString();
  }

  // Control: the genuine image still recovers from the same directory.
  install(genuine.value());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->size(), 30u);
}

// A forged slot or row count must be an error, never an allocation sized
// from it: 2^40 rows used to abort with bad_alloc, and a count whose
// product with the row width wraps (n * m == 2 for m = 3) used to write
// past the buffer it sized.
TEST(SnapshotRoundTripTest, ForgedCountsAreRejectedBeforeAllocation) {
  // Three columns, so the wrapping count below is the m = 3 one.
  data::Table src = HeterogeneousTable(40, 3, 13);
  core::IimOptions opt = RecoveryOptions();
  Result<std::unique_ptr<OnlineIim>> a_r =
      OnlineIim::Create(src.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(a_r.ok());
  OnlineIim& a = *a_r.value();
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a.Ingest(src.Row(i)).ok());
  const std::string genuine = a.SerializeSnapshot();
  // No evictions yet, so every slot is live.
  const uint64_t slots = a.size();
  // Restores `bytes` into a fresh engine and reports its live count.
  auto restore = [&](const std::string& bytes, size_t* live) -> Status {
    Result<std::unique_ptr<OnlineIim>> b_r =
        OnlineIim::Create(src.schema(), 2, {0, 1}, opt);
    if (!b_r.ok()) return b_r.status();
    Status st = b_r.value()->RestoreFromSnapshot(bytes);
    *live = b_r.value()->size();
    return st;
  };

  // The row block opens with its slot count; the core meta holds the
  // slot count after its u32 layout version and u64 feature arity.
  const size_t kRowsCount = 0;
  const size_t kCoreCount = 4 + 8;
  size_t live = 0;
  // Control: re-sealing the genuine count restores fine.
  ASSERT_TRUE(
      restore(ForgeU64(genuine, persist::kSecRows, kRowsCount, slots), &live)
          .ok());
  EXPECT_EQ(live, slots);

  const uint64_t kHuge = uint64_t{1} << 40;
  const uint64_t kWrapsRows = 0x5555555555555556ULL;  // x 3 == 2 (mod 2^64)
  const uint64_t kWrapsCore = (uint64_t{1} << 63) + 1;  // x 2 == 2
  for (uint64_t forged : {kHuge, kWrapsRows, kWrapsCore, slots + 1}) {
    Status st = restore(
        ForgeU64(genuine, persist::kSecRows, kRowsCount, forged), &live);
    EXPECT_EQ(st.code(), StatusCode::kIoError)
        << "row count " << forged << ": " << st.ToString();
    EXPECT_EQ(live, 0u);
    st = restore(
        ForgeU64(genuine, persist::kSecCoreMeta, kCoreCount, forged), &live);
    EXPECT_EQ(st.code(), StatusCode::kIoError)
        << "core count " << forged << ": " << st.ToString();
    EXPECT_EQ(live, 0u);
  }
}

// ---------------------------------------------------------------------------
// WAL truncation at every byte boundary

TEST(WalKillPointTest, TruncationAtEveryByteRecoversTheAckedPrefix) {
  data::Table src = HeterogeneousTable(40, 4, 23);
  core::IimOptions opt = RecoveryOptions();
  opt.window_size = 14;
  std::vector<ScheduleOp> ops = MakeSchedule(9, 26, 6, 0.3, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);

  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  size_t total;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    total = DriveLogged(a.get(), src, ops, ops.size());
  }
  Result<std::string> wal =
      persist::ReadFileToString(dir.path() + "/wal-0.log");
  ASSERT_TRUE(wal.ok());

  // One never-crashed reference per possible recovered op count.
  std::vector<std::unique_ptr<OnlineIim>> refs;
  for (size_t c = 0; c <= total; ++c) {
    refs.push_back(MakeEngine(src, opt));
    ASSERT_EQ(DriveLogged(refs.back().get(), src, ops, c), c);
  }

  uint64_t prev_ops = 0;
  for (size_t len = 0; len <= wal.value().size(); ++len) {
    dir.Wipe();
    {
      Result<std::unique_ptr<persist::Writer>> w =
          persist::OpenPosixWriter(dir.path() + "/wal-0.log");
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w.value()->Append(wal.value().data(), len).ok());
      ASSERT_TRUE(w.value()->Close().ok());
    }
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_TRUE(rec.ok()) << "len " << len << ": "
                          << rec.status().ToString();
    uint64_t c = rec.value()->durable_ops();
    ASSERT_LE(c, total) << "len " << len;
    // Longer surviving prefixes never recover fewer ops.
    ASSERT_GE(c, prev_ops) << "len " << len;
    prev_ops = c;
    ASSERT_EQ(rec.value()->stats().log_records_replayed, c) << "len " << len;
    ExpectEngineStateEq(rec.value().get(), refs[static_cast<size_t>(c)].get(),
                        probes, "len " + std::to_string(len));
  }
  EXPECT_EQ(prev_ops, total);  // the untruncated log replays everything
}

// ---------------------------------------------------------------------------
// Randomized kill points with snapshots in play

TEST(KillPointRecoveryTest, RecoveredEngineMatchesNeverCrashed) {
  data::Table src = HeterogeneousTable(200, 4, 31);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);

  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<ScheduleOp> ops = MakeSchedule(seed, 170, 15, 0.25, 0);
    size_t nmut = 0;
    for (const ScheduleOp& op : ops) {
      nmut += op.kind != ScheduleOp::kImpute;
    }
    Rng rng(seed * 977 + 5);
    std::vector<size_t> kills;
    for (int i = 0; i < 3; ++i) {
      kills.push_back(static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(nmut) - 1)));
    }
    std::sort(kills.begin(), kills.end());

    ScopedTempDir dir;
    core::IimOptions popt = opt;
    popt.persist_dir = dir.path();
    popt.snapshot_every = 17;
    popt.wal_fsync_every = 1;  // everything acknowledged is durable
    popt.keep_snapshots = 2;

    std::unique_ptr<OnlineIim> crashy = MakeEngine(src, popt);
    std::unique_ptr<OnlineIim> steady = MakeEngine(src, opt);
    size_t applied = 0;
    size_t next_kill = 0;
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) continue;
      if (next_kill < kills.size() && applied >= kills[next_kill]) {
        ++next_kill;
        crashy.reset();  // "crash" — recover from disk alone
        Result<std::unique_ptr<OnlineIim>> rec =
            OnlineIim::Create(src.schema(), kTarget, Features(), popt);
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        crashy = std::move(rec).value();
        ASSERT_EQ(crashy->durable_ops(), applied);
        const OnlineIim::Stats& rs = crashy->stats();
        if (applied >= popt.snapshot_every) {
          EXPECT_EQ(rs.snapshots_loaded, 1u)
              << "seed " << seed << " kill at " << applied;
          EXPECT_LT(rs.log_records_replayed, applied);
        }
        ExpectEngineStateEq(crashy.get(), steady.get(), probes,
                            "seed " + std::to_string(seed) + " kill at " +
                                std::to_string(applied));
      }
      Status sc = ApplyOp(crashy.get(), src, op);
      Status ss = ApplyOp(steady.get(), src, op);
      ASSERT_EQ(sc.ok(), ss.ok()) << "applied " << applied;
      if (ss.ok()) ++applied;
    }
    ExpectEngineStateEq(crashy.get(), steady.get(), probes,
                        "seed " + std::to_string(seed) + " final");
    ASSERT_TRUE(crashy->FlushPersistence().ok());
  }
}

// ---------------------------------------------------------------------------
// Snapshot corruption: fall back to the older snapshot, then to cold

TEST(SnapshotCorruptionTest, FallsBackToOlderSnapshotThenCold) {
  data::Table src = HeterogeneousTable(140, 4, 3);
  core::IimOptions opt = RecoveryOptions();
  std::vector<ScheduleOp> ops = MakeSchedule(7, 110, 12, 0.2, 0);
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);

  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.snapshot_every = 13;
  popt.wal_fsync_every = 1;
  popt.keep_snapshots = 2;

  size_t total;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    total = DriveLogged(a.get(), src, ops, ops.size());
    ASSERT_TRUE(a->SaveSnapshot().ok());  // guarantee a newest snapshot
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  ASSERT_EQ(DriveLogged(ref.get(), src, ops, total), total);

  Result<std::vector<std::string>> entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> snaps;
  for (const std::string& e : entries.value()) {
    if (e.size() > 5 && e.compare(e.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(e);
    }
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const std::string& x, const std::string& y) {
              return std::stoull(x.substr(5)) < std::stoull(y.substr(5));
            });
  ASSERT_GE(snaps.size(), 2u);

  // Corrupt the newest snapshot: recovery must fall back to the older one
  // and replay a longer log tail — same final state, bit for bit.
  std::string newest = dir.path() + "/" + snaps.back();
  Result<std::string> img = persist::ReadFileToString(newest);
  ASSERT_TRUE(img.ok());
  {
    std::string bad = img.value();
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
    Result<std::unique_ptr<persist::Writer>> w =
        persist::OpenPosixWriter(newest);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append(bad.data(), bad.size()).ok());
    ASSERT_TRUE(w.value()->Close().ok());
  }
  {
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec.value()->durable_ops(), total);
    EXPECT_EQ(rec.value()->stats().snapshots_loaded, 1u);
    EXPECT_GT(rec.value()->stats().log_records_replayed, 0u);
    ExpectEngineStateEq(rec.value().get(), ref.get(), probes,
                        "older-snapshot fallback");
    // The corrupted snapshot was a dead timeline: recovery deleted it.
    Result<std::string> gone = persist::ReadFileToString(newest);
    EXPECT_FALSE(gone.ok());
  }

  // Scorched earth: every remaining snapshot corrupted. Recovery must
  // still construct a working engine (cold + whatever log coverage
  // remains) — graceful degradation, never a crash or an error.
  entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  for (const std::string& e : entries.value()) {
    if (e.size() > 5 && e.compare(e.size() - 5, 5, ".snap") == 0) {
      std::string path = dir.path() + "/" + e;
      Result<std::string> bytes = persist::ReadFileToString(path);
      ASSERT_TRUE(bytes.ok());
      std::string bad = bytes.value();
      bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x08);
      Result<std::unique_ptr<persist::Writer>> w =
          persist::OpenPosixWriter(path);
      ASSERT_TRUE(w.ok());
      ASSERT_TRUE(w.value()->Append(bad.data(), bad.size()).ok());
      ASSERT_TRUE(w.value()->Close().ok());
    }
  }
  Result<std::unique_ptr<OnlineIim>> cold =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold.value()->Ingest(src.Row(0)).ok());  // fully functional
}

TEST(SnapshotCorruptionTest, StrayTmpFilesAreIgnoredAndCleaned) {
  data::Table src = HeterogeneousTable(60, 4, 13);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  }
  for (const char* name : {"snap-999.snap.tmp", "junk.tmp"}) {
    Result<std::unique_ptr<persist::Writer>> w =
        persist::OpenPosixWriter(dir.path() + "/" + name);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Append("garbage", 7).ok());
    ASSERT_TRUE(w.value()->Close().ok());
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());

  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "tmp-ignored");
  Result<std::vector<std::string>> entries = persist::ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  for (const std::string& e : entries.value()) {
    EXPECT_EQ(e.find(".tmp"), std::string::npos) << e;
  }
}

// ---------------------------------------------------------------------------
// Disk-full / short-write fault injection

// Budgeted fault writer: the first `budget->remaining` bytes across all
// appends land; the append that crosses the line lands only half its
// bytes (a short write) and fails. Syncs/truncates/closes pass through.
struct FaultBudget {
  long remaining = 1L << 40;
};

class FaultWriter : public persist::Writer {
 public:
  FaultWriter(std::unique_ptr<persist::Writer> base,
              std::shared_ptr<FaultBudget> budget)
      : base_(std::move(base)), budget_(std::move(budget)) {}

  Status Append(const void* data, size_t len) override {
    if (budget_->remaining < static_cast<long>(len)) {
      long avail = budget_->remaining > 0 ? budget_->remaining : 0;
      size_t landed = std::min(len / 2, static_cast<size_t>(avail));
      if (landed > 0) {
        Status st = base_->Append(data, landed);
        (void)st;
      }
      budget_->remaining = 0;
      return Status::IoError("injected disk full");
    }
    budget_->remaining -= static_cast<long>(len);
    return base_->Append(data, len);
  }
  Status Sync() override { return base_->Sync(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Close() override { return base_->Close(); }
  uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<persist::Writer> base_;
  std::shared_ptr<FaultBudget> budget_;
};

class ScopedFaultFactory {
 public:
  explicit ScopedFaultFactory(std::shared_ptr<FaultBudget> budget) {
    persist::SetWriterFactory(
        [budget](const std::string& path)
            -> Result<std::unique_ptr<persist::Writer>> {
          Result<std::unique_ptr<persist::Writer>> base =
              persist::OpenPosixWriter(path);
          if (!base.ok()) return base.status();
          return std::unique_ptr<persist::Writer>(
              new FaultWriter(std::move(base).value(), budget));
        });
  }
  ~ScopedFaultFactory() { persist::SetWriterFactory(nullptr); }
};

TEST(FaultInjectionTest, FailedWalAppendRejectsTheOpUnapplied) {
  data::Table src = HeterogeneousTable(60, 4, 17);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;

  auto budget = std::make_shared<FaultBudget>();
  ScopedFaultFactory factory(budget);
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
    uint64_t acked = a->durable_ops();
    size_t live = a->size();

    budget->remaining = 10;  // room for part of a record: a short write
    Status st = a->Ingest(src.Row(20));
    EXPECT_FALSE(st.ok());
    // Log-then-apply: the rejected op left no trace in the engine.
    EXPECT_EQ(a->size(), live);
    EXPECT_EQ(a->durable_ops(), acked);
    EXPECT_EQ(a->stats().ingested, 20u);
    // The failed durable write stepped the sticky health ladder: further
    // mutations are refused — even though the disk would now accept them
    // — until durability is explicitly recovered (stream/health.h).
    EXPECT_EQ(a->Health(), HealthState::kDegraded);
    st = a->Evict(0);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_EQ(a->size(), live);

    budget->remaining = 1L << 40;  // space reclaimed
    EXPECT_EQ(a->Ingest(src.Row(20)).code(), StatusCode::kUnavailable);
    ASSERT_TRUE(a->RecoverDurability().ok());
    EXPECT_EQ(a->Health(), HealthState::kHealthy);
    EXPECT_TRUE(a->Ingest(src.Row(20)).ok());
    EXPECT_TRUE(a->Evict(0).ok());
    EXPECT_EQ(a->durable_ops(), acked + 2);
  }
  // The torn half-record was rolled back: recovery sees exactly the
  // acknowledged sequence.
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i <= 20; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  ASSERT_TRUE(ref->Evict(0).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->durable_ops(), 22u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "post-fault");
}

TEST(FaultInjectionTest, FailedSnapshotWriteIsCountedNotFatal) {
  data::Table src = HeterogeneousTable(60, 4, 19);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  popt.wal_fsync_every = 1;

  auto budget = std::make_shared<FaultBudget>();
  ScopedFaultFactory factory(budget);
  {
    std::unique_ptr<OnlineIim> a = MakeEngine(src, popt);
    for (size_t i = 0; i < 25; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());

    // Exhaust the disk right before the snapshot body lands: the WAL
    // rotation header fits, the snapshot file write fails.
    budget->remaining = 64;
    Status st = a->SaveSnapshot();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(a->stats().snapshot_write_failures, 1u);
    EXPECT_EQ(a->stats().snapshots_written, 0u);

    budget->remaining = 1L << 40;
    EXPECT_TRUE(a->Ingest(src.Row(25)).ok());  // the engine marches on
    ASSERT_TRUE(a->SaveSnapshot().ok());
    EXPECT_EQ(a->stats().snapshots_written, 1u);
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 26; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->stats().snapshots_loaded, 1u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes,
                      "post-snapshot-fault");
}

// ---------------------------------------------------------------------------
// Service integration: shutdown flush makes every acknowledged op durable

TEST(ServicePersistenceTest, ShutdownFlushesAndRecovers) {
  data::Table src = HeterogeneousTable(60, 4, 21);
  core::IimOptions opt = RecoveryOptions();
  std::vector<std::vector<double>> probes = MakeProbes(src, 2);
  ScopedTempDir dir;
  core::IimOptions popt = opt;
  popt.persist_dir = dir.path();
  // fsync only at rotation/shutdown: the shutdown flush is what makes the
  // tail durable here.
  popt.wal_fsync_every = 0;

  {
    std::unique_ptr<OnlineIim> engine = MakeEngine(src, popt);
    ImputationService service(engine.get());
    std::vector<std::future<Status>> acks;
    for (size_t i = 0; i < 30; ++i) {
      acks.push_back(service.SubmitIngest(src.Row(i).ToVector()));
    }
    std::future<Result<double>> answer = service.SubmitImpute(probes[0]);
    service.Shutdown();
    for (std::future<Status>& f : acks) EXPECT_TRUE(f.get().ok());
    EXPECT_TRUE(answer.get().ok());

    // Post-shutdown submissions resolve immediately to kShutdown.
    std::future<Status> late = service.SubmitIngest(src.Row(30).ToVector());
    EXPECT_EQ(late.get().code(), StatusCode::kShutdown);
    std::future<Result<double>> late_imp = service.SubmitImpute(probes[0]);
    EXPECT_EQ(late_imp.get().status().code(), StatusCode::kShutdown);
    EXPECT_EQ(service.stats().shutdown_rejected, 2u);
    service.Shutdown();  // idempotent (and the destructor calls it again)
  }
  std::unique_ptr<OnlineIim> ref = MakeEngine(src, opt);
  for (size_t i = 0; i < 30; ++i) ASSERT_TRUE(ref->Ingest(src.Row(i)).ok());
  Result<std::unique_ptr<OnlineIim>> rec =
      OnlineIim::Create(src.schema(), kTarget, Features(), popt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value()->durable_ops(), 30u);
  ExpectEngineStateEq(rec.value().get(), ref.get(), probes, "service");
}

}  // namespace
}  // namespace iim::stream
