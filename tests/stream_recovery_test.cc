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
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
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

// The schedule interleaves imputations, so the writer holds solved models
// and folded prefixes, while a snapshot holds only the window and restore
// bulk-loads it with every model dirty. Two shapes: the windowed engine,
// whose evictions cut folded prefixes (and leave tombstoned slots the
// image skips), and a growing prefix (no window, ell above every live
// count) fed drifting arrivals, each farther from every earlier tuple
// than the last. Those land at the end of every old order, a fast-path
// append onto a fold, so the later solves are exactly where a restored
// fold that differed from the writer's would show. A third cell restores
// at threads 4 with a window wide enough to span several of the bulk
// load's 64-row blocks, so its neighbor queries fan out over the pool.
// The last three set order lengths far above any live count (growing at
// l = 2^40 and at the largest size_t, adaptive at max_ell 2^40): every
// order then holds all live others, and restore must size the orders
// from the window, not from l.
TEST(SnapshotRoundTripTest, RestoredEngineIsBitwiseIdentical) {
  data::Table src = HeterogeneousTable(170, 4, 11);
  core::IimOptions growing = RecoveryOptions();
  growing.window_size = 0;
  growing.ell = src.NumRows();
  core::IimOptions threaded = RecoveryOptions();
  threaded.threads = 4;
  threaded.window_size = 120;
  core::IimOptions unbounded = growing;
  unbounded.ell = size_t{1} << 40;
  core::IimOptions widest = growing;
  widest.ell = std::numeric_limits<size_t>::max();
  widest.threads = 4;
  core::IimOptions adaptive = RecoveryOptions();
  adaptive.adaptive = true;
  adaptive.max_ell = size_t{1} << 40;
  std::vector<ScheduleOp> ops = MakeSchedule(3, 130, 12, 0.25, 9);
  std::vector<std::vector<double>> probes = MakeProbes(src, 4);

  for (const core::IimOptions& opt : {RecoveryOptions(), threaded, growing,
                                      unbounded, widest, adaptive}) {
    const bool drift = opt.window_size == 0;
    const std::string shape =
        (drift ? "growing" : "windowed") + std::string(" threads ") +
        std::to_string(opt.threads) + " l " +
        std::to_string(opt.adaptive ? opt.max_ell : opt.ell);
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
// `tag` replaced by `patch`, then `trailing` zero bytes appended to that
// section. Every CRC in the result is valid, so only the engine's own
// decode stands between a forged field and the engine state.
std::string Reseal(const std::string& genuine, uint32_t tag, size_t offset,
                   const void* patch, size_t len, size_t trailing = 0) {
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(genuine);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return std::string();
  persist::SnapshotBuilder b(view.value().ops_covered());
  for (uint32_t t : {persist::kSecMeta, persist::kSecEngine, persist::kSecRows,
                     persist::kSecQuality}) {
    Result<persist::SectionReader> r = view.value().Section(t);
    if (!r.ok() && t == persist::kSecQuality) continue;  // unmonitored
    EXPECT_TRUE(r.ok()) << "section " << t;
    if (!r.ok()) return std::string();
    persist::SectionReader reader = r.value();
    std::string payload;
    while (reader.remaining() > 0) {
      payload.push_back(static_cast<char>(reader.U8()));
    }
    if (t == tag) {
      EXPECT_LE(offset + len, payload.size());
      if (len > 0) std::memcpy(&payload[offset], patch, len);
      payload.append(trailing, '\0');
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
// engine layout 3 fingerprinted a down-date flag; layout 4 carried the
// order core's own image beside a row block that kept tombstoned slots;
// layout 5 fingerprinted the quality probe's own k and l).
// Restore refuses them as a mismatch, and a persist dir holding one fails
// Create instead of starting cold, which would silently drop the
// acknowledged window.
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

  // The layout version is the first u32 of the fingerprint section.
  for (uint32_t version : {3u, 4u, 5u}) {
    std::string bytes = Reseal(genuine.value(), persist::kSecMeta, 0, &version,
                               sizeof(version));
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    Status st = b->RestoreFromSnapshot(bytes);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "layout " << version << ": " << st.ToString();
    EXPECT_EQ(b->size(), 0u);

    install(bytes);
    Result<std::unique_ptr<OnlineIim>> rec =
        OnlineIim::Create(src.schema(), kTarget, Features(), popt);
    ASSERT_FALSE(rec.ok()) << "layout " << version
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

// A forged row count must be an error, never an allocation sized from
// it: 2^40 rows used to abort with bad_alloc, and a count whose product
// with the row width wraps (n * m == 2 for m = 3) used to write past the
// buffer it sized.
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

  // The row block opens with its row count.
  const size_t kRowsCount = 0;
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
  }
}

// Restore is all-or-nothing: every section decodes and validates before
// anything is installed. Each hostile field below fails the restore and
// leaves the engine empty, and the same engine then takes the genuine
// image. The quality section is decoded last, so the champion case is the
// one that catches a window installed too early: that engine would refuse
// every later restore and reissue arrival 0 while arrival 0 was live. The
// error estimates must be finite and non-negative: a routed engine weighs
// each method by 1 / (ewma_sq + 1e-12), so an ewma_sq of -1e-12 made that
// weight infinite and the served value NaN. Every section must be read to
// its last byte: bytes left over mean the image and the decode disagree on
// its layout.
TEST(SnapshotRoundTripTest, HostileImageLeavesEngineEmptyAndRestorable) {
  data::Table src = HeterogeneousTable(120, 4, 37);
  core::IimOptions opt = RecoveryOptions();
  opt.moo_sample_rate = 0.5;  // a monitored engine writes kSecQuality
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  const std::string genuine = a->SerializeSnapshot();
  const uint64_t ingested = a->stats().ingested;
  const size_t live = a->size();
  ASSERT_EQ(live, opt.window_size);
  const uint64_t first = ingested - live;  // the oldest live arrival
  const size_t m = src.NumCols();

  // kSecRows: u64 live | u64 m | m columns of `live` cells | `live`
  // arrival numbers. Column 0 is feature 0.
  const size_t cells_at = 16;
  const size_t seqs_at = cells_at + 8 * m * live;
  // kSecQuality: u32 layout | u64 probes, skipped, switches | u32
  // champion | u64 last switch probe | per method: u64 samples | f64
  // ewma_abs | f64 ewma_sq | u64 ring size | the ring. IIM comes first.
  const size_t champion_at = 4 + 3 * 8;
  const size_t ewma_abs_at = champion_at + 4 + 8 + 8;
  const size_t ewma_sq_at = ewma_abs_at + 8;
  const size_t ring_at = ewma_sq_at + 8 + 8;
  ASSERT_GE(a->stats().quality.samples[kQualityIim], 2u);
  // Where the last method's ring size sits, and its value: the walk steps
  // over the header and every earlier method's ring.
  size_t last_ring_at = 0;
  uint64_t last_ring = 0;
  {
    Result<persist::SnapshotView> view = persist::SnapshotView::Parse(genuine);
    ASSERT_TRUE(view.ok());
    Result<persist::SectionReader> r =
        view.value().Section(persist::kSecQuality);
    ASSERT_TRUE(r.ok());
    persist::SectionReader quality = r.value();
    size_t at = champion_at + 4 + 8;
    for (size_t i = 0; i < at; ++i) quality.U8();
    for (int method = 0; method < kQualityMethods; ++method) {
      quality.U64();
      quality.F64();
      quality.F64();
      last_ring_at = at + 24;
      last_ring = quality.U64();
      std::vector<double> ring(last_ring);
      quality.Doubles(ring.data(), ring.size());
      at = last_ring_at + 8 + 8 * last_ring;
    }
    ASSERT_TRUE(quality.status().ok());
    ASSERT_GE(last_ring, 1u);
  }
  const uint32_t bad_champion = 7;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double negative = -1e-12;
  // An unwindowed writer's 100 rows, re-sealed to claim the restoring
  // engine's window of 40: only the window bound breaks. kSecMeta: u32
  // layout | u64 arity | u32 target | u64 q | q u32 features | u64 k |
  // u64 ell | f64 alpha | u8 weighting | u64 window_size.
  core::IimOptions unbounded = opt;
  unbounded.window_size = 0;
  std::unique_ptr<OnlineIim> w = MakeEngine(src, unbounded);
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(w->Ingest(src.Row(i)).ok());
  const size_t window_at = 4 + 8 + 4 + 8 + 4 * Features().size() + 3 * 8 + 1;
  struct Hostile {
    const char* what;
    std::string bytes;
    const char* error;  // in the message of the check that must fire
  };
  const std::vector<Hostile> hostile = {
      {"champion",
       Reseal(genuine, persist::kSecQuality, champion_at, &bad_champion,
              sizeof(bad_champion)),
       "champion"},
      {"duplicated arrival",
       ForgeU64(genuine, persist::kSecRows, seqs_at + 8, first), "ascend"},
      {"descending arrival",
       ForgeU64(genuine, persist::kSecRows, seqs_at + 8, first - 1),
       "ascend"},
      {"arrival at the ingest cursor",
       ForgeU64(genuine, persist::kSecRows, seqs_at + 8 * (live - 1),
                ingested),
       "ascend"},
      {"more rows than the window",
       ForgeU64(w->SerializeSnapshot(), persist::kSecMeta, window_at,
                opt.window_size),
       "more rows"},
      {"NaN feature",
       Reseal(genuine, persist::kSecRows, cells_at, &nan, sizeof(nan)),
       "non-finite"},
      {"+inf feature",
       Reseal(genuine, persist::kSecRows, cells_at, &inf, sizeof(inf)),
       "non-finite"},
      {"negative ewma_sq",
       Reseal(genuine, persist::kSecQuality, ewma_sq_at, &negative,
              sizeof(negative)),
       "error estimate"},
      {"NaN ewma_sq",
       Reseal(genuine, persist::kSecQuality, ewma_sq_at, &nan, sizeof(nan)),
       "error estimate"},
      {"NaN ewma_abs",
       Reseal(genuine, persist::kSecQuality, ewma_abs_at, &nan, sizeof(nan)),
       "error estimate"},
      {"+inf ring entry",
       Reseal(genuine, persist::kSecQuality, ring_at, &inf, sizeof(inf)),
       "error estimate"},
      {"negative ring entry",
       Reseal(genuine, persist::kSecQuality, ring_at + 8, &negative,
              sizeof(negative)),
       "error estimate"},
      {"8 trailing bytes on kSecMeta",
       Reseal(genuine, persist::kSecMeta, 0, nullptr, 0, 8), "8 unread"},
      {"8 trailing bytes on kSecEngine",
       Reseal(genuine, persist::kSecEngine, 0, nullptr, 0, 8), "8 unread"},
      {"8 trailing bytes on kSecQuality",
       Reseal(genuine, persist::kSecQuality, 0, nullptr, 0, 8), "8 unread"},
      {"last ring size lowered by one",
       ForgeU64(genuine, persist::kSecQuality, last_ring_at, last_ring - 1),
       "8 unread"},
  };
  for (const Hostile& h : hostile) {
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    Status st = b->RestoreFromSnapshot(h.bytes);
    EXPECT_NE(st.message().find(h.error), std::string::npos)
        << h.what << ": " << st.ToString();
    EXPECT_EQ(b->size(), 0u) << h.what;
    EXPECT_EQ(b->stats().ingested, 0u) << h.what;
    st = b->RestoreFromSnapshot(genuine);
    ASSERT_TRUE(st.ok()) << h.what << ": " << st.ToString();
    EXPECT_EQ(b->stats().moo_probes, a->stats().moo_probes) << h.what;
    ExpectEngineStateEq(b.get(), a.get(), probes, h.what);
  }
}

// One field of a snapshot image: `width` bytes (1, 4 or 8) at `offset`
// in the payload of section `tag`.
struct ImageField {
  uint32_t tag;
  size_t offset;
  size_t width;
};

// The integer and estimator fields of an engine image with q features,
// walked from its own bytes: every kSecMeta and kSecEngine field, the row
// block's count, arity and arrival numbers, and the quality section's
// layout, counters, champion and, per method, samples, estimates, ring
// size and first and last ring entries. Row cells are left out: any
// finite cell is a valid window, and the hostile-image test covers the
// non-finite ones.
std::vector<ImageField> ImageFields(const std::string& image, size_t q) {
  std::vector<ImageField> out;
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(image);
  EXPECT_TRUE(view.ok());
  if (!view.ok()) return out;
  auto section = [&](uint32_t tag) {
    Result<persist::SectionReader> r = view.value().Section(tag);
    EXPECT_TRUE(r.ok()) << "section " << tag;
    return r.ok() ? r.value() : persist::SectionReader();
  };
  size_t at = 0;
  auto walk = [&](uint32_t tag, std::initializer_list<size_t> widths) {
    for (size_t w : widths) {
      out.push_back(ImageField{tag, at, w});
      at += w;
    }
  };
  // kSecMeta: layout, arity, target, q, the q features, then k, ell,
  // alpha, weighting, window, adaptive, max_ell, step_h, vk, sample rate,
  // decay, min samples, margin, routing, seed, timestamp column.
  walk(persist::kSecMeta, {4, 8, 4, 8});
  for (size_t f = 0; f < q; ++f) walk(persist::kSecMeta, {4});
  walk(persist::kSecMeta, {8, 8, 8, 1, 8, 1, 8, 8, 8, 8, 8, 8, 8, 1, 8, 4});
  EXPECT_EQ(at, section(persist::kSecMeta).remaining());
  at = 0;
  walk(persist::kSecEngine, {8, 8});  // ingest and impute cursors
  EXPECT_EQ(at, section(persist::kSecEngine).remaining());

  persist::SectionReader rows = section(persist::kSecRows);
  const uint64_t live = rows.U64();
  const uint64_t m = rows.U64();
  at = 0;
  walk(persist::kSecRows, {8, 8});
  at += 8 * m * live;  // the cells
  for (uint64_t i = 0; i < live; ++i) walk(persist::kSecRows, {8});
  EXPECT_EQ(at, 16 + rows.remaining());

  persist::SectionReader quality = section(persist::kSecQuality);
  const size_t quality_bytes = quality.remaining();
  at = 0;
  // Layout, probes, skipped, switches, champion, last switch probe.
  walk(persist::kSecQuality, {4, 8, 8, 8, 4, 8});
  quality.U32();
  for (int c = 0; c < 3; ++c) quality.U64();
  quality.U32();
  quality.U64();
  for (int method = 0; method < kQualityMethods; ++method) {
    walk(persist::kSecQuality, {8, 8, 8, 8});
    quality.U64();
    quality.F64();
    quality.F64();
    const uint64_t ring = quality.U64();
    std::vector<double> entries(ring);
    quality.Doubles(entries.data(), ring);
    if (ring > 0) out.push_back(ImageField{persist::kSecQuality, at, 8});
    if (ring > 1) {
      out.push_back(ImageField{persist::kSecQuality, at + 8 * (ring - 1), 8});
    }
    at += 8 * ring;
  }
  EXPECT_TRUE(quality.ok());
  EXPECT_EQ(at, quality_bytes);
  return out;
}

// The field's current value, zero-extended from its width.
uint64_t ReadField(const std::string& image, const ImageField& f) {
  Result<persist::SnapshotView> view = persist::SnapshotView::Parse(image);
  Result<persist::SectionReader> r =
      view.ok() ? view.value().Section(f.tag)
                : Result<persist::SectionReader>(view.status());
  EXPECT_TRUE(r.ok());
  if (!r.ok()) return 0;
  persist::SectionReader reader = r.value();
  for (size_t i = 0; i < f.offset; ++i) reader.U8();
  uint64_t value = 0;
  for (size_t i = 0; i < f.width; ++i) {
    value |= uint64_t{reader.U8()} << (8 * i);
  }
  return value;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

bool IsErrorEstimate(double v) { return std::isfinite(v) && v >= 0.0; }

// Structure-aware fuzz of the snapshot decode. A monitored, windowed,
// routed engine's image has one integer or estimator field at a time
// overwritten — with a boundary value (0, 1, 2^32, 2^40, 2^64 - 1, or
// the bits of -1e-12, NaN and +-inf), the genuine value +-1, or a random
// 64-bit pattern, cut to the field's width — and is re-sealed with valid
// CRCs. Every restore must either fail, leave the engine empty and let
// it take the genuine image, or succeed into an engine whose postings
// verify, whose quality estimates are finite and non-negative, and whose
// next imputation is finite.
TEST(SnapshotFuzzTest, EveryMutatedFieldRestoresWholeOrNotAtAll) {
  data::Table src = HeterogeneousTable(120, 4, 53);
  core::IimOptions opt = RecoveryOptions();
  opt.moo_sample_rate = 1.0;
  opt.moo_min_samples = 4;
  opt.quality_routing = core::IimOptions::QualityRouting::kAutoRoute;
  std::unique_ptr<OnlineIim> a = MakeEngine(src, opt);
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(a->Ingest(src.Row(i)).ok());
  const std::string genuine = a->SerializeSnapshot();
  const size_t live = a->size();
  const std::vector<ImageField> fields =
      ImageFields(genuine, Features().size());
  ASSERT_GT(fields.size(), 40u);
  const std::vector<double> probe = Probe(src, 110, kTarget);
  const data::RowView probe_row(probe.data(), probe.size());
  const std::vector<uint64_t> boundary = {
      0,
      1,
      uint64_t{1} << 32,
      uint64_t{1} << 40,
      ~uint64_t{0},
      DoubleBits(-1e-12),
      DoubleBits(std::numeric_limits<double>::quiet_NaN()),
      DoubleBits(std::numeric_limits<double>::infinity()),
      DoubleBits(-std::numeric_limits<double>::infinity())};

  Rng rng(1009);
  size_t refused = 0, accepted = 0;
  for (size_t trial = 0; trial < 600; ++trial) {
    const ImageField& f = fields[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fields.size()) - 1))];
    uint64_t value;
    const double u = rng.Uniform();
    if (u < 0.6) {
      value = boundary[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(boundary.size()) - 1))];
    } else if (u < 0.8) {
      value = ReadField(genuine, f) + (rng.Bernoulli(0.5) ? 1 : ~uint64_t{0});
    } else {
      value = rng.engine()();
    }
    const std::string where = "trial " + std::to_string(trial) +
                              " section " + std::to_string(f.tag) +
                              " offset " + std::to_string(f.offset) +
                              " value " + std::to_string(value);
    std::unique_ptr<OnlineIim> b = MakeEngine(src, opt);
    Status st =
        b->RestoreFromSnapshot(Reseal(genuine, f.tag, f.offset, &value,
                                      f.width));
    if (!st.ok()) {
      ++refused;
      ASSERT_EQ(b->size(), 0u) << where;
      ASSERT_EQ(b->stats().ingested, 0u) << where;
      ASSERT_TRUE(b->RestoreFromSnapshot(genuine).ok()) << where;
      ASSERT_EQ(b->size(), live) << where;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(b->VerifyPostings()) << where;
    const QualityStats q = b->stats().quality;
    for (int m = 0; m < kQualityMethods; ++m) {
      ASSERT_TRUE(IsErrorEstimate(q.ewma_abs[m])) << where << " method " << m;
      ASSERT_TRUE(IsErrorEstimate(q.ewma_rms[m])) << where << " method " << m;
      ASSERT_TRUE(IsErrorEstimate(q.abs_error[m].max))
          << where << " method " << m;
    }
    Result<double> v = b->ImputeOne(probe_row);
    ASSERT_TRUE(v.ok()) << where << ": " << v.status().ToString();
    ASSERT_TRUE(std::isfinite(v.value())) << where;
  }
  // Both outcomes really occurred.
  EXPECT_GT(refused, 100u);
  EXPECT_GT(accepted, 100u);
}

// A snapshot holds the live window and nothing else: engines over the
// same window and schedule serialize to the same size at any l, adaptive
// or not — the container's header and footer, the fingerprint and cursor
// sections, and exactly 16 + 8 (m + 1) live bytes of rows (count, arity,
// cells, arrival numbers), however many tombstoned slots the engine holds.
TEST(SnapshotRoundTripTest, SnapshotHoldsOnlyTheWindow) {
  data::Table src = HeterogeneousTable(160, 4, 41);
  std::vector<ScheduleOp> ops = MakeSchedule(5, 120, 12, 0.25, 9);
  std::vector<std::vector<double>> probes = MakeProbes(src, 3);
  core::IimOptions l5 = RecoveryOptions();
  core::IimOptions l20 = l5;
  l20.ell = 20;
  core::IimOptions adaptive = l5;
  adaptive.adaptive = true;
  adaptive.max_ell = 20;
  adaptive.step_h = 2;
  const size_t m = src.NumCols();
  // The container: 28-byte header, 12-byte footer, 16 bytes framing each
  // of the three sections (src/stream/persist/snapshot.h).
  const size_t kContainer = 28 + 12 + 3 * 16;

  std::vector<size_t> sizes;
  for (const core::IimOptions& opt : {l5, l20, adaptive}) {
    std::unique_ptr<OnlineIim> e = MakeEngine(src, opt);
    size_t imputes = 0;
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::kImpute) {
        const std::vector<double>& p = probes[imputes++ % probes.size()];
        ASSERT_TRUE(e->ImputeOne(data::RowView(p.data(), p.size())).ok());
      } else {
        (void)ApplyOp(e.get(), src, op);
      }
    }
    // At least one tombstoned slot, which the image must skip.
    for (size_t i = 120; e->index().stats().tombstones == 0; ++i) {
      ASSERT_LT(i, src.NumRows());
      ASSERT_TRUE(e->Ingest(src.Row(i)).ok());
    }
    const std::string bytes = e->SerializeSnapshot();
    Result<persist::SnapshotView> view = persist::SnapshotView::Parse(bytes);
    ASSERT_TRUE(view.ok());
    Result<persist::SectionReader> meta =
        view.value().Section(persist::kSecMeta);
    Result<persist::SectionReader> eng =
        view.value().Section(persist::kSecEngine);
    Result<persist::SectionReader> rows =
        view.value().Section(persist::kSecRows);
    ASSERT_TRUE(meta.ok() && eng.ok() && rows.ok());
    EXPECT_FALSE(view.value().Section(persist::kSecQuality).ok());
    EXPECT_EQ(eng.value().remaining(), 16u);
    EXPECT_EQ(rows.value().remaining(), 16 + 8 * (m + 1) * e->size());
    EXPECT_EQ(bytes.size(), kContainer + meta.value().remaining() +
                                eng.value().remaining() +
                                rows.value().remaining());
    sizes.push_back(bytes.size());
  }
  EXPECT_EQ(sizes[1], sizes[0]) << "l = 20 against l = 5";
  EXPECT_EQ(sizes[2], sizes[0]) << "adaptive against l = 5";
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

// Ingest admits only finite targets and features, and refuses the rest
// before the write-ahead append: an infinite coordinate would reach the
// index's tree walk, whose box distances turn NaN on inf - inf. A refused
// ingest changes neither the window, the cursors nor the log, and an
// impute request with an infinite feature is refused the same way.
TEST(DurableIngestTest, NonFiniteInputsAreRefusedBeforeTheLog) {
  data::Table src = HeterogeneousTable(20, 4, 3);
  ScopedTempDir dir;
  core::IimOptions opt = RecoveryOptions();
  opt.persist_dir = dir.path();
  std::unique_ptr<OnlineIim> e = MakeEngine(src, opt);
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(e->Ingest(src.Row(i)).ok());
  const size_t live = e->size();
  const size_t ingested = e->stats().ingested;
  const uint64_t logged = e->durable_ops();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* what;
    size_t col;
    double value;
  };
  for (const Bad& bad : {Bad{"+inf feature", 0, inf},
                         Bad{"-inf feature", 2, -inf},
                         Bad{"+inf target", static_cast<size_t>(kTarget),
                             inf}}) {
    std::vector<double> row = src.Row(10).ToVector();
    row[bad.col] = bad.value;
    Status st = e->Ingest(data::RowView(row.data(), row.size()));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad.what;
    EXPECT_EQ(e->size(), live) << bad.what;
    EXPECT_EQ(e->stats().ingested, ingested) << bad.what;
    EXPECT_EQ(e->durable_ops(), logged) << bad.what;
  }
  std::vector<double> probe = src.Row(11).ToVector();
  probe[kTarget] = std::numeric_limits<double>::quiet_NaN();
  probe[1] = -inf;
  Result<double> v = e->ImputeOne(data::RowView(probe.data(), probe.size()));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

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
