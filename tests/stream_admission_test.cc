// Admission-bound pruning and the staged-compaction bugfixes.
//
// The sublinear-ingest overhaul replaces the per-arrival O(n) insertion
// scan with a radius query at the global max admission bound plus a
// per-order bound filter — a pure pruning of no-op visits, so every
// observable (imputations, learning orders, maintenance counters that
// count real work) must stay bitwise identical whether the bound is on
// or off. This file pins that claim over randomized
// ingest/evict/compact/rebuild interleavings (threads 1 and 4, down-date
// on and off, fixed and adaptive l), with a dedicated exact-tie schedule
// (duplicate rows land arrivals exactly on full orders' l-th distances,
// the boundary where "<=" admits a candidate the order then rejects).
// It also pins the two DynamicIndex bugfixes that rode along: a spurious
// Compact (zero tombstones) must be an identity no-op that never
// discards an in-flight build, and WaitForRebuild must not spin forever
// on a pending build whose future was never populated.

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/table.h"
#include "stream/dynamic_index.h"
#include "stream/online_iim.h"
#include "stream_test_util.h"

namespace iim::stream {

// Fault-injection hook (befriended by DynamicIndex): manufactures the
// broken "pending build, no future" state the WaitForRebuild regression
// guards against.
struct DynamicIndexTestPeer {
  static void InjectPendingWithoutFuture(DynamicIndex* index) {
    std::unique_lock<std::shared_mutex> lock(index->mu_);
    index->pending_ = std::make_shared<DynamicIndex::PendingBuild>();
    index->build_future_ = std::shared_future<void>();
  }
};

namespace {

// ---------------------------------------------------------------------------
// DynamicIndex: RangeQuery vs brute force

// RangeQuery must return exactly the live rows within the radius —
// including rows AT the radius bitwise (the admission filter depends on
// ties surviving the KD-tree plane pruning) — against tombstones, a
// compacted prefix, and the un-treed tail.
TEST(DynamicIndexAdmissionTest, RangeQueryMatchesBruteForceWithTies) {
  DynamicIndex::Options dopt;
  dopt.kdtree_threshold = 32;
  dopt.min_compact_tombstones = 8;
  dopt.background_rebuild = false;  // deterministic tree coverage
  DynamicIndex index({0, 1}, dopt);

  data::Table full = HeterogeneousTable(200, 3, 29);
  Rng rng(31);
  std::vector<uint8_t> live;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    // Every third append is an exact duplicate of an earlier row, so the
    // table holds bitwise-tied distances at many radii.
    size_t src = (i % 3 == 2 && i > 3)
                     ? static_cast<size_t>(rng.UniformInt(
                           0, static_cast<int64_t>(i) - 1))
                     : i;
    index.Append(full.Row(src));
    live.push_back(1);
    if (i > 30 && rng.Bernoulli(0.45)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (live[victim] != 0) {
        ASSERT_TRUE(index.Remove(victim));
        live[victim] = 0;
      }
    }
    if (index.NeedsCompaction()) {
      std::vector<size_t> remap = index.Compact();
      std::vector<uint8_t> packed;
      for (size_t s = 0; s < live.size(); ++s) {
        if (remap[s] != DynamicIndex::kGone) {
          ASSERT_EQ(remap[s], packed.size());
          packed.push_back(live[s]);
        }
      }
      live.swap(packed);
    }
    if (i % 7 != 0) continue;

    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe
                    .AppendRow({rng.Uniform(-5.0, 15.0),
                                rng.Uniform(-5.0, 15.0), 0.0})
                    .ok());
    // All live rows by ascending distance — the ground truth every
    // radius cut is taken from.
    std::vector<neighbors::Neighbor> all = index.QueryAll(
        probe.Row(0), neighbors::QueryOptions::kNoExclusion);
    ASSERT_EQ(all.size(), index.size());

    std::vector<double> radii = {0.0, rng.Uniform(0.0, 3.0),
                                 std::numeric_limits<double>::infinity()};
    if (!all.empty()) {
      // Exact distances as radii: the boundary rows must be INCLUDED.
      radii.push_back(all.front().distance);
      radii.push_back(all[all.size() / 2].distance);
      radii.push_back(all.back().distance);
    }
    for (double r : radii) {
      std::vector<neighbors::Neighbor> want;
      for (const neighbors::Neighbor& nb : all) {
        if (nb.distance <= r) want.push_back(nb);
      }
      std::sort(want.begin(), want.end(),
                [](const neighbors::Neighbor& a,
                   const neighbors::Neighbor& b) { return a.index < b.index; });
      std::vector<neighbors::Neighbor> got =
          index.RangeQuery(probe.Row(0), r);
      ASSERT_EQ(got.size(), want.size()) << "append " << i << " r " << r;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].index, want[j].index) << "append " << i;
        EXPECT_EQ(got[j].distance, want[j].distance);  // bit-identical
      }
    }
    // Negative radius: empty, not a crash.
    EXPECT_TRUE(index.RangeQuery(probe.Row(0), -1.0).empty());
  }
  EXPECT_GE(index.compactions(), 1u);
  EXPECT_GT(index.tree_size(), 0u);
}

// ---------------------------------------------------------------------------
// DynamicIndex: spurious Compact regression

// Compact with zero tombstones must be an identity no-op: no epoch bump,
// no compaction counted, the installed tree kept, and — the original
// bug — an in-flight background build must NOT be discarded.
TEST(DynamicIndexAdmissionTest, SpuriousCompactNeverDiscardsBuilds) {
  DynamicIndex::Options dopt;
  dopt.kdtree_threshold = 16;
  dopt.background_rebuild = true;
  DynamicIndex index({0, 1}, dopt);

  data::Table full = HeterogeneousTable(120, 3, 41);
  for (size_t i = 0; i < full.NumRows(); ++i) {
    index.Append(full.Row(i));
    if (i % 5 == 0) {
      // Spurious compactions fired while builds are (possibly) in
      // flight: before the fix each one bumped the prefix epoch and
      // discarded whatever was pending.
      std::vector<size_t> remap = index.Compact();
      ASSERT_EQ(remap.size(), i + 1);
      for (size_t s = 0; s < remap.size(); ++s) {
        ASSERT_EQ(remap[s], s) << "identity remap expected";
      }
    }
  }
  index.WaitForRebuild();
  DynamicIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.discarded, 0u) << "spurious Compact discarded a build";
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_GT(stats.launches, 0u);
  EXPECT_EQ(stats.swaps, stats.launches);  // every build installed
  EXPECT_GT(stats.tree_size, 0u);

  // A REAL compaction still discards a stale in-flight build.
  ASSERT_TRUE(index.Remove(0));
  (void)index.Compact();
  EXPECT_EQ(index.stats().compactions, 1u);
}

// WaitForRebuild with pending_ set but no valid future must return
// (clearing the phantom pending build) instead of spinning forever.
TEST(DynamicIndexAdmissionTest, WaitForRebuildToleratesPendingWithoutFuture) {
  DynamicIndex index({0, 1});
  data::Table full = HeterogeneousTable(8, 3, 43);
  for (size_t i = 0; i < full.NumRows(); ++i) index.Append(full.Row(i));

  DynamicIndexTestPeer::InjectPendingWithoutFuture(&index);
  EXPECT_TRUE(index.stats().rebuild_in_flight);
  index.WaitForRebuild();  // before the fix: infinite busy-wait
  EXPECT_FALSE(index.stats().rebuild_in_flight);

  // The index is still fully usable afterwards.
  index.Append(full.Row(0));
  EXPECT_EQ(index.size(), full.NumRows() + 1);
}

// ---------------------------------------------------------------------------
// Admission-bound differential harness

core::IimOptions AdmissionOptions(size_t threads, bool downdate,
                                  bool adaptive, bool bound) {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 6;
  opt.threads = threads;
  opt.downdate = downdate;
  opt.admission_bound = bound;
  if (adaptive) {
    opt.adaptive = true;
    opt.max_ell = 6;
    opt.step_h = 2;
    opt.validation_k = 3;
  }
  // Low index thresholds so small-n schedules still cross KD-tree
  // rebuilds and physical compactions mid-stream.
  opt.index_kdtree_threshold = 48;
  opt.index_min_compact_tombstones = 8;
  return opt;
}

void ExpectSameOrder(const std::vector<neighbors::Neighbor>& on,
                     const std::vector<neighbors::Neighbor>& off,
                     uint64_t arrival) {
  ASSERT_EQ(on.size(), off.size()) << "arrival " << arrival;
  for (size_t j = 0; j < on.size(); ++j) {
    EXPECT_EQ(on[j].index, off[j].index) << "arrival " << arrival;
    EXPECT_EQ(on[j].distance, off[j].distance)  // bit-identical
        << "arrival " << arrival << " rank " << j;
  }
}

// Drives one identical randomized schedule through two engines differing
// ONLY in options.admission_bound and asserts every observable matches
// bit for bit.
void RunAdmissionDifferential(uint64_t seed, size_t threads, bool downdate,
                              bool adaptive) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(360, 3, seed);

  Result<std::unique_ptr<OnlineIim>> on_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(threads, downdate, adaptive, /*bound=*/true));
  Result<std::unique_ptr<OnlineIim>> off_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(threads, downdate, adaptive, /*bound=*/false));
  ASSERT_TRUE(on_r.ok());
  ASSERT_TRUE(off_r.ok());
  OnlineIim& on = *on_r.value();
  OnlineIim& off = *off_r.value();

  data::Table probes(data::Schema::Default(3));
  for (size_t i = 320; i < 360; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(full, i, target)).ok());
  }
  std::vector<data::RowView> probe_rows;
  for (size_t p = 0; p < probes.NumRows(); ++p) {
    probe_rows.push_back(probes.Row(p));
  }

  std::vector<ScheduleOp> ops =
      MakeSchedule(seed, /*n_src=*/320, /*min_live=*/12, /*evict_p=*/0.3,
                   /*impute_every=*/41);
  std::vector<uint64_t> live_arrivals;
  size_t step = 0;
  for (const ScheduleOp& op : ops) {
    ++step;
    switch (op.kind) {
      case ScheduleOp::kIngest:
        ASSERT_TRUE(on.Ingest(full.Row(op.src_row)).ok());
        ASSERT_TRUE(off.Ingest(full.Row(op.src_row)).ok());
        live_arrivals.push_back(op.arrival);
        break;
      case ScheduleOp::kEvict:
        ASSERT_TRUE(on.Evict(op.arrival).ok());
        ASSERT_TRUE(off.Evict(op.arrival).ok());
        live_arrivals.erase(std::find(live_arrivals.begin(),
                                      live_arrivals.end(), op.arrival));
        break;
      case ScheduleOp::kImpute: {
        std::vector<Result<double>> got = on.ImputeBatch(probe_rows);
        std::vector<Result<double>> want = off.ImputeBatch(probe_rows);
        ASSERT_EQ(got.size(), want.size());
        for (size_t p = 0; p < got.size(); ++p) {
          ASSERT_EQ(got[p].ok(), want[p].ok()) << "probe " << p;
          if (!got[p].ok()) continue;
          // Bit-identical regardless of downdate: both engines walk the
          // SAME path, only the no-op visits are pruned.
          EXPECT_EQ(got[p].value(), want[p].value())
              << "seed " << seed << " step " << step << " probe " << p;
        }
        break;
      }
    }
    if (step % 110 != 0) continue;
    ASSERT_TRUE(on.VerifyPostings()) << "seed " << seed << " step " << step;
    ASSERT_TRUE(off.VerifyPostings());
    for (uint64_t a : live_arrivals) {
      ExpectSameOrder(on.LearningOrderByArrival(a),
                      off.LearningOrderByArrival(a), a);
    }
  }
  for (uint64_t a : live_arrivals) {
    ExpectSameOrder(on.LearningOrderByArrival(a),
                    off.LearningOrderByArrival(a), a);
    if (adaptive) {
      EXPECT_EQ(on.ChosenEllByArrival(a), off.ChosenEllByArrival(a))
          << "arrival " << a;
    }
  }

  const OnlineIim::Stats son = on.stats();
  const OnlineIim::Stats soff = off.stats();
  // Counters that count REAL state changes must agree exactly.
  EXPECT_EQ(son.ingested, soff.ingested);
  EXPECT_EQ(son.evicted, soff.evicted);
  EXPECT_EQ(son.fast_path_appends, soff.fast_path_appends);
  EXPECT_EQ(son.models_invalidated, soff.models_invalidated);
  EXPECT_EQ(son.models_solved, soff.models_solved);
  EXPECT_EQ(son.downdates, soff.downdates);
  EXPECT_EQ(son.downdate_fallbacks, soff.downdate_fallbacks);
  EXPECT_EQ(son.backfills, soff.backfills);
  EXPECT_EQ(son.compactions, soff.compactions);
  EXPECT_EQ(son.postings_edges, soff.postings_edges);
  EXPECT_EQ(son.holders_invalidated, soff.holders_invalidated);
  EXPECT_EQ(son.adaptive_l_changes, soff.adaptive_l_changes);
  // Admitted orders are the same set by construction; the bound engine
  // just visits fewer candidates to find them.
  EXPECT_EQ(son.orders_admitted, soff.orders_admitted);
  EXPECT_LE(son.orders_scanned, soff.orders_scanned);
  EXPECT_GT(son.admission_skips, 0u) << "pruning never engaged";
  EXPECT_EQ(soff.admission_skips, 0u);
  // The interleavings this harness claims to cover really happened.
  EXPECT_GT(son.evicted, 0u);
  EXPECT_GT(son.compactions, 0u);
}

class StreamAdmissionDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StreamAdmissionDifferentialTest, RestreamPathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, threads, /*downdate=*/false,
                           /*adaptive=*/false);
}

TEST_P(StreamAdmissionDifferentialTest, DowndatePathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, threads, /*downdate=*/true,
                           /*adaptive=*/false);
}

TEST_P(StreamAdmissionDifferentialTest, AdaptivePathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, threads, /*downdate=*/true,
                           /*adaptive=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, StreamAdmissionDifferentialTest,
    ::testing::Combine(::testing::Values(uint64_t{13}, uint64_t{59}),
                       ::testing::Values(size_t{1}, size_t{4})));

// ---------------------------------------------------------------------------
// Exact-tie boundary

// Arrivals landing EXACTLY on a full order's l-th distance: duplicate
// rows make every distance to the duplicate bitwise equal to the
// original's, so when the original sits at the back of a full order the
// duplicate arrives exactly on that order's admission bound. The bound
// filter must still surface the order as a candidate ("<=", not "<") and
// the insertion test must still reject it (strict "<") — on both
// engines, identically.
void RunExactTieDifferential(bool adaptive) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table base = HeterogeneousTable(48, 3, 67);
  // 48 distinct rows, then every one of them again, twice — by the
  // second pass every order is full (ell 6 < 48), so each duplicate
  // lands exactly on the bound of every order its original closes.
  data::Table full(base.schema());
  for (size_t pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < base.NumRows(); ++i) {
      ASSERT_TRUE(full.AppendRow(base.Row(i).ToVector()).ok());
    }
  }

  Result<std::unique_ptr<OnlineIim>> on_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(1, /*downdate=*/true, adaptive, /*bound=*/true));
  Result<std::unique_ptr<OnlineIim>> off_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(1, /*downdate=*/true, adaptive, /*bound=*/false));
  ASSERT_TRUE(on_r.ok());
  ASSERT_TRUE(off_r.ok());
  OnlineIim& on = *on_r.value();
  OnlineIim& off = *off_r.value();

  for (size_t i = 0; i < full.NumRows(); ++i) {
    ASSERT_TRUE(on.Ingest(full.Row(i)).ok());
    ASSERT_TRUE(off.Ingest(full.Row(i)).ok());
  }
  ASSERT_TRUE(on.VerifyPostings());
  ASSERT_TRUE(off.VerifyPostings());
  for (uint64_t a = 0; a < full.NumRows(); ++a) {
    ExpectSameOrder(on.LearningOrderByArrival(a),
                    off.LearningOrderByArrival(a), a);
  }

  data::Table probes(data::Schema::Default(3));
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(base, i * 3, target)).ok());
  }
  for (size_t p = 0; p < probes.NumRows(); ++p) {
    Result<double> got = on.ImputeOne(probes.Row(p));
    Result<double> want = off.ImputeOne(probes.Row(p));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value(), want.value()) << "probe " << p;
  }

  const OnlineIim::Stats son = on.stats();
  const OnlineIim::Stats soff = off.stats();
  EXPECT_EQ(son.orders_admitted, soff.orders_admitted);
  EXPECT_EQ(son.fast_path_appends, soff.fast_path_appends);
  EXPECT_EQ(son.models_invalidated, soff.models_invalidated);
  EXPECT_EQ(son.postings_edges, soff.postings_edges);
  // Ties keep every duplicate's originals as candidates, but pruning
  // must still bite on the rest of the relation.
  EXPECT_GT(son.admission_skips, 0u);
}

TEST(StreamAdmissionTest, ExactTieArrivalsBitIdenticalFixedEll) {
  RunExactTieDifferential(/*adaptive=*/false);
}

TEST(StreamAdmissionTest, ExactTieArrivalsBitIdenticalAdaptive) {
  RunExactTieDifferential(/*adaptive=*/true);
}

}  // namespace
}  // namespace iim::stream
