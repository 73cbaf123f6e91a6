// Admission-bound pruning and the staged-compaction bugfixes.
//
// The sublinear-ingest overhaul replaces the per-arrival O(n) insertion
// scan with one index walk for the slots within their own admission bound
// (DynamicIndex::QueryAdmitters, each bound held as the slot's radius) —
// a pure pruning of no-op visits, so every
// observable (imputations, learning orders, maintenance counters that
// count real work) must stay bitwise identical whether the bound is on
// or off. This file pins that claim over randomized
// ingest/evict/compact/rebuild interleavings (threads 1 and 4, fixed and
// adaptive l), with a dedicated exact-tie schedule
// (duplicate rows land arrivals exactly on full orders' l-th distances,
// the boundary where "<=" admits a candidate the order then rejects).
// The index's two order-maintenance queries — the admitters walk over
// per-slot radii and the successor query eviction backfills use — are
// checked against brute recomputation on integer grids full of exact
// distance ties, at both rebuild modes.
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
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/table.h"
#include "neighbors/distance.h"
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
// DynamicIndex: admitters and successor queries vs brute force

// Gives every slot the same radius: QueryAdmitters over uniform radii is
// a plain range query, every live row within that radius.
void SetUniformRadius(DynamicIndex* index, double radius) {
  for (size_t s = 0; s < index->slots(); ++s) index->SetRadius(s, radius);
}

std::vector<neighbors::Neighbor> BySlot(std::vector<neighbors::Neighbor> v) {
  std::sort(v.begin(), v.end(),
            [](const neighbors::Neighbor& a, const neighbors::Neighbor& b) {
              return a.index < b.index;
            });
  return v;
}

void ExpectSameNeighbors(const std::vector<neighbors::Neighbor>& got,
                         const std::vector<neighbors::Neighbor>& want,
                         size_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << "step " << step << " j " << j;
    EXPECT_EQ(got[j].distance, want[j].distance)  // bit-identical
        << "step " << step << " j " << j;
  }
}

// A uniform-radius admitters query must return exactly the live rows
// within the radius — including rows AT the radius bitwise (the
// admission filter depends on ties surviving the KD-tree pruning) —
// against tombstones, a compacted prefix, and the un-treed tail.
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
    neighbors::QueryOptions no_knn;
    no_knn.k = 0;
    std::vector<neighbors::Neighbor> nearest, got;
    for (double r : radii) {
      std::vector<neighbors::Neighbor> want;
      for (const neighbors::Neighbor& nb : all) {
        if (nb.distance <= r) want.push_back(nb);
      }
      SetUniformRadius(&index, r);
      index.QueryAdmitters(probe.Row(0), no_knn, &nearest, &got);
      EXPECT_TRUE(nearest.empty());
      ExpectSameNeighbors(got, BySlot(want), i);
    }
    // Negative radius: empty, not a crash.
    SetUniformRadius(&index, -1.0);
    index.QueryAdmitters(probe.Row(0), no_knn, &nearest, &got);
    EXPECT_TRUE(got.empty());
  }
  EXPECT_GE(index.compactions(), 1u);
  EXPECT_GT(index.tree_size(), 0u);
}

// Rows on a 6 x 6 integer grid: every squared sum is a small integer, so
// many rows sit at bitwise-equal distances from an integer probe.
std::vector<double> GridRow(Rng* rng) {
  return {static_cast<double>(rng->UniformInt(0, 5)),
          static_cast<double>(rng->UniformInt(0, 5)), 0.0};
}

// A per-slot radius: +inf (prunes nothing above its slot), nothing
// (kNoRadius), the exact distance of a grid row at squared sum m (the
// boundary ties), or an arbitrary value.
double PickRadius(Rng* rng) {
  double u = rng->Uniform(0.0, 1.0);
  if (u < 0.1) return std::numeric_limits<double>::infinity();
  if (u < 0.2) return DynamicIndex::kNoRadius;
  if (u < 0.7) {
    return neighbors::DistanceFromSquared(
        static_cast<double>(rng->UniformInt(0, 18)), 2);
  }
  return rng->Uniform(0.0, 3.0);
}

// Randomized grid stream: appends (every fourth an exact duplicate of an
// earlier row), tombstones, compactions, and radius raises and lowers
// between tree installs; `check` runs on the live state every third step.
// The model vectors track what the index should hold, slot for slot.
template <typename Check>
void RunGridStream(bool background, uint64_t seed, Check check) {
  DynamicIndex::Options dopt;
  dopt.kdtree_threshold = 24;
  dopt.min_compact_tombstones = 8;
  dopt.background_rebuild = background;
  DynamicIndex index({0, 1}, dopt);
  Rng rng(seed);
  std::vector<std::vector<double>> rows;  // per slot
  std::vector<uint8_t> live;
  std::vector<double> radius;
  for (size_t step = 0; step < 420; ++step) {
    std::vector<double> row =
        (step % 4 == 3) ? rows[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(rows.size()) - 1))]
                        : GridRow(&rng);
    double r = PickRadius(&rng);
    index.Append(data::RowView(row.data(), row.size()), r);
    rows.push_back(row);
    live.push_back(1);
    radius.push_back(r);
    if (step > 20 && rng.Bernoulli(0.4)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (live[victim] != 0) {
        ASSERT_TRUE(index.Remove(victim));
        live[victim] = 0;
        radius[victim] = DynamicIndex::kNoRadius;
      }
    }
    if (index.NeedsCompaction()) {
      std::vector<size_t> remap = index.Compact();
      std::vector<std::vector<double>> rows2;
      std::vector<uint8_t> live2;
      std::vector<double> radius2;
      for (size_t s = 0; s < remap.size(); ++s) {
        if (remap[s] == DynamicIndex::kGone) continue;
        rows2.push_back(rows[s]);
        live2.push_back(live[s]);
        radius2.push_back(radius[s]);
      }
      rows.swap(rows2);
      live.swap(live2);
      radius.swap(radius2);
    }
    // Raise or lower a few live radii; the tree keeps stale-high maxima
    // for lowered ones until its next install.
    for (int u = 0; u < 3; ++u) {
      size_t s = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (live[s] == 0) continue;
      radius[s] = PickRadius(&rng);
      index.SetRadius(s, radius[s]);
    }
    ASSERT_TRUE(index.VerifyRadii()) << "step " << step;
    for (size_t s = 0; s < live.size(); ++s) {
      ASSERT_EQ(index.radius(s), radius[s]) << "step " << step;
    }
    if (step % 3 != 0) continue;
    std::vector<double> probe =
        rng.Bernoulli(0.7) ? GridRow(&rng)
                           : std::vector<double>{rng.Uniform(-1.0, 6.0),
                                                 rng.Uniform(-1.0, 6.0), 0.0};
    check(&index, &rng, data::RowView(probe.data(), probe.size()), &radius,
          step);
  }
  index.WaitForRebuild();
  DynamicIndex::Stats stats = index.stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GE(stats.rebuilds, 2u);
  EXPECT_TRUE(index.VerifyRadii());
}

class DynamicIndexRadiiTest : public ::testing::TestWithParam<bool> {};

// The admitters query returns exactly the live slots within their OWN
// radius (ties included, ascending by slot) and, fused, exactly Query's
// kNN — against integer-grid ties, +inf and empty radii, tombstones,
// compaction, and radii raised and lowered between installs.
TEST_P(DynamicIndexRadiiTest, AdmittersMatchBruteForceWithPerSlotRadii) {
  size_t boundary_admits = 0;
  RunGridStream(GetParam(), 71, [&](DynamicIndex* index, Rng* rng,
                                    const data::RowView& probe,
                                    std::vector<double>* radius,
                                    size_t step) {
    std::vector<neighbors::Neighbor> all =
        index->QueryAll(probe, neighbors::QueryOptions::kNoExclusion);
    // Put a few slots exactly on their distance to this probe.
    for (int t = 0; t < 4 && !all.empty(); ++t) {
      const neighbors::Neighbor& nb = all[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
      (*radius)[nb.index] = nb.distance;
      index->SetRadius(nb.index, nb.distance);
    }
    std::vector<neighbors::Neighbor> want_admit;
    for (const neighbors::Neighbor& nb : all) {
      if (nb.distance <= (*radius)[nb.index]) want_admit.push_back(nb);
      if (nb.distance == (*radius)[nb.index]) ++boundary_admits;
    }
    neighbors::QueryOptions qopt;
    qopt.k = static_cast<size_t>(rng->UniformInt(0, 6));
    if (rng->Bernoulli(0.3) && !all.empty()) qopt.exclude = all[0].index;
    std::vector<neighbors::Neighbor> want_knn;
    for (const neighbors::Neighbor& nb : all) {
      if (want_knn.size() == qopt.k) break;
      if (nb.index != qopt.exclude) want_knn.push_back(nb);
    }
    std::vector<neighbors::Neighbor> nearest, admitters;
    index->QueryAdmitters(probe, qopt, &nearest, &admitters);
    ExpectSameNeighbors(nearest, want_knn, step);
    ExpectSameNeighbors(admitters, BySlot(want_admit), step);
    ExpectSameNeighbors(index->Query(probe, qopt), want_knn, step);
  });
  EXPECT_GT(boundary_admits, 50u);
}

// The successor query returns the first live slot other than `exclude`
// ranked strictly after `after` in (distance, slot) order — with `after`
// on a distance tie, on duplicate rows, on an absent slot number, and
// past the last row (no successor).
TEST_P(DynamicIndexRadiiTest, SuccessorMatchesBruteForceOnTiesAndDuplicates) {
  size_t tied = 0, none = 0, found = 0;
  RunGridStream(GetParam(), 83, [&](DynamicIndex* index, Rng* rng,
                                    const data::RowView& probe,
                                    std::vector<double>*, size_t step) {
    std::vector<neighbors::Neighbor> all =
        index->QueryAll(probe, neighbors::QueryOptions::kNoExclusion);
    if (all.empty()) return;
    for (int t = 0; t < 6; ++t) {
      size_t j = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(all.size()) - 1));
      neighbors::Neighbor after = all[j];
      switch (t) {
        case 0:
          after = all.back();  // nothing ranks after it
          break;
        case 1:
          // A slot number the scan never saw at that distance: the tie
          // group splits around it.
          after.index = static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(all.size())));
          break;
        case 2:
          after = neighbors::Neighbor{0, 0.0};
          break;
        default:
          break;
      }
      size_t exclude = rng->Bernoulli(0.5)
                           ? all[static_cast<size_t>(rng->UniformInt(
                                 0, static_cast<int64_t>(all.size()) - 1))]
                                 .index
                           : neighbors::QueryOptions::kNoExclusion;
      const neighbors::Neighbor* want = nullptr;
      for (const neighbors::Neighbor& nb : all) {
        if (nb.index != exclude && neighbors::NeighborLess(after, nb)) {
          want = &nb;
          break;
        }
      }
      if (want != nullptr && want->distance == after.distance) ++tied;
      neighbors::Neighbor got{0, 0.0};
      bool ok = index->Successor(probe, after, exclude, &got);
      ASSERT_EQ(ok, want != nullptr) << "step " << step << " case " << t;
      if (want == nullptr) {
        ++none;
        continue;
      }
      ++found;
      EXPECT_EQ(got.index, want->index) << "step " << step << " case " << t;
      EXPECT_EQ(got.distance, want->distance) << "step " << step;
    }
  });
  EXPECT_GT(tied, 50u);
  EXPECT_GT(none, 20u);
  EXPECT_GT(found, 200u);
}

INSTANTIATE_TEST_SUITE_P(RebuildModes, DynamicIndexRadiiTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Background")
                                             : std::string("InLock");
                         });

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

core::IimOptions AdmissionOptions(size_t threads, bool adaptive, bool bound) {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 6;
  opt.threads = threads;
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
void RunAdmissionDifferential(uint64_t seed, size_t threads, bool adaptive) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(360, 3, seed);

  Result<std::unique_ptr<OnlineIim>> on_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(threads, adaptive, /*bound=*/true));
  Result<std::unique_ptr<OnlineIim>> off_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(threads, adaptive, /*bound=*/false));
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
          // Bit-identical: both engines walk the SAME path, only the
          // no-op visits are pruned.
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
  RunAdmissionDifferential(seed, threads, /*adaptive=*/false);
}

TEST_P(StreamAdmissionDifferentialTest, AdaptivePathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, threads, /*adaptive=*/true);
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
      AdmissionOptions(1, adaptive, /*bound=*/true));
  Result<std::unique_ptr<OnlineIim>> off_r = OnlineIim::Create(
      full.schema(), target, features,
      AdmissionOptions(1, adaptive, /*bound=*/false));
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
