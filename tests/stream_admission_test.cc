// Admission-bound pruning and the staged-compaction bugfixes.
//
// Each arrival finds the orders it could enter with one index walk for the
// slots within their own admission bound (DynamicIndex::QueryAdmitters,
// each bound held as the slot's radius) — a pure pruning of no-op visits,
// so every learning order and imputation must be what a from-scratch
// computation on the live window gives. This file pins that claim over
// randomized ingest/evict/compact/rebuild interleavings (threads 1 and 4,
// fixed and adaptive l) against two oracles that share no code with the
// engine's maintenance: a brute-force neighbor scan over table() for the
// learning orders, and a batch IimImputer fitted on table() for the
// imputations. A dedicated exact-tie schedule (duplicate rows land
// arrivals exactly on full orders' l-th distances, the boundary where
// "<=" admits a candidate the order then rejects) runs against the same
// oracles. The index's two order-maintenance queries — the admitters walk
// over per-slot radii and the successor query eviction backfills use —
// are checked against brute recomputation on integer grids full of exact
// distance ties, with the builder flushed after every step and with its
// builds left racing the stream; so are the restore bulk load's neighbor
// lists (NearestOthers), against one query per row.
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
#include "core/iim_imputer.h"
#include "data/table.h"
#include "neighbors/distance.h"
#include "neighbors/knn.h"
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
  const size_t slots = index->stats().slots;
  for (size_t s = 0; s < slots; ++s) index->SetRadius(s, radius);
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
  DynamicIndex index({0, 1});

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
    index.WaitForRebuild();  // deterministic tree coverage
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
      index.WaitForRebuild();
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
  EXPECT_GE(index.stats().compactions, 1u);
  EXPECT_GT(index.stats().tree_size, 0u);
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
// With `flush`, every append and compaction waits out the build it
// launched, so each check sees the tree as it stands right after a
// rebuild; without, builds race the stream and land whenever they finish,
// except at one fixed mid-stream step that waits in both modes.
template <typename Check>
void RunGridStream(bool flush, uint64_t seed, Check check) {
  DynamicIndex index({0, 1});
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
    // One flush mid-stream lands a tree there in either mode, so the
    // final count below holds by construction: the build it installs
    // (or an earlier swap), then the last one launched after it.
    if (flush || step == 210) index.WaitForRebuild();
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
      if (flush) index.WaitForRebuild();
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

// NearestOthers (the bulk load's neighbor lists) must return, entry for
// entry and bit for bit, what Query(row i, {k, exclude = i}) returns for
// every slot: on integer-grid rows full of exact distance ties and
// duplicates, with one +inf and one -inf coordinate, for k below, at and
// above live - 1, serially and fanned over 1 and 4 threads (more than two
// 64-row blocks). Two index shapes: a bulk Load (all live, all in the
// tree), and an appended index with tombstones and a tail.
TEST(DynamicIndexBulkTest, NearestOthersMatchesPerRowQueries) {
  Rng rng(97);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 150; ++i) {
    rows.push_back(i % 4 == 3 ? rows[static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(i) - 1))]
                              : GridRow(&rng));
  }
  rows[17][0] = std::numeric_limits<double>::infinity();
  rows[90][1] = -std::numeric_limits<double>::infinity();

  DynamicIndex loaded({0, 1});
  std::vector<double> points;
  for (const std::vector<double>& row : rows) {
    points.push_back(row[0]);
    points.push_back(row[1]);
  }
  ASSERT_TRUE(loaded.Load(points).ok());
  EXPECT_EQ(loaded.stats().tree_size, rows.size());

  DynamicIndex appended({0, 1});
  for (const std::vector<double>& row : rows) {
    appended.Append(data::RowView(row.data(), row.size()));
  }
  for (size_t s : {3u, 40u, 41u, 100u, 149u}) ASSERT_TRUE(appended.Remove(s));
  appended.WaitForRebuild();
  ASSERT_GT(appended.stats().tail_size, 0u);

  ThreadPool one(1), four(4);
  size_t tied = 0;
  for (const DynamicIndex* index : {&loaded, &appended}) {
    const size_t live = index->size();
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{23}, live - 2,
                     live - 1, live, live + 7,
                     std::numeric_limits<size_t>::max()}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one,
                               &four}) {
        std::vector<std::vector<neighbors::Neighbor>> got =
            index->NearestOthers(k, pool);
        ASSERT_EQ(got.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          neighbors::QueryOptions qopt;
          qopt.k = k;
          qopt.exclude = i;
          std::vector<neighbors::Neighbor> want =
              index == &appended && (i == 3 || i == 40 || i == 41 ||
                                     i == 100 || i == 149)
                  ? std::vector<neighbors::Neighbor>{}
                  : index->Query(
                        data::RowView(rows[i].data(), rows[i].size()), qopt);
          ASSERT_EQ(got[i].size(), want.size()) << "k " << k << " row " << i;
          for (size_t e = 0; e < want.size(); ++e) {
            ASSERT_EQ(got[i][e].index, want[e].index)
                << "k " << k << " row " << i << " entry " << e;
            ASSERT_EQ(got[i][e].distance, want[e].distance)
                << "k " << k << " row " << i << " entry " << e;
          }
          // The brute-force order agrees too, prefix for prefix, for the
          // rows with finite coordinates (the tree walk's box distances
          // are NaN for an infinite query coordinate).
          if (pool != nullptr || want.empty() || i == 17 || i == 90) continue;
          std::vector<neighbors::Neighbor> all = index->QueryAll(
              data::RowView(rows[i].data(), rows[i].size()), i);
          ASSERT_GE(all.size(), want.size());
          for (size_t e = 0; e < want.size(); ++e) {
            ASSERT_EQ(all[e].index, want[e].index) << "k " << k << " row " << i;
            ASSERT_EQ(all[e].distance, want[e].distance);
          }
          if (k == 5 && all.size() > k &&
              all[k].distance == want.back().distance) {
            ++tied;  // the k-th place was decided by the slot tie-break
          }
        }
      }
    }
  }
  EXPECT_GT(tied, 100u);
}

INSTANTIATE_TEST_SUITE_P(RebuildModes, DynamicIndexRadiiTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Flushed")
                                             : std::string("Background");
                         });

// ---------------------------------------------------------------------------
// DynamicIndex: spurious Compact regression

// Compact with zero tombstones must be an identity no-op: no epoch bump,
// no compaction counted, the installed tree kept, and — the original
// bug — an in-flight background build must NOT be discarded.
TEST(DynamicIndexAdmissionTest, SpuriousCompactNeverDiscardsBuilds) {
  DynamicIndex index({0, 1});

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
// Admission-bound harness: one engine against oracles on table()

core::IimOptions AdmissionOptions(size_t threads, bool adaptive) {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 6;
  opt.threads = threads;
  if (adaptive) {
    opt.adaptive = true;
    opt.max_ell = 6;
    opt.step_h = 2;
    opt.validation_k = 3;
  }
  return opt;
}

// The learning-order oracle. table() holds the live window in arrival
// order, so row r is the r-th entry of `live_arrivals` (ascending), and a
// brute-force scan of the window lists each tuple's neighbors ascending
// by (distance, row), which is (distance, arrival). Every live tuple's
// order must be itself followed by the first min(cap, live) - 1 entries
// of that scan, distances bit for bit; cap is l, or max_ell when
// adaptive.
void ExpectOrdersMatchBruteForce(const OnlineIim& engine,
                                 const std::vector<uint64_t>& live_arrivals,
                                 const std::string& where) {
  const core::IimOptions& opt = engine.options();
  const size_t cap = opt.adaptive ? opt.max_ell : opt.ell;
  const data::Table& window = engine.table();
  ASSERT_EQ(window.NumRows(), live_arrivals.size()) << where;
  neighbors::BruteForceIndex brute(&window, engine.features());
  const size_t len = std::min(cap, live_arrivals.size());
  for (size_t r = 0; r < live_arrivals.size(); ++r) {
    const uint64_t a = live_arrivals[r];
    std::vector<neighbors::Neighbor> got = engine.LearningOrderByArrival(a);
    std::vector<neighbors::Neighbor> all = brute.QueryAll(window.Row(r), r);
    ASSERT_EQ(got.size(), len) << where << " arrival " << a;
    EXPECT_EQ(got[0].index, a) << where << " arrival " << a;
    EXPECT_EQ(got[0].distance, 0.0) << where << " arrival " << a;
    for (size_t j = 1; j < len; ++j) {
      EXPECT_EQ(got[j].index, live_arrivals[all[j - 1].index])
          << where << " arrival " << a << " rank " << j;
      EXPECT_EQ(got[j].distance, all[j - 1].distance)  // bit-identical
          << where << " arrival " << a << " rank " << j;
    }
  }
}

// The imputation oracle: a batch IimImputer fitted on a copy of table()
// with the engine's options answers every probe bit for bit.
void ExpectImputationsMatchBatchRefit(OnlineIim* engine,
                                      const std::vector<data::RowView>& probes,
                                      const std::string& where) {
  data::Table window = engine->table();
  core::IimImputer batch(engine->options());
  ASSERT_TRUE(batch.Fit(window, engine->target(), engine->features()).ok())
      << where;
  std::vector<Result<double>> got = engine->ImputeBatch(probes);
  std::vector<Result<double>> want = batch.ImputeBatch(probes);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_TRUE(got[p].ok()) << where << " probe " << p;
    ASSERT_TRUE(want[p].ok()) << where << " probe " << p;
    EXPECT_EQ(got[p].value(), want[p].value()) << where << " probe " << p;
  }
}

// The pruning engaged, never admitted an order it did not scan, and the
// interleavings the harness claims to cover really happened.
void ExpectPruningCounters(const OnlineIim::Stats& stats, bool windowed) {
  EXPECT_LE(stats.core.orders_admitted, stats.core.orders_scanned);
  EXPECT_GT(stats.core.admission_skips, 0u) << "pruning never engaged";
  if (!windowed) return;
  EXPECT_GT(stats.core.evicted, 0u);
  EXPECT_GT(stats.core.compactions, 0u);
}

// Drives one randomized ingest/evict/impute schedule through one engine
// and checks its learning orders and imputations against the oracles on
// table() along the way.
void RunAdmissionDifferential(uint64_t seed, const core::IimOptions& opt) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(360, 3, seed);

  Result<std::unique_ptr<OnlineIim>> engine_r =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(engine_r.ok());
  OnlineIim& engine = *engine_r.value();

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
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    switch (op.kind) {
      case ScheduleOp::kIngest:
        ASSERT_TRUE(engine.Ingest(full.Row(op.src_row)).ok());
        live_arrivals.push_back(op.arrival);
        break;
      case ScheduleOp::kEvict:
        ASSERT_TRUE(engine.Evict(op.arrival).ok());
        live_arrivals.erase(std::find(live_arrivals.begin(),
                                      live_arrivals.end(), op.arrival));
        break;
      case ScheduleOp::kImpute:
        ExpectImputationsMatchBatchRefit(&engine, probe_rows, where);
        break;
    }
    if (step % 110 != 0) continue;
    ASSERT_TRUE(engine.VerifyPostings()) << where;
    ExpectOrdersMatchBruteForce(engine, live_arrivals, where);
  }
  ExpectOrdersMatchBruteForce(engine, live_arrivals, "end");
  ExpectImputationsMatchBatchRefit(&engine, probe_rows, "end");
  ExpectPruningCounters(engine.stats(), /*windowed=*/true);
}

class StreamAdmissionDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StreamAdmissionDifferentialTest, RestreamPathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, AdmissionOptions(threads, false));
}

TEST_P(StreamAdmissionDifferentialTest, AdaptivePathBitIdentical) {
  auto [seed, threads] = GetParam();
  RunAdmissionDifferential(seed, AdmissionOptions(threads, true));
}

// max_ell < validation_k: the core keeps validation_k + 1 entries per
// tuple, past the learning order, and LearningOrderByArrival still
// returns only its first min(max_ell, live).
TEST_P(StreamAdmissionDifferentialTest,
       AdaptiveShortLearningOrderBitIdentical) {
  auto [seed, threads] = GetParam();
  core::IimOptions opt = AdmissionOptions(threads, true);
  opt.max_ell = 3;
  opt.validation_k = 5;
  RunAdmissionDifferential(seed, opt);
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
// the insertion test must still reject it (strict "<"), leaving every
// order and imputation what the oracles on table() give.
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

  Result<std::unique_ptr<OnlineIim>> engine_r = OnlineIim::Create(
      full.schema(), target, features, AdmissionOptions(1, adaptive));
  ASSERT_TRUE(engine_r.ok());
  OnlineIim& engine = *engine_r.value();

  std::vector<uint64_t> live_arrivals;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    ASSERT_TRUE(engine.Ingest(full.Row(i)).ok());
    live_arrivals.push_back(i);
  }
  ASSERT_TRUE(engine.VerifyPostings());
  ExpectOrdersMatchBruteForce(engine, live_arrivals, "exact ties");

  data::Table probes(data::Schema::Default(3));
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(base, i * 3, target)).ok());
  }
  std::vector<data::RowView> probe_rows;
  for (size_t p = 0; p < probes.NumRows(); ++p) {
    probe_rows.push_back(probes.Row(p));
  }
  ExpectImputationsMatchBatchRefit(&engine, probe_rows, "exact ties");
  // Ties keep every duplicate's originals as candidates, but pruning
  // must still bite on the rest of the relation.
  ExpectPruningCounters(engine.stats(), /*windowed=*/false);
}

TEST(StreamAdmissionTest, ExactTieArrivalsBitIdenticalFixedEll) {
  RunExactTieDifferential(/*adaptive=*/false);
}

TEST(StreamAdmissionTest, ExactTieArrivalsBitIdenticalAdaptive) {
  RunExactTieDifferential(/*adaptive=*/true);
}

}  // namespace
}  // namespace iim::stream
