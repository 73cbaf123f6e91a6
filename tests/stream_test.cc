// Streaming subsystem: DynamicIndex snapshot/equivalence guarantees,
// OnlineIim's bit-identical-to-batch contract, and the micro-batching
// ImputationService front end.

#include "stream/online_iim.h"

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/iim_imputer.h"
#include "stream/dynamic_index.h"
#include "stream/imputation_service.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// DynamicIndex

TEST(DynamicIndexTest, MatchesBruteForceUnderInterleavedAppendsAndQueries) {
  // The tree is rebuilt from the first append on, so the stream crosses
  // tree+tail -> rebuild -> swap many times inside 300 appends.
  DynamicIndex dynamic({0, 2});

  data::Table grown(data::Schema::Default(3));
  data::Table full = HeterogeneousTable(300, 3, 21);
  Rng rng(99);
  for (size_t i = 0; i < full.NumRows(); ++i) {
    ASSERT_TRUE(grown.AppendRow(full.Row(i).ToVector()).ok());
    dynamic.Append(full.Row(i));
    ASSERT_EQ(dynamic.size(), i + 1);
    if (i % 7 != 0) continue;
    // Fresh brute-force ground truth over the same prefix.
    neighbors::BruteForceIndex brute(&grown, {0, 2});
    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe
                    .AppendRow({rng.Uniform(-5.0, 15.0), 0.0,
                                rng.Uniform(-5.0, 15.0)})
                    .ok());
    neighbors::QueryOptions qopt;
    qopt.k = 1 + static_cast<size_t>(i % 9);
    if (i % 3 == 0) qopt.exclude = i / 2;
    std::vector<neighbors::Neighbor> got = dynamic.Query(probe.Row(0), qopt);
    std::vector<neighbors::Neighbor> want = brute.Query(probe.Row(0), qopt);
    ASSERT_EQ(got.size(), want.size()) << "append " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].index, want[j].index) << "append " << i << " j " << j;
      EXPECT_EQ(got[j].distance, want[j].distance);  // bit-identical
    }
    std::vector<neighbors::Neighbor> got_all =
        dynamic.QueryAll(probe.Row(0), qopt.exclude);
    std::vector<neighbors::Neighbor> want_all =
        brute.QueryAll(probe.Row(0), qopt.exclude);
    ASSERT_EQ(got_all.size(), want_all.size());
    for (size_t j = 0; j < got_all.size(); ++j) {
      EXPECT_EQ(got_all[j].index, want_all[j].index);
      EXPECT_EQ(got_all[j].distance, want_all[j].distance);
    }
    // k past the live count, however far, returns every live row, and
    // k = 0 nothing.
    for (size_t k : {i + 5, size_t{1} << 40}) {
      qopt.k = k;
      std::vector<neighbors::Neighbor> every =
          dynamic.Query(probe.Row(0), qopt);
      ASSERT_EQ(every.size(), want_all.size()) << "append " << i;
      for (size_t j = 0; j < every.size(); ++j) {
        EXPECT_EQ(every[j].index, want_all[j].index);
        EXPECT_EQ(every[j].distance, want_all[j].distance);
      }
    }
    qopt.k = 0;
    EXPECT_TRUE(dynamic.Query(probe.Row(0), qopt).empty());
  }
  // The stream actually exercised the tree: background builds launched,
  // and after the flush barrier at least one is installed. (Mid-stream,
  // results are exact regardless of whether a swap has landed — the loop
  // above already proved that.) How much the installed tree covers
  // depends on how far the appends outran the builder, so it is not
  // checked here.
  dynamic.WaitForRebuild();
  DynamicIndex::Stats flushed = dynamic.stats();
  EXPECT_GE(flushed.launches, 1u);
  EXPECT_GE(flushed.rebuilds, 1u);
  EXPECT_EQ(flushed.discarded, 0u);  // no compaction raced the builds
  EXPECT_FALSE(flushed.rebuild_in_flight);
  EXPECT_GT(flushed.tree_size, 0u);
  EXPECT_EQ(flushed.tree_size + flushed.tail_size, flushed.slots);
  // What the rules guarantee from there: with no build in flight, one
  // more append either launches a build over every slot (the ceiling,
  // tail >= tree/4, or the work rule) or leaves the flushed tree and a
  // tail below the ceiling.
  dynamic.Append(full.Row(0));
  dynamic.WaitForRebuild();
  DynamicIndex::Stats stats = dynamic.stats();
  EXPECT_FALSE(stats.rebuild_in_flight);
  EXPECT_EQ(stats.slots, full.NumRows() + 1);
  if (flushed.tail_size + 1 >= flushed.tree_size / 4) {
    EXPECT_EQ(stats.tree_size, stats.slots);
  }
  if (stats.tree_size != stats.slots) {
    EXPECT_EQ(stats.tree_size, flushed.tree_size);
    EXPECT_LT(stats.tail_size, stats.tree_size / 4);
  }
  EXPECT_EQ(stats.tree_size + stats.tail_size, stats.slots);
}

TEST(DynamicIndexTest, StatsSnapshotIsCoherent) {
  DynamicIndex index({0, 1});
  data::Table t = HeterogeneousTable(120, 3, 9);
  for (size_t i = 0; i < t.NumRows(); ++i) index.Append(t.Row(i));
  for (size_t s = 0; s < 10; ++s) ASSERT_TRUE(index.Remove(s));
  index.WaitForRebuild();
  DynamicIndex::Stats stats = index.stats();
  // One snapshot, internally consistent: the identities that can tear
  // when read through the per-field accessors while a builder runs.
  EXPECT_EQ(stats.slots, 120u);
  EXPECT_EQ(stats.tombstones, 10u);
  EXPECT_EQ(stats.live, 110u);
  EXPECT_EQ(stats.tree_size + stats.tail_size, stats.slots);
  EXPECT_EQ(stats.swaps + stats.discarded, stats.launches);
  EXPECT_FALSE(stats.rebuild_in_flight);
  EXPECT_EQ(stats.live, index.size());
}

// The work rule's threshold: slot visits of one KD-tree build over n
// points, n·⌈log2 n⌉.
uint64_t BuildCost(size_t n) {
  uint64_t levels = 0;
  while ((uint64_t{1} << levels) < n) ++levels;
  return n * levels;
}

// Gives every slot the same radius: QueryAdmitters over uniform radii is
// a plain range query, every live row within that radius.
void SetUniformRadius(DynamicIndex* index, double radius) {
  const size_t slots = index->stats().slots;
  for (size_t s = 0; s < slots; ++s) index->SetRadius(s, radius);
}

// Ground truth for a uniform-radius QueryAdmitters: every row within
// `radius` (ties included), ascending by slot.
std::vector<neighbors::Neighbor> BruteRange(
    const neighbors::BruteForceIndex& brute, const data::RowView& query,
    double radius) {
  std::vector<neighbors::Neighbor> out;
  for (const neighbors::Neighbor& nb :
       brute.QueryAll(query, neighbors::QueryOptions::kNoExclusion)) {
    if (nb.distance <= radius) out.push_back(nb);
  }
  std::sort(out.begin(), out.end(),
            [](const neighbors::Neighbor& a, const neighbors::Neighbor& b) {
              return a.index < b.index;
            });
  return out;
}

void ExpectSameNeighbors(const std::vector<neighbors::Neighbor>& got,
                         const std::vector<neighbors::Neighbor>& want,
                         size_t step) {
  ASSERT_EQ(got.size(), want.size()) << "append " << step;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].index, want[j].index) << "append " << step << " j " << j;
    EXPECT_EQ(got[j].distance, want[j].distance);  // bit-identical
  }
}

TEST(DynamicIndexTest, QueryHeavyStreamRebuildsOnTailWork) {
  // Flushing the builder after every append makes every rebuild point
  // exact: the build an append launches is installed before the next
  // step, so the tail is empty right after it, and the work count
  // restarts there.
  DynamicIndex index({0, 2});
  // Every query below scans the tail once.
  constexpr size_t kQueriesPerAppend = 12;

  data::Table grown(data::Schema::Default(3));
  data::Table full = HeterogeneousTable(1000, 3, 61);
  Rng rng(5);
  uint64_t scanned_at_rebuild = 0;
  size_t work_rebuilds = 0;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    DynamicIndex::Stats before = index.stats();
    ASSERT_TRUE(grown.AppendRow(full.Row(i).ToVector()).ok());
    index.Append(full.Row(i));
    index.WaitForRebuild();
    DynamicIndex::Stats after = index.stats();
    uint64_t scanned = after.tail_rows_scanned - scanned_at_rebuild;
    uint64_t cost = BuildCost(after.slots);
    // The two rules, as the append saw them: its row joined the tail the
    // previous flush left behind.
    bool ceiling = before.tail_size + 1 >= before.tree_size / 4;
    bool work = scanned >= cost;
    if (after.rebuilds > before.rebuilds) {
      ASSERT_EQ(after.rebuilds, before.rebuilds + 1);
      EXPECT_EQ(after.tail_size, 0u);
      EXPECT_TRUE(ceiling || work) << "append " << i;
      if (work && !ceiling) ++work_rebuilds;
      scanned_at_rebuild = after.tail_rows_scanned;
    } else {
      ASSERT_GT(i, 0u);  // the first append always builds
      EXPECT_FALSE(ceiling) << "append " << i;
      EXPECT_FALSE(work) << "append " << i;
      EXPECT_LT(after.tail_size, after.tree_size / 4) << "append " << i;
      // The bound the rule implies: a tail of t rows has drawn
      // q·(1 + ... + (t-1)) = q·t(t-1)/2 slot visits since the rebuild
      // that emptied it, and that stays below one build's cost.
      EXPECT_LE(static_cast<double>(after.tail_size),
                1.0 + std::sqrt(2.0 * static_cast<double>(cost) /
                                kQueriesPerAppend))
          << "append " << i;
    }

    neighbors::BruteForceIndex brute(&grown, {0, 2});
    for (size_t q = 0; q < kQueriesPerAppend; ++q) {
      std::vector<double> probe_values = {rng.Uniform(-5.0, 15.0), 0.0,
                                          rng.Uniform(-5.0, 15.0)};
      data::RowView probe(probe_values.data(), probe_values.size());
      neighbors::QueryOptions qopt;
      qopt.k = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
      if (q % 3 == 0) qopt.exclude = i / 2;
      double radius = rng.Uniform(0.0, 2.0);
      if (q >= kQueriesPerAppend - 2) {
        // The admitters query over a uniform radius, alone (k = 0) and
        // fused with the kNN lookup.
        SetUniformRadius(&index, radius);
        if (q == kQueriesPerAppend - 2) qopt.k = 0;
        std::vector<neighbors::Neighbor> nearest, in_range;
        index.QueryAdmitters(probe, qopt, &nearest, &in_range);
        ExpectSameNeighbors(nearest, brute.Query(probe, qopt), i);
        ExpectSameNeighbors(in_range, BruteRange(brute, probe, radius), i);
      } else {
        ExpectSameNeighbors(index.Query(probe, qopt), brute.Query(probe, qopt),
                            i);
      }
    }
  }
  EXPECT_GE(work_rebuilds, 20u);
}

TEST(DynamicIndexTest, QueryFreeBurstRebuildsAtQuarterTreeCeiling) {
  // No query ever scans the tail, so the work count never moves and the
  // tree/4 ceiling alone schedules rebuilds: the first at the first
  // append (an empty tree's ceiling is zero), then each once the tail
  // reaches a quarter of the tree. Each append's build is flushed before
  // the next, so every launch lands where it starts.
  DynamicIndex index({0, 1});
  data::Table full = HeterogeneousTable(2000, 3, 13);
  // Every append while tree/4 is 0 or 1, then the tree grows by
  // tree/4 rows per rebuild: amortized O(log n), not one per append.
  const std::vector<size_t> want = {
      1,   2,   3,   4,   5,   6,   7,    8,    10,   12,   15,
      18,  22,  27,  33,  41,  51,  63,   78,   97,   121,  151,
      188, 235, 293, 366, 457, 571, 713,  891,  1113, 1391, 1738};
  std::vector<size_t> rebuilt_at;
  size_t tree = 0;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    index.Append(full.Row(i));
    index.WaitForRebuild();
    DynamicIndex::Stats s = index.stats();
    if (s.tree_size != tree) {
      ASSERT_EQ(s.tree_size, i + 1) << "append " << i;
      tree = s.tree_size;
      rebuilt_at.push_back(tree);
    }
    ASSERT_EQ(s.rebuilds, rebuilt_at.size()) << "append " << i;
  }
  EXPECT_EQ(rebuilt_at, want);
  EXPECT_EQ(index.stats().tail_rows_scanned, 0u);
}

TEST(DynamicIndexTest, TailRowsScannedCountsTailSlotsQueriesVisit) {
  DynamicIndex index({0, 1});
  ThreadPool pool(4);
  data::Table full = HeterogeneousTable(600, 3, 23);
  Rng rng(41);
  std::vector<uint8_t> live;
  uint64_t visited = 0;   // tail slots this test's queries scanned
  uint64_t searches = 0;  // searches those queries made
  for (size_t i = 0; i < full.NumRows(); ++i) {
    index.Append(full.Row(i));
    index.WaitForRebuild();
    live.push_back(1);
    if (i > 40 && rng.Bernoulli(0.3)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      if (live[victim] != 0 && index.Remove(victim)) live[victim] = 0;
    }
    if (index.NeedsCompaction()) {
      std::vector<size_t> remap = index.Compact();
      index.WaitForRebuild();
      std::vector<uint8_t> packed;
      for (size_t s = 0; s < live.size(); ++s) {
        if (remap[s] != DynamicIndex::kGone) packed.push_back(live[s]);
      }
      live.swap(packed);
    }
    // Tombstoned tail slots count too: the scan visits them to skip them.
    uint64_t tail = index.stats().tail_size;
    data::RowView probe = full.Row(i / 2);
    neighbors::QueryOptions qopt;
    qopt.k = 3;
    switch (i % 7) {
      case 0:
        index.Query(probe, qopt);
        visited += tail;
        ++searches;
        break;
      case 1: {
        neighbors::Neighbor next{0, 0.0};
        index.Successor(probe, neighbors::Neighbor{0, 0.5},
                        neighbors::QueryOptions::kNoExclusion, &next);
        visited += tail;
        ++searches;
        break;
      }
      case 2: {
        index.SetRadius(i / 3, 0.5);
        std::vector<neighbors::Neighbor> nearest, admitters;
        index.QueryAdmitters(probe, qopt, &nearest, &admitters);
        visited += tail;  // one pass feeds both outputs
        ++searches;
        break;
      }
      case 3: {
        // Concurrent readers bump the counter under the shared lock.
        std::vector<neighbors::BatchQuery> batch;
        for (size_t b = 0; b < 24; ++b) {
          batch.push_back({full.Row((i + b) % full.NumRows()), b});
        }
        index.QueryMany(batch, 3, &pool);
        visited += tail * batch.size();
        searches += batch.size();
        break;
      }
      case 4:
        // A full scan, not a tail scan or a search.
        index.QueryAll(probe, neighbors::QueryOptions::kNoExclusion);
        break;
      case 5:
        // Nothing to search: k == 0.
        qopt.k = 0;
        index.Query(probe, qopt);
        break;
      default:
        break;
    }
    ASSERT_EQ(index.stats().tail_rows_scanned, visited) << "append " << i;
    ASSERT_EQ(index.stats().queries, searches) << "append " << i;
  }
  EXPECT_GT(visited, 0u);
  EXPECT_GE(index.stats().compactions, 1u);
  EXPECT_GE(index.stats().rebuilds, 2u);
}

// ---------------------------------------------------------------------------
// OnlineIim

core::IimOptions StreamOptions(size_t threads) {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 12;
  opt.threads = threads;
  return opt;
}

TEST(OnlineIimTest, BitIdenticalToBatchRefitAcrossStreamAndThreads) {
  data::Table full = HeterogeneousTable(260, 3, 11);
  int target = 2;
  std::vector<int> features = {0, 1};

  for (size_t threads : {size_t{1}, size_t{4}}) {
    core::IimOptions opt = StreamOptions(threads);
    Result<std::unique_ptr<OnlineIim>> engine =
        OnlineIim::Create(full.schema(), target, features, opt);
    ASSERT_TRUE(engine.ok());
    OnlineIim& online = *engine.value();

    data::Table probes(data::Schema::Default(3));
    for (size_t i = 200; i < 240; ++i) {
      ASSERT_TRUE(probes.AppendRow(Probe(full, i, target)).ok());
    }

    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
      // Interleave imputations so models get built mid-stream and then
      // re-dirtied by later arrivals — the hard path for laziness.
      if (i % 31 == 30) {
        EXPECT_TRUE(online.ImputeOne(probes.Row(0)).ok());
      }
      // Snapshot checkpoints: a from-scratch batch fit on the relation
      // ingested so far must reproduce the online engine exactly.
      if (i == 24 || i == 121 || i == 199) {
        core::IimImputer batch(opt);
        ASSERT_TRUE(batch.Fit(online.table(), target, features).ok());
        std::vector<data::RowView> rows;
        for (size_t p = 0; p < probes.NumRows(); ++p) {
          rows.push_back(probes.Row(p));
        }
        std::vector<Result<double>> got = online.ImputeBatch(rows);
        std::vector<Result<double>> want = batch.ImputeBatch(rows);
        ASSERT_EQ(got.size(), want.size());
        for (size_t p = 0; p < rows.size(); ++p) {
          ASSERT_TRUE(got[p].ok()) << "probe " << p;
          ASSERT_TRUE(want[p].ok()) << "probe " << p;
          // Bit-identical, not approximately equal.
          EXPECT_EQ(got[p].value(), want[p].value())
              << "ingests " << i + 1 << " probe " << p << " threads "
              << threads;
        }
      }
    }

    // Both incremental maintenance paths actually ran.
    EXPECT_GT(online.stats().core.fast_path_appends, 0u);
    EXPECT_GT(online.stats().core.models_invalidated, 0u);
    EXPECT_GT(online.stats().core.models_solved, 0u);
    EXPECT_EQ(online.stats().ingested, 200u);
  }
}

TEST(OnlineIimTest, ThreadCountsAgreeBitwise) {
  data::Table full = HeterogeneousTable(140, 3, 17);
  Result<std::unique_ptr<OnlineIim>> e1 =
      OnlineIim::Create(full.schema(), 2, {0, 1}, StreamOptions(1));
  Result<std::unique_ptr<OnlineIim>> e4 =
      OnlineIim::Create(full.schema(), 2, {0, 1}, StreamOptions(4));
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e4.ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(e1.value()->Ingest(full.Row(i)).ok());
    ASSERT_TRUE(e4.value()->Ingest(full.Row(i)).ok());
  }
  data::Table probes(data::Schema::Default(3));
  for (size_t i = 100; i < 140; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(full, i, 2)).ok());
  }
  std::vector<data::RowView> rows;
  for (size_t p = 0; p < probes.NumRows(); ++p) rows.push_back(probes.Row(p));
  std::vector<Result<double>> r1 = e1.value()->ImputeBatch(rows);
  std::vector<Result<double>> r4 = e4.value()->ImputeBatch(rows);
  ASSERT_EQ(r1.size(), r4.size());
  for (size_t p = 0; p < r1.size(); ++p) {
    ASSERT_TRUE(r1[p].ok());
    ASSERT_TRUE(r4[p].ok());
    EXPECT_EQ(r1[p].value(), r4[p].value()) << p;
  }
}

TEST(OnlineIimTest, EllOneReducesToOnlineKnn) {
  // l = 1 constant models: the online engine must agree with batch IIM in
  // its kNN-reduction corner too (Proposition 2's other endpoint).
  data::Table full = HeterogeneousTable(60, 3, 29);
  core::IimOptions opt;
  opt.k = 3;
  opt.ell = 1;
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.value()->Ingest(full.Row(i)).ok());
  }
  core::IimImputer batch(opt);
  ASSERT_TRUE(batch.Fit(engine.value()->table(), 2, {0, 1}).ok());
  for (size_t i = 50; i < 60; ++i) {
    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe.AppendRow(Probe(full, i, 2)).ok());
    Result<double> got = engine.value()->ImputeOne(probe.Row(0));
    Result<double> want = batch.ImputeOne(probe.Row(0));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value(), want.value());
  }
}

TEST(OnlineIimTest, HugeKImputesLikeBatchRefit) {
  // A k far past the window asks for every live row as a neighbor, as it
  // does of a batch fit; no search sizes anything by k.
  data::Table full = HeterogeneousTable(30, 3, 31);
  core::IimOptions opt = StreamOptions(1);
  opt.k = size_t{1} << 40;
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.value()->Ingest(full.Row(i)).ok());
  }
  core::IimImputer batch(opt);
  ASSERT_TRUE(batch.Fit(engine.value()->table(), 2, {0, 1}).ok());
  for (size_t i = 20; i < 30; ++i) {
    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe.AppendRow(Probe(full, i, 2)).ok());
    Result<double> got = engine.value()->ImputeOne(probe.Row(0));
    Result<double> want = batch.ImputeOne(probe.Row(0));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value(), want.value()) << "probe " << i;
  }
}

TEST(OnlineIimTest, ValidatesArguments) {
  data::Schema schema = data::Schema::Default(3);
  core::IimOptions opt;
  EXPECT_FALSE(OnlineIim::Create(schema, 5, {0}, opt).ok());   // target
  EXPECT_FALSE(OnlineIim::Create(schema, 2, {}, opt).ok());    // no features
  EXPECT_FALSE(OnlineIim::Create(schema, 2, {2}, opt).ok());   // target in F
  opt.k = 0;
  EXPECT_FALSE(OnlineIim::Create(schema, 2, {0}, opt).ok());   // k == 0
  opt.k = 5;
  opt.adaptive = true;
  EXPECT_FALSE(OnlineIim::Create(schema, 2, {0}, opt).ok());   // adaptive
  opt.adaptive = false;

  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(schema, 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  data::Table bad(data::Schema::Default(3));
  ASSERT_TRUE(bad.AppendRow({1.0, kNan, 2.0}).ok());  // NaN feature
  EXPECT_FALSE(engine.value()->Ingest(bad.Row(0)).ok());
  data::Table bad_target(data::Schema::Default(3));
  ASSERT_TRUE(bad_target.AppendRow({1.0, 1.0, kNan}).ok());
  EXPECT_FALSE(engine.value()->Ingest(bad_target.Row(0)).ok());
  // Imputing before any ingest is a precondition failure.
  data::Table probe(data::Schema::Default(3));
  ASSERT_TRUE(probe.AppendRow({1.0, 1.0, kNan}).ok());
  EXPECT_FALSE(engine.value()->ImputeOne(probe.Row(0)).ok());
}

// ---------------------------------------------------------------------------
// ImputationService

TEST(ImputationServiceTest, OrderedIngestImputeEqualsDirectDrive) {
  data::Table full = HeterogeneousTable(160, 3, 41);
  core::IimOptions opt = StreamOptions(2);

  // Reference: drive one engine synchronously.
  Result<std::unique_ptr<OnlineIim>> ref =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(ref.ok());
  std::vector<double> want;
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(ref.value()->Ingest(full.Row(i)).ok());
    if (i >= 20 && i % 5 == 0) {
      data::Table probe(data::Schema::Default(3));
      ASSERT_TRUE(probe.AppendRow(Probe(full, 120 + i % 40, 2)).ok());
      Result<double> v = ref.value()->ImputeOne(probe.Row(0));
      ASSERT_TRUE(v.ok());
      want.push_back(v.value());
    }
  }

  // Same arrival sequence through the async service.
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  std::vector<std::future<Result<double>>> futures;
  {
    ImputationService::Options sopt;
    sopt.max_batch = 8;
    ImputationService service(engine.value().get(), sopt);
    for (size_t i = 0; i < 120; ++i) {
      service.SubmitIngest(full.Row(i).ToVector());
      if (i >= 20 && i % 5 == 0) {
        futures.push_back(service.SubmitImpute(Probe(full, 120 + i % 40, 2)));
      }
    }
    service.Drain();
    ImputationService::Stats stats = service.stats();
    EXPECT_EQ(stats.ingests, 120u);
    EXPECT_EQ(stats.imputations, futures.size());
    EXPECT_GE(stats.batches, 1u);
  }  // destructor serves anything left and joins

  ASSERT_EQ(futures.size(), want.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value(), want[i]) << i;
  }
}

TEST(ImputationServiceTest, BoundedQueueShedsLoadWithExplicitStatus) {
  data::Table full = HeterogeneousTable(60, 3, 61);
  core::IimOptions opt = StreamOptions(1);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());

  ImputationService::Options sopt;
  sopt.max_batch = 4;
  sopt.max_queue = 8;
  ImputationService service(engine.value().get(), sopt);
  // Pause before submitting: the server is parked, so the queue fills
  // deterministically to the bound and everything past it is shed.
  service.Pause();

  std::vector<std::future<Status>> accepted;
  for (size_t i = 0; i < sopt.max_queue; ++i) {
    accepted.push_back(service.SubmitIngest(full.Row(i).ToVector()));
  }
  // Saturated: ingests, imputations and evictions are all rejected
  // immediately with the explicit overload status.
  std::future<Status> shed_ingest =
      service.SubmitIngest(full.Row(20).ToVector());
  std::future<Result<double>> shed_impute =
      service.SubmitImpute(Probe(full, 30, 2));
  std::future<Status> shed_evict = service.SubmitEvict(0);
  EXPECT_EQ(shed_ingest.get().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed_impute.get().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(shed_evict.get().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().queue_shed, 3u);

  // Resume: every accepted request is served normally.
  service.Resume();
  service.Drain();
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.ingests, sopt.max_queue);
  EXPECT_EQ(engine.value()->size(), sopt.max_queue);
}

TEST(ImputationServiceTest, SubmitEvictAppliesInSubmissionOrder) {
  data::Table full = HeterogeneousTable(80, 3, 67);
  core::IimOptions opt = StreamOptions(2);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());

  ImputationService service(engine.value().get());
  for (size_t i = 0; i < 60; ++i) {
    service.SubmitIngest(full.Row(i).ToVector());
  }
  // Retire the first 20 arrivals; the imputation submitted after them must
  // observe the shrunken window.
  std::vector<std::future<Status>> evictions;
  for (uint64_t a = 0; a < 20; ++a) {
    evictions.push_back(service.SubmitEvict(a));
  }
  std::future<Status> bogus = service.SubmitEvict(999);
  std::future<Result<double>> value = service.SubmitImpute(Probe(full, 70, 2));
  service.Drain();

  for (auto& f : evictions) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(bogus.get().code(), StatusCode::kNotFound);
  ASSERT_TRUE(value.get().ok());
  EXPECT_EQ(engine.value()->size(), 40u);
  EXPECT_EQ(service.stats().evictions, 21u);
  EXPECT_EQ(engine.value()->stats().core.evicted, 20u);
}

TEST(ImputationServiceTest, CoalescesConsecutiveImputations) {
  data::Table full = HeterogeneousTable(80, 3, 53);
  core::IimOptions opt = StreamOptions(2);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.value()->Ingest(full.Row(i)).ok());
  }

  ImputationService::Options sopt;
  sopt.max_batch = 16;
  ImputationService service(engine.value().get(), sopt);
  // Park the server while submitting so the queue really holds runs of
  // consecutive imputations — without this the test races the drain (a
  // server faster than the producer never sees two requests at once).
  service.Pause();
  std::vector<std::future<Result<double>>> futures;
  for (size_t i = 40; i < 80; ++i) {
    futures.push_back(service.SubmitImpute(Probe(full, i, 2)));
  }
  service.Resume();
  service.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.imputations, 40u);
  // 40 queued requests against a 16-cap drain in exactly ceil(40/16)
  // micro-batches.
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.largest_batch, 16u);
}

// Regression: stats read while paused used to race the in-flight batch —
// Pause() returned as soon as the drain flag was set, so a "paused"
// snapshot could have counters still moving under it (two consecutive
// reads disagreed). Pause() now blocks until the in-flight work
// finishes; while paused, every counter is stable and the books balance:
// each submitted request is either served (counted, future ready),
// rejected (counted, future ready), or still queued (uncounted, future
// pending).
TEST(ImputationServiceTest, StatsSnapshotStableAndCoherentWhilePaused) {
  data::Table full = HeterogeneousTable(160, 3, 97);
  core::IimOptions opt = StreamOptions(2);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());

  ImputationService::Options sopt;
  sopt.max_batch = 8;
  ImputationService service(engine.value().get(), sopt);

  std::vector<std::future<Status>> status_futures;
  std::vector<std::future<Result<double>>> impute_futures;
  for (size_t i = 0; i < 100; ++i) {
    status_futures.push_back(service.SubmitIngest(full.Row(i).ToVector()));
    if (i >= 30 && i % 3 == 0) {
      impute_futures.push_back(service.SubmitImpute(Probe(full, 120, 2)));
    }
    if (i == 60) {
      // Pause mid-stream, very likely mid-batch: the snapshot pair below
      // is exactly the read the fix protects.
      service.Pause();

      ImputationService::Stats s1 = service.stats();
      ImputationService::Stats s2 = service.stats();
      EXPECT_EQ(s1.ingests, s2.ingests);
      EXPECT_EQ(s1.imputations, s2.imputations);
      EXPECT_EQ(s1.evictions, s2.evictions);
      EXPECT_EQ(s1.batches, s2.batches);
      EXPECT_EQ(s1.queue_shed, s2.queue_shed);

      size_t ready = 0;
      for (auto& f : status_futures) {
        if (f.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          ++ready;
        }
      }
      for (auto& f : impute_futures) {
        if (f.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          ++ready;
        }
      }
      EXPECT_EQ(ready, s1.ingests + s1.imputations + s1.evictions +
                           s1.queue_shed);
      service.Resume();
    }
  }
  service.Drain();
  for (auto& f : status_futures) EXPECT_TRUE(f.get().ok());
  for (auto& f : impute_futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(service.stats().ingests, 100u);
}

// Regression: max_batch = 0 used to pop an empty impute batch and spin on
// it forever — the future never resolved and Drain()/Shutdown() hung. The
// service now reads 0 as 1.
TEST(ImputationServiceTest, ZeroMaxBatchStillAnswersImputes) {
  data::Table full = HeterogeneousTable(60, 3, 61);
  core::IimOptions opt = StreamOptions(1);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.value()->Ingest(full.Row(i)).ok());
  }
  std::vector<double> probe = Probe(full, 50, 2);
  Result<double> want =
      engine.value()->ImputeOne(data::RowView(probe.data(), probe.size()));
  ASSERT_TRUE(want.ok());

  ImputationService::Options sopt;
  sopt.max_batch = 0;
  auto service =
      std::make_unique<ImputationService>(engine.value().get(), sopt);
  std::future<Result<double>> got = service->SubmitImpute(probe);
  if (got.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // A stuck server thread would also hang Shutdown(): leak the service
    // and its engine so the regression fails instead of timing out.
    (void)service.release();
    (void)engine.value().release();
    FAIL() << "max_batch = 0 never answered the impute";
  }
  Result<double> r = got.get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), want.value());
  service->Drain();
  EXPECT_EQ(service->stats().batches, 1u);
  EXPECT_EQ(service->stats().largest_batch, 1u);
}

TEST(ImputationServiceTest, ShutdownDrainsBacklogAndRejectsLateSubmits) {
  data::Table full = HeterogeneousTable(80, 3, 71);
  core::IimOptions opt = StreamOptions(1);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());

  ImputationService service(engine.value().get());
  // Park the server and pile up a backlog of every request kind: the
  // regression this pins is a shutdown that abandoned queued promises
  // (std::future_error / broken_promise on get()).
  service.Pause();
  std::vector<std::future<Status>> ingests;
  for (size_t i = 0; i < 40; ++i) {
    ingests.push_back(service.SubmitIngest(full.Row(i).ToVector()));
  }
  std::future<Result<double>> impute = service.SubmitImpute(Probe(full, 50, 2));
  std::future<Status> evict = service.SubmitEvict(0);

  // Shutdown must serve the whole paused backlog, not abandon it.
  service.Shutdown();
  for (auto& f : ingests) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(impute.get().ok());
  EXPECT_TRUE(evict.get().ok());
  EXPECT_EQ(engine.value()->size(), 39u);  // 40 ingested, 1 evicted

  // From here on every submission resolves immediately to the distinct
  // kShutdown status — not the kResourceExhausted overload path.
  std::future<Status> late_ingest =
      service.SubmitIngest(full.Row(41).ToVector());
  std::future<Result<double>> late_impute =
      service.SubmitImpute(Probe(full, 51, 2));
  std::future<Status> late_evict = service.SubmitEvict(1);
  EXPECT_EQ(late_ingest.get().code(), StatusCode::kShutdown);
  EXPECT_EQ(late_impute.get().status().code(), StatusCode::kShutdown);
  EXPECT_EQ(late_evict.get().code(), StatusCode::kShutdown);

  ImputationService::Stats stats = service.stats();
  EXPECT_EQ(stats.ingests, 40u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.queue_shed, 0u);
  EXPECT_EQ(stats.shutdown_rejected, 3u);
  EXPECT_EQ(engine.value()->size(), 39u);  // late submits never applied

  service.Shutdown();  // idempotent; the destructor calls it once more
}

}  // namespace
}  // namespace iim::stream
