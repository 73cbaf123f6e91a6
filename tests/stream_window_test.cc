// Sliding-window streaming: DynamicIndex tombstones/compaction and the
// windowed OnlineIim differential harness.
//
// The eviction machinery is only trustworthy if the online state provably
// matches a fresh fit on the same data (masking-style validation of an
// imputer says nothing otherwise), so the core of this file pins windowed
// `OnlineIim` against a from-scratch batch `IimImputer` refit on the live
// window, over randomized arrival/eviction schedules, several seeds and
// thread counts: bit-identical, because an eviction that cuts a folded
// prefix restreams that accumulator in the batch fit's summation order.

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/iim_imputer.h"
#include "stream/dynamic_index.h"
#include "stream/online_iim.h"
#include "stream_test_util.h"

namespace iim::stream {
namespace {

// ---------------------------------------------------------------------------
// DynamicIndex tombstones

TEST(DynamicIndexWindowTest, QueriesNeverReturnEvictedRows) {
  DynamicIndex::Options dopt;
  dopt.kdtree_threshold = 32;
  dopt.min_compact_tombstones = 1u << 30;  // no compaction in this test
  DynamicIndex index({0, 1}, dopt);

  data::Table full = HeterogeneousTable(240, 3, 5);
  Rng rng(17);
  std::vector<uint8_t> live;  // by slot
  for (size_t i = 0; i < full.NumRows(); ++i) {
    index.Append(full.Row(i));
    live.push_back(1);
    // Interleave removals so tombstones land both inside the KD-tree
    // prefix and in the brute-force tail.
    if (i > 20 && rng.Bernoulli(0.3)) {
      size_t victim = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(live.size()) - 1));
      if (live[victim] != 0) {
        EXPECT_TRUE(index.Remove(victim));
        EXPECT_FALSE(index.Remove(victim));  // double-remove is a no-op
        live[victim] = 0;
      }
    }
    if (i % 9 != 0) continue;

    // Ground truth: brute force over the live rows only.
    data::Table alive_table(data::Schema::Default(3));
    std::vector<size_t> slot_of_alive_row;
    for (size_t s = 0; s < live.size(); ++s) {
      if (live[s] != 0) {
        ASSERT_TRUE(alive_table.AppendRow(full.Row(s).ToVector()).ok());
        slot_of_alive_row.push_back(s);
      }
    }
    neighbors::BruteForceIndex brute(&alive_table, {0, 1});

    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe
                    .AppendRow({rng.Uniform(-5.0, 15.0),
                                rng.Uniform(-5.0, 15.0), 0.0})
                    .ok());
    neighbors::QueryOptions qopt;
    qopt.k = 1 + static_cast<size_t>(i % 7);
    std::vector<neighbors::Neighbor> got = index.Query(probe.Row(0), qopt);
    std::vector<neighbors::Neighbor> want = brute.Query(probe.Row(0), qopt);
    ASSERT_EQ(got.size(), want.size()) << "append " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].index, slot_of_alive_row[want[j].index])
          << "append " << i << " j " << j;
      EXPECT_EQ(got[j].distance, want[j].distance);  // bit-identical
      EXPECT_NE(live[got[j].index], 0) << "evicted row returned";
    }

    std::vector<neighbors::Neighbor> got_all =
        index.QueryAll(probe.Row(0), neighbors::QueryOptions::kNoExclusion);
    ASSERT_EQ(got_all.size(), index.size());
    for (const neighbors::Neighbor& nb : got_all) {
      EXPECT_NE(live[nb.index], 0) << "evicted row in QueryAll";
    }
  }
  size_t live_count = 0;
  for (uint8_t a : live) live_count += a;
  EXPECT_EQ(index.size(), live_count);
  EXPECT_EQ(index.slots(), full.NumRows());
  EXPECT_EQ(index.tombstones(), full.NumRows() - live_count);
  index.WaitForRebuild();  // flush the background builder, then count
  EXPECT_GE(index.rebuilds(), 1u);  // the KD-tree path really ran
}

TEST(DynamicIndexWindowTest, CompactionPreservesQueryResultsBitwise) {
  DynamicIndex::Options dopt;
  dopt.kdtree_threshold = 48;
  dopt.min_compact_tombstones = 20;
  dopt.max_tombstone_fraction = 0.25;
  DynamicIndex index({0, 2}, dopt);

  data::Table full = HeterogeneousTable(200, 3, 31);
  for (size_t i = 0; i < full.NumRows(); ++i) index.Append(full.Row(i));
  // Evict every third row; track the expected survivor slots.
  std::vector<size_t> survivors;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    if (i % 3 == 1) {
      ASSERT_TRUE(index.Remove(i));
    } else {
      survivors.push_back(i);
    }
  }
  ASSERT_TRUE(index.NeedsCompaction());

  data::Table probe(data::Schema::Default(3));
  ASSERT_TRUE(probe.AppendRow({1.25, 0.0, -2.5}).ok());
  neighbors::QueryOptions qopt;
  qopt.k = 17;
  std::vector<neighbors::Neighbor> before = index.Query(probe.Row(0), qopt);

  std::vector<size_t> remap = index.Compact();
  ASSERT_EQ(remap.size(), full.NumRows());
  ASSERT_FALSE(index.NeedsCompaction());
  EXPECT_EQ(index.compactions(), 1u);
  EXPECT_EQ(index.slots(), survivors.size());
  EXPECT_EQ(index.size(), survivors.size());
  EXPECT_EQ(index.tombstones(), 0u);
  // The remap sends survivor slot j to dense position j, in order.
  for (size_t j = 0; j < survivors.size(); ++j) {
    EXPECT_EQ(remap[survivors[j]], j);
  }
  for (size_t i = 0; i < full.NumRows(); ++i) {
    if (i % 3 == 1) EXPECT_EQ(remap[i], DynamicIndex::kGone);
  }

  std::vector<neighbors::Neighbor> after = index.Query(probe.Row(0), qopt);
  ASSERT_EQ(after.size(), before.size());
  for (size_t j = 0; j < after.size(); ++j) {
    EXPECT_EQ(after[j].index, remap[before[j].index]);
    EXPECT_EQ(after[j].distance, before[j].distance);  // bit-identical
  }
}

// ---------------------------------------------------------------------------
// Windowed OnlineIim vs. batch refit on the live window

core::IimOptions WindowOptions(size_t threads) {
  core::IimOptions opt;
  opt.k = 4;
  opt.ell = 8;
  opt.threads = threads;
  return opt;
}

// Asserts that the engine's live window is exactly `rows` of `source`, in
// order, bit for bit.
void ExpectWindowEquals(const OnlineIim& online, const data::Table& source,
                        const std::vector<size_t>& rows) {
  const data::Table& window = online.table();
  ASSERT_EQ(window.NumRows(), rows.size());
  ASSERT_EQ(online.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < source.NumCols(); ++c) {
      ASSERT_EQ(window.At(i, c), source.At(rows[i], c))
          << "window row " << i << " col " << c;
    }
  }
}

// The harness proper. One run = one (seed, threads) cell.
void RunWindowDifferential(uint64_t seed, size_t threads) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(420, 3, seed);
  core::IimOptions opt = WindowOptions(threads);

  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), target, features, opt);
  ASSERT_TRUE(engine.ok());
  OnlineIim& online = *engine.value();

  data::Table probes(data::Schema::Default(3));
  for (size_t i = 380; i < 420; ++i) {
    ASSERT_TRUE(probes.AppendRow(Probe(full, i, target)).ok());
  }
  std::vector<data::RowView> probe_rows;
  for (size_t p = 0; p < probes.NumRows(); ++p) {
    probe_rows.push_back(probes.Row(p));
  }

  // Randomized arrival/eviction schedule over source rows [0, 380).
  Rng rng(seed * 1000 + threads);
  std::vector<size_t> live_rows;      // source rows, arrival order
  std::vector<uint64_t> live_seqs;    // matching arrival numbers
  uint64_t arrivals = 0;
  size_t next_src = 0;
  size_t steps = 0;
  while (next_src < 380) {
    ++steps;
    bool evict = live_seqs.size() > 12 && rng.Bernoulli(0.35);
    if (evict) {
      size_t v = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(live_seqs.size()) - 1));
      uint64_t victim = live_seqs[v];
      ASSERT_TRUE(online.Evict(victim).ok());
      live_seqs.erase(live_seqs.begin() + static_cast<long>(v));
      live_rows.erase(live_rows.begin() + static_cast<long>(v));
      // Evicting twice is NotFound, not a crash.
      EXPECT_EQ(online.Evict(victim).code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(online.Ingest(full.Row(next_src)).ok());
      live_seqs.push_back(arrivals++);
      live_rows.push_back(next_src++);
    }
    // Interleave imputations so models get built mid-stream and then
    // re-dirtied by later arrivals and evictions — the hard path.
    if (steps % 37 == 0 && !live_rows.empty()) {
      (void)online.ImputeOne(probes.Row(0));
    }

    // Checkpoints: the live window must match the reference bit for bit,
    // the reverse-neighbor postings must match a recomputation from the
    // learning orders, and a from-scratch batch fit on the window must
    // reproduce the engine.
    if (steps % 120 != 0 && next_src != 380) continue;
    ASSERT_TRUE(online.VerifyPostings()) << "seed " << seed << " step "
                                        << steps;
    ExpectWindowEquals(online, full, live_rows);
    if (live_rows.empty()) continue;
    data::Table snapshot = online.table();
    core::IimImputer batch(opt);
    ASSERT_TRUE(batch.Fit(snapshot, target, features).ok());
    std::vector<Result<double>> got = online.ImputeBatch(probe_rows);
    std::vector<Result<double>> want = batch.ImputeBatch(probe_rows);
    ASSERT_EQ(got.size(), want.size());
    for (size_t p = 0; p < got.size(); ++p) {
      ASSERT_TRUE(got[p].ok()) << "probe " << p;
      ASSERT_TRUE(want[p].ok()) << "probe " << p;
      EXPECT_EQ(got[p].value(), want[p].value())
          << "seed " << seed << " threads " << threads << " step " << steps
          << " probe " << p;
    }
  }

  const OnlineIim::Stats& stats = online.stats();
  EXPECT_EQ(stats.ingested, 380u);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_GT(stats.backfills, 0u);
}

class StreamWindowDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(StreamWindowDifferentialTest, RestreamPathBitIdenticalToBatchRefit) {
  auto [seed, threads] = GetParam();
  RunWindowDifferential(seed, threads);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, StreamWindowDifferentialTest,
    ::testing::Combine(::testing::Values(uint64_t{11}, uint64_t{23},
                                         uint64_t{47}),
                       ::testing::Values(size_t{1}, size_t{4})));

// FIFO sliding window via options.window_size: auto-eviction keeps the
// last W arrivals, compaction triggers repeatedly, and the final state
// still matches a batch refit on the window.
TEST(StreamWindowTest, FifoWindowAutoEvictsAndCompacts) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  const size_t kWindow = 100;
  data::Table full = HeterogeneousTable(460, 3, 77);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    core::IimOptions opt = WindowOptions(threads);
    opt.window_size = kWindow;
    Result<std::unique_ptr<OnlineIim>> engine =
        OnlineIim::Create(full.schema(), target, features, opt);
    ASSERT_TRUE(engine.ok());
    OnlineIim& online = *engine.value();

    data::Table mid_probe(data::Schema::Default(3));
    ASSERT_TRUE(mid_probe.AppendRow(Probe(full, 430, target)).ok());
    for (size_t i = 0; i < 420; ++i) {
      ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
      ASSERT_LE(online.size(), kWindow);
      // Interleaved imputations force lazy solves between evictions.
      if (i % 97 == 0) {
        ASSERT_TRUE(online.ImputeOne(mid_probe.Row(0)).ok());
      }
    }
    // The window is exactly the last kWindow arrivals, in order.
    std::vector<size_t> want_rows;
    for (size_t i = 420 - kWindow; i < 420; ++i) want_rows.push_back(i);
    ExpectWindowEquals(online, full, want_rows);

    const OnlineIim::Stats& stats = online.stats();
    EXPECT_EQ(stats.evicted, 420u - kWindow);
    EXPECT_GE(stats.compactions, 2u) << "tombstones never compacted";

    // Differential: batch refit on the window.
    data::Table snapshot = online.table();
    core::IimImputer batch(opt);
    ASSERT_TRUE(batch.Fit(snapshot, target, features).ok());
    for (size_t i = 430; i < 455; ++i) {
      data::Table probe(data::Schema::Default(3));
      ASSERT_TRUE(probe.AppendRow(Probe(full, i, target)).ok());
      Result<double> got = online.ImputeOne(probe.Row(0));
      Result<double> want = batch.ImputeOne(probe.Row(0));
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value(), want.value())
          << "threads " << threads << " probe row " << i;
    }
  }
}

// The reverse-neighbor postings invariant under randomized arrival /
// eviction / compaction schedules: after EVERY step, postings_[s] must
// equal the mapping recomputed from scratch out of the learning orders
// (O(l)-eviction reads the affected set from exactly these postings, so
// any drift silently corrupts which models get repaired).
TEST(StreamWindowTest, PostingsMatchRecomputationAfterEveryStep) {
  const int target = 2;
  const std::vector<int> features = {0, 1};
  data::Table full = HeterogeneousTable(300, 3, 131);

  for (uint64_t seed : {5u, 29u}) {
    core::IimOptions opt = WindowOptions(1);
    opt.window_size = 80;  // FIFO auto-evictions + explicit evictions
    Result<std::unique_ptr<OnlineIim>> engine =
        OnlineIim::Create(full.schema(), target, features, opt);
    ASSERT_TRUE(engine.ok());
    OnlineIim& online = *engine.value();

    data::Table probe(data::Schema::Default(3));
    ASSERT_TRUE(probe.AppendRow(Probe(full, 290, target)).ok());

    Rng rng(seed);
    std::vector<uint64_t> live_seqs;
    uint64_t arrivals = 0;
    size_t next_src = 0;
    size_t explicit_evicts = 0;
    while (next_src < 280) {
      if (live_seqs.size() > 20 && rng.Bernoulli(0.3)) {
        // Explicit eviction of a random (not necessarily oldest) tuple.
        size_t v = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(live_seqs.size()) - 1));
        ASSERT_TRUE(online.Evict(live_seqs[v]).ok());
        live_seqs.erase(live_seqs.begin() + static_cast<long>(v));
        ++explicit_evicts;
      } else {
        ASSERT_TRUE(online.Ingest(full.Row(next_src)).ok());
        live_seqs.push_back(arrivals++);
        ++next_src;
        // The FIFO window may have auto-evicted the oldest live tuples.
        while (live_seqs.size() > online.size()) {
          live_seqs.erase(live_seqs.begin());
        }
      }
      // Interleaved imputations build models between repairs.
      if (next_src % 41 == 0) (void)online.ImputeOne(probe.Row(0));
      ASSERT_TRUE(online.VerifyPostings())
          << "seed " << seed << " after arrival " << arrivals << " ("
          << explicit_evicts << " explicit evicts, "
          << online.stats().compactions << " compactions)";
      // DynamicIndex live-size accounting balances under the same
      // non-FIFO evictions and compactions.
      DynamicIndex::Stats istats = online.index().stats();
      ASSERT_EQ(istats.live, online.size())
          << "seed " << seed << " after arrival " << arrivals;
      ASSERT_EQ(istats.slots, istats.live + istats.tombstones)
          << "seed " << seed << " after arrival " << arrivals;
    }
    EXPECT_GT(explicit_evicts, 0u);
    EXPECT_GT(online.stats().compactions, 0u)
        << "schedule never exercised the compaction remap";
    EXPECT_GT(online.stats().postings_edges, 0u);
  }
}

// Evicting the whole relation is allowed; imputation then reports
// FailedPrecondition until the next ingest revives the engine.
TEST(StreamWindowTest, EvictToEmptyThenRevive) {
  data::Table full = HeterogeneousTable(30, 3, 3);
  core::IimOptions opt = WindowOptions(1);
  Result<std::unique_ptr<OnlineIim>> engine =
      OnlineIim::Create(full.schema(), 2, {0, 1}, opt);
  ASSERT_TRUE(engine.ok());
  OnlineIim& online = *engine.value();

  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
  }
  for (uint64_t a = 0; a < 10; ++a) {
    ASSERT_TRUE(online.Evict(a).ok());
  }
  EXPECT_EQ(online.size(), 0u);
  EXPECT_EQ(online.table().NumRows(), 0u);
  EXPECT_EQ(online.Evict(3).code(), StatusCode::kNotFound);
  EXPECT_EQ(online.Evict(99).code(), StatusCode::kNotFound);

  data::Table probe(data::Schema::Default(3));
  ASSERT_TRUE(probe.AppendRow(Probe(full, 20, 2)).ok());
  EXPECT_EQ(online.ImputeOne(probe.Row(0)).status().code(),
            StatusCode::kFailedPrecondition);

  // Revive: later arrivals get fresh arrival numbers and a working engine.
  for (size_t i = 10; i < 16; ++i) {
    ASSERT_TRUE(online.Ingest(full.Row(i)).ok());
  }
  EXPECT_EQ(online.size(), 6u);
  Result<double> got = online.ImputeOne(probe.Row(0));
  ASSERT_TRUE(got.ok());

  core::IimImputer batch(opt);
  ASSERT_TRUE(batch.Fit(online.table(), 2, {0, 1}).ok());
  Result<double> want = batch.ImputeOne(probe.Row(0));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value(), want.value());  // no eviction touched a fold
}

}  // namespace
}  // namespace iim::stream
