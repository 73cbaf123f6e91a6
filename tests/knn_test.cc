#include "neighbors/knn.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

#include "datasets/paper_example.h"
#include "neighbors/distance.h"

namespace iim::neighbors {
namespace {

data::Table MakeTable(const std::vector<std::vector<double>>& rows) {
  data::Table t(data::Schema::Default(rows.empty() ? 0 : rows[0].size()));
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

TEST(DistanceTest, Formula1NormalizesByAttributeCount) {
  data::Table t = MakeTable({{0, 0, 0}, {3, 4, 0}});
  // Unnormalized distance 5; |F| = 2 -> 5 / sqrt(2).
  double d = NormalizedEuclidean(t.Row(0), t.Row(1), {0, 1});
  EXPECT_NEAR(d, 5.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(Euclidean(t.Row(0), t.Row(1), {0, 1}), 5.0, 1e-12);
}

TEST(DistanceTest, VectorOverload) {
  EXPECT_NEAR(NormalizedEuclidean({0.0, 0.0}, {3.0, 4.0}),
              5.0 / std::sqrt(2.0), 1e-12);
}

TEST(DistanceTest, SubsetSelectsColumns) {
  data::Table t = MakeTable({{0, 100}, {1, 200}});
  // Only column 0 counts.
  EXPECT_NEAR(NormalizedEuclidean(t.Row(0), t.Row(1), {0}), 1.0, 1e-12);
}

TEST(DistanceTest, BlockedKernelMatchesPlainSummation) {
  // The blocked 4-lane kernel must agree with a straightforward scalar
  // reduction to high relative accuracy at every length (both are exact
  // reorderings of the same sum).
  for (size_t d = 1; d <= 23; ++d) {
    std::vector<double> a(d), b(d);
    for (size_t i = 0; i < d; ++i) {
      a[i] = std::sin(static_cast<double>(i) * 1.3) * 7.0;
      b[i] = std::cos(static_cast<double>(i) * 0.7) * 5.0;
    }
    double plain = 0.0;
    for (size_t i = 0; i < d; ++i) {
      double delta = a[i] - b[i];
      plain += delta * delta;
    }
    double blocked = SquaredL2(a.data(), b.data(), d);
    EXPECT_NEAR(blocked, plain, 1e-12 * std::max(1.0, plain)) << "d=" << d;
  }
}

TEST(DistanceTest, EveryOverloadSharesOneSummationOrder) {
  // The RowView-gathered overload must reproduce the contiguous kernel
  // bit for bit — the property that lets the batch learner (gathered
  // buffers) and the streaming maintenance loops (RowView) interchange
  // distances, ties included. Gathering through a permuted column subset
  // must match gathering the permuted coordinates up front.
  const size_t m = 9;
  std::vector<double> ra(m), rb(m);
  for (size_t i = 0; i < m; ++i) {
    ra[i] = 1.0 / static_cast<double>(i + 3);
    rb[i] = std::sqrt(static_cast<double>(i) + 0.5);
  }
  data::Table t = MakeTable({ra, rb});
  for (const std::vector<int>& cols :
       {std::vector<int>{0}, std::vector<int>{4, 1, 7},
        std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8},
        std::vector<int>{8, 6, 4, 2, 0, 1, 3}}) {
    std::vector<double> ga, gb;
    for (int c : cols) {
      ga.push_back(ra[static_cast<size_t>(c)]);
      gb.push_back(rb[static_cast<size_t>(c)]);
    }
    double via_rows = NormalizedEuclidean(t.Row(0), t.Row(1), cols);
    double via_ptrs = NormalizedEuclidean(ga.data(), gb.data(), ga.size());
    double via_vecs = NormalizedEuclidean(ga, gb);
    EXPECT_EQ(via_rows, via_ptrs);  // bit-identical, not just close
    EXPECT_EQ(via_rows, via_vecs);
  }
}

TEST(BruteForceTest, FindsNearestInOrder) {
  data::Table t = MakeTable({{0.0}, {10.0}, {1.0}, {5.0}});
  BruteForceIndex index(&t, {0});
  data::Table q = MakeTable({{0.6}});
  QueryOptions opt;
  opt.k = 3;
  auto nbrs = index.Query(q.Row(0), opt);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].index, 2u);  // 1.0 (d=0.4)
  EXPECT_EQ(nbrs[1].index, 0u);  // 0.0 (d=0.6)
  EXPECT_EQ(nbrs[2].index, 3u);  // 5.0
  EXPECT_NEAR(nbrs[0].distance, 0.4, 1e-12);
}

TEST(BruteForceTest, TieBrokenByIndex) {
  data::Table t = MakeTable({{1.0}, {-1.0}, {1.0}});
  BruteForceIndex index(&t, {0});
  data::Table q = MakeTable({{0.0}});
  QueryOptions opt;
  opt.k = 3;
  auto nbrs = index.Query(q.Row(0), opt);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].index, 0u);
  EXPECT_EQ(nbrs[1].index, 1u);
  EXPECT_EQ(nbrs[2].index, 2u);
}

TEST(BruteForceTest, ExcludeRemovesRow) {
  data::Table t = MakeTable({{0.0}, {1.0}, {2.0}});
  BruteForceIndex index(&t, {0});
  QueryOptions opt;
  opt.k = 2;
  opt.exclude = 0;
  auto nbrs = index.Query(t.Row(0), opt);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].index, 1u);
  EXPECT_EQ(nbrs[1].index, 2u);
}

TEST(BruteForceTest, KLargerThanTableReturnsAll) {
  data::Table t = MakeTable({{0.0}, {1.0}});
  BruteForceIndex index(&t, {0});
  QueryOptions opt;
  opt.k = 10;
  EXPECT_EQ(index.Query(t.Row(0), opt).size(), 2u);
}

TEST(BruteForceTest, QueryAllSortedAscending) {
  data::Table t = MakeTable({{5.0}, {1.0}, {3.0}, {9.0}});
  BruteForceIndex index(&t, {0});
  data::Table q = MakeTable({{0.0}});
  auto all = index.QueryAll(q.Row(0), QueryOptions::kNoExclusion);
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_LE(all[i].distance, all[i + 1].distance);
  }
  EXPECT_EQ(all[0].index, 1u);
}

TEST(BruteForceTest, KZeroReturnsEmpty) {
  // Regression: k == 0 must return an empty result instead of touching
  // the selection path with an empty prefix.
  data::Table t = MakeTable({{0.0}, {1.0}, {2.0}});
  BruteForceIndex index(&t, {0});
  QueryOptions opt;
  opt.k = 0;
  EXPECT_TRUE(index.Query(t.Row(0), opt).empty());
  opt.exclude = 0;
  EXPECT_TRUE(index.Query(t.Row(0), opt).empty());
}

TEST(BruteForceTest, SizeIsConstructionSnapshotNotLiveTable) {
  // Regression: size() and Scan() used to read table_->NumRows(), so a
  // table growing after construction (the streaming workload) sent the
  // scan past the end of the gathered point buffer.
  data::Table t = MakeTable({{0.0}, {1.0}, {2.0}});
  BruteForceIndex index(&t, {0});
  ASSERT_EQ(index.size(), 3u);
  QueryOptions opt;
  opt.k = 10;
  auto before = index.Query(t.Row(0), opt);

  ASSERT_TRUE(t.AppendRow({0.1}).ok());
  ASSERT_TRUE(t.AppendRow({0.2}).ok());
  EXPECT_EQ(index.size(), 3u);  // still the snapshot
  auto after = index.Query(t.Row(0), opt);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].index, before[i].index);
    EXPECT_EQ(after[i].distance, before[i].distance);
  }
  EXPECT_EQ(index.QueryAll(t.Row(0), QueryOptions::kNoExclusion).size(), 3u);
}

TEST(BruteForceTest, TopKSelectionMatchesFullSort) {
  // The nth_element top-k path must agree with the full QueryAll order on
  // every prefix, including across distance ties.
  data::Table t = MakeTable({{2.0}, {-2.0}, {1.0}, {5.0}, {1.0}, {-1.0},
                             {0.25}, {3.0}, {-3.0}, {0.25}});
  BruteForceIndex index(&t, {0});
  data::Table q = MakeTable({{0.0}});
  auto all = index.QueryAll(q.Row(0), QueryOptions::kNoExclusion);
  for (size_t k = 1; k <= t.NumRows() + 1; ++k) {
    QueryOptions opt;
    opt.k = k;
    auto top = index.Query(q.Row(0), opt);
    ASSERT_EQ(top.size(), std::min(k, t.NumRows())) << "k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].index, all[i].index) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].distance, all[i].distance) << "k=" << k << " i=" << i;
    }
  }
}

TEST(QueryManyTest, MatchesSingleQueries) {
  data::Table t = MakeTable({{0.0, 1.0}, {2.0, 0.5}, {-1.0, 3.0},
                             {4.0, -2.0}, {0.5, 0.5}, {1.5, 2.5}});
  BruteForceIndex index(&t, {0, 1});
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < t.NumRows(); ++i) {
    batch.push_back(BatchQuery{t.Row(i), i});
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    auto results = index.QueryMany(batch, 3, &pool);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryOptions opt;
      opt.k = 3;
      opt.exclude = i;
      auto single = index.Query(t.Row(i), opt);
      ASSERT_EQ(results[i].size(), single.size()) << "i=" << i;
      for (size_t j = 0; j < single.size(); ++j) {
        EXPECT_EQ(results[i][j].index, single[j].index);
        EXPECT_EQ(results[i][j].distance, single[j].distance);
      }
    }
  }
  // nullptr pool = serial; must match the pooled results entry for entry.
  auto serial = index.QueryMany(batch, 3, nullptr);
  ThreadPool pool(4);
  auto pooled = index.QueryMany(batch, 3, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), pooled[i].size()) << "i=" << i;
    for (size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(serial[i][j].index, pooled[i][j].index);
      EXPECT_EQ(serial[i][j].distance, pooled[i][j].distance);
    }
  }
}

TEST(BruteForceTest, PaperExample1Neighbors) {
  // NN(tx, {A1}, 3) = {t5, t4, t6} in Example 3 (indices 4, 3, 5).
  data::Table r = datasets::Figure1Relation();
  BruteForceIndex index(&r, {0});
  data::Table q = MakeTable({{datasets::kFigure1QueryA1, 0.0}});
  QueryOptions opt;
  opt.k = 3;
  auto nbrs = index.Query(q.Row(0), opt);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].index, 4u);  // t5 at A1=6.8, d=1.8
  EXPECT_EQ(nbrs[1].index, 3u);  // t4 at A1=2.9, d=2.1
  EXPECT_EQ(nbrs[2].index, 5u);  // t6 at A1=7.5, d=2.5
}

}  // namespace
}  // namespace iim::neighbors
