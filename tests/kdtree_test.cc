#include "neighbors/kdtree.h"

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "neighbors/knn.h"

namespace iim::neighbors {
namespace {

data::Table RandomTable(size_t n, size_t m, Rng* rng, bool with_ties) {
  data::Table t(data::Schema::Default(m), n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      double v = rng->Uniform(-10, 10);
      // Quantize to force duplicate coordinates / distance ties.
      if (with_ties) v = std::round(v);
      t.Set(i, j, v);
    }
  }
  return t;
}

// (n, dims, k, with_ties)
using Param = std::tuple<size_t, size_t, size_t, bool>;

class KdTreeAgreementTest : public ::testing::TestWithParam<Param> {};

// Random probes, then table rows querying their own relation with
// themselves excluded: the tree must return the brute-force scan's
// neighbors in its order with the same distance bits, ties included.
TEST_P(KdTreeAgreementTest, MatchesBruteForceExactly) {
  auto [n, dims, k, ties] = GetParam();
  Rng rng(1000 * n + 10 * dims + k + (ties ? 1 : 0));
  data::Table t = RandomTable(n, dims, &rng, ties);
  std::vector<int> cols;
  for (size_t j = 0; j < dims; ++j) cols.push_back(static_cast<int>(j));

  BruteForceIndex brute(&t, cols);
  KdTreeIndex tree(&t, cols);
  EXPECT_EQ(tree.size(), n);

  auto agree = [&](const data::RowView& query, size_t exclude) {
    QueryOptions opt;
    opt.k = k;
    opt.exclude = exclude;
    auto expect = brute.Query(query, opt);
    auto got = tree.Query(query, opt);
    ASSERT_EQ(got.size(), expect.size()) << "exclude " << exclude;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, expect[i].index) << "pos " << i;
      EXPECT_EQ(got[i].distance, expect[i].distance) << "pos " << i;
    }
  };
  data::Table queries = RandomTable(25, dims, &rng, ties);
  for (size_t q = 0; q < queries.NumRows(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    agree(queries.Row(q), QueryOptions::kNoExclusion);
  }
  for (size_t r = 0; r < n; r += std::max<size_t>(1, n / 25)) {
    SCOPED_TRACE("row " + std::to_string(r));
    agree(t.Row(r), r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeAgreementTest,
    ::testing::Values(Param{50, 1, 3, false}, Param{200, 2, 5, false},
                      Param{500, 3, 10, false}, Param{300, 5, 7, false},
                      Param{100, 2, 100, false},  // k == n
                      Param{250, 2, 5, true},     // heavy ties
                      Param{400, 1, 9, true},
                      // Thousands of selection cuts per query: every
                      // second candidate at k = 1, and hundreds of cuts
                      // at k = 99, over distinct and integer-grid rows.
                      Param{2000, 2, 1, false}, Param{2000, 1, 1, true},
                      Param{3000, 3, 99, false}, Param{3000, 2, 99, true},
                      // Tiny relations and k past n, on the grid, where
                      // exact duplicates tie on distance and index decides.
                      Param{1, 2, 3, true}, Param{7, 2, 9, true},
                      Param{40, 2, 16, true}, Param{173, 2, 175, true},
                      // No k is too large: nothing is sized by it.
                      Param{300, 2, size_t{1} << 40, true}));

TEST(KdTreeTest, ExcludeHonored) {
  Rng rng(4);
  data::Table t = RandomTable(100, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  EXPECT_EQ(tree.size(), 100u);
  QueryOptions opt;
  opt.k = 5;
  opt.exclude = 17;
  for (const auto& nb : tree.Query(t.Row(17), opt)) {
    EXPECT_NE(nb.index, 17u);
  }
}

TEST(KdTreeTest, QueryAllMatchesBruteForce) {
  Rng rng(6);
  data::Table t = RandomTable(60, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  BruteForceIndex brute(&t, {0, 1});
  auto a = tree.QueryAll(t.Row(3), 3);
  auto b = brute.QueryAll(t.Row(3), 3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

TEST(KdTreeTest, ZeroKReturnsEmpty) {
  Rng rng(8);
  data::Table t = RandomTable(10, 2, &rng, false);
  KdTreeIndex tree(&t, {0, 1});
  EXPECT_EQ(tree.size(), 10u);
  QueryOptions opt;
  opt.k = 0;
  EXPECT_TRUE(tree.Query(t.Row(0), opt).empty());
}

}  // namespace
}  // namespace iim::neighbors
