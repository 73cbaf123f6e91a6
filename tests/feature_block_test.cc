#include "data/feature_block.h"

#include <gtest/gtest.h>

#include "data/schema.h"

namespace iim::data {
namespace {

Table MakeTable(const std::vector<std::vector<double>>& rows) {
  Table t(Schema::Default(rows.empty() ? 0 : rows[0].size()));
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

TEST(FeatureBlockTest, GathersFeaturesAndTarget) {
  Table t = MakeTable({{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}});
  FeatureBlock fb = FeatureBlock::Build(t, /*target=*/1, {3, 0});
  ASSERT_EQ(fb.rows(), 3u);
  ASSERT_EQ(fb.num_features(), 2u);
  // Row 0: features (col 3, col 0) = (4, 1); target col 1 = 2.
  EXPECT_EQ(fb.Features(0)[0], 4.0);
  EXPECT_EQ(fb.Features(0)[1], 1.0);
  EXPECT_EQ(fb.Target(0), 2.0);
  EXPECT_EQ(fb.Features(2)[0], 12.0);
  EXPECT_EQ(fb.Features(2)[1], 9.0);
  EXPECT_EQ(fb.Target(2), 10.0);
}

TEST(FeatureBlockTest, FeaturesAreContiguousAcrossRows) {
  Table t = MakeTable({{1, 2, 3}, {4, 5, 6}});
  FeatureBlock fb = FeatureBlock::Build(t, /*target=*/2, {0, 1});
  // Row-major layout: row 1 starts exactly q doubles after row 0.
  EXPECT_EQ(fb.Features(1), fb.Features(0) + fb.num_features());
}

TEST(FeatureBlockTest, MatchesRowViewGather) {
  Table t = MakeTable({{0.5, -1.5, 2.25}, {3.0, 4.5, -6.0}});
  std::vector<int> features = {2, 0};
  FeatureBlock fb = FeatureBlock::Build(t, /*target=*/1, features);
  for (size_t i = 0; i < t.NumRows(); ++i) {
    std::vector<double> gathered = t.Row(i).Gather(features);
    std::vector<double> block = fb.FeatureVector(i);
    EXPECT_EQ(gathered, block) << "row " << i;
    EXPECT_EQ(fb.Target(i), t.At(i, 1)) << "row " << i;
  }
}

TEST(FeatureBlockTest, EmptyTable) {
  Table t(Schema::Default(3));
  FeatureBlock fb = FeatureBlock::Build(t, 0, {1, 2});
  EXPECT_EQ(fb.rows(), 0u);
  EXPECT_EQ(fb.num_features(), 2u);
}

}  // namespace
}  // namespace iim::data
