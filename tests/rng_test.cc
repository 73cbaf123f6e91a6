#include "common/rng.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <set>

#include <gtest/gtest.h>

namespace iim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, GaussianWithZeroStddevReturnsTheMean) {
  Rng rng(37);
  for (double mean : {0.0, -1.5, 3.25, 1e6}) {
    EXPECT_EQ(rng.Gaussian(mean, 0.0), mean);
  }
}

TEST(RngTest, GaussianMatchesTheStandardDistributionBitForBit) {
  // Generated relations stay bitwise what they were when Gaussian handed
  // (mean, stddev) to the distribution itself.
  Rng rng(41);
  std::mt19937_64 engine(41);
  const double means[] = {0.0, -2.0, 5.5, 1e3};
  const double stddevs[] = {1e-9, 0.1, 1.0, 2.5};
  for (int i = 0; i < 4000; ++i) {
    const double mean = means[i % 4];
    const double stddev = stddevs[(i / 4) % 4];
    std::normal_distribution<double> dist(mean, stddev);
    const double want = dist(engine);
    const double got = rng.Gaussian(mean, stddev);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "draw " << i << ": " << got << " vs " << want;
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalProportionalToWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(19);
  std::vector<size_t> s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(23);
  std::vector<size_t> s = rng.SampleWithoutReplacement(50, 50);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng fresh(31);
  (void)fresh.Uniform();  // parent consumed one draw to fork
  bool all_same = true;
  for (int i = 0; i < 20; ++i) {
    if (child.Uniform() != fresh.Uniform()) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

}  // namespace
}  // namespace iim
