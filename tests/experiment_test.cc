#include "eval/experiment.h"

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "datasets/specs.h"

namespace iim::eval {
namespace {

data::Table SmallDataset(uint64_t seed) {
  datasets::DatasetSpec spec = datasets::Ccs();
  spec.n = 250;
  Result<datasets::GeneratedDataset> gen = datasets::Generate(spec, seed);
  EXPECT_TRUE(gen.ok());
  return gen.value().table;
}

std::vector<Method> BasicMethods() {
  std::vector<Method> methods;
  for (const char* name : {"Mean", "kNN", "GLR"}) {
    methods.push_back(Method{name, [name]() {
                               baselines::BaselineOptions opt;
                               opt.k = 5;
                               return std::move(
                                   baselines::MakeBaseline(name, opt)
                                       .value());
                             }});
  }
  methods.push_back(Method{"IIM", []() {
                             core::IimOptions opt;
                             opt.k = 5;
                             opt.ell = 12;
                             return std::unique_ptr<baselines::Imputer>(
                                 std::make_unique<core::IimImputer>(opt));
                           }});
  return methods;
}

TEST(ExperimentTest, RunsAllMethodsAndScores) {
  ExperimentConfig config;
  config.inject.tuple_fraction = 0.05;
  config.seed = 3;
  Result<ExperimentResult> res =
      RunComparison(SmallDataset(1), config, BasicMethods());
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().methods.size(), 4u);
  // 5% of 250 rounds to 13 (llround rounds half away from zero).
  EXPECT_EQ(res.value().incomplete_tuples, 13u);
  EXPECT_EQ(res.value().complete_tuples, 237u);
  for (const MethodResult& m : res.value().methods) {
    EXPECT_TRUE(std::isfinite(m.rms)) << m.name;
    EXPECT_EQ(m.imputed, 13u) << m.name;
    EXPECT_EQ(m.failed, 0u) << m.name;
    EXPECT_GE(m.fit_seconds, 0.0);
  }
  // R^2 measures are populated because kNN and GLR ran.
  EXPECT_TRUE(std::isfinite(res.value().r2_sparsity));
  EXPECT_TRUE(std::isfinite(res.value().r2_heterogeneity));
}

TEST(ExperimentTest, MeanIsWorstOfTheBunch) {
  ExperimentConfig config;
  config.inject.tuple_count = 25;
  config.seed = 5;
  Result<ExperimentResult> res =
      RunComparison(SmallDataset(2), config, BasicMethods());
  ASSERT_TRUE(res.ok());
  double mean_rms = 0.0, best_other = 1e18;
  for (const MethodResult& m : res.value().methods) {
    if (m.name == "Mean") {
      mean_rms = m.rms;
    } else {
      best_other = std::min(best_other, m.rms);
    }
  }
  EXPECT_GT(mean_rms, best_other);
}

TEST(ExperimentTest, FeatureSubsetReducesF) {
  ExperimentConfig config;
  config.inject.tuple_count = 15;
  config.inject.fixed_attr = 5;  // last attribute missing
  config.num_features = 2;       // F = {A1, A2}
  config.seed = 7;
  Result<ExperimentResult> res =
      RunComparison(SmallDataset(3), config, BasicMethods());
  ASSERT_TRUE(res.ok());
  for (const MethodResult& m : res.value().methods) {
    EXPECT_EQ(m.imputed, 15u) << m.name;
  }
}

TEST(ExperimentTest, CompleteTuplesSubsampling) {
  ExperimentConfig config;
  config.inject.tuple_count = 10;
  config.complete_tuples = 100;
  config.seed = 9;
  Result<ExperimentResult> res =
      RunComparison(SmallDataset(4), config, BasicMethods());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().complete_tuples, 100u);
}

TEST(ExperimentTest, SvdOnTwoColumnsReportsNaN) {
  // SN-like data has 2 attributes; SVD cannot run (Table V shows "-").
  datasets::DatasetSpec spec = datasets::Sn();
  spec.n = 300;
  Result<datasets::GeneratedDataset> gen = datasets::Generate(spec, 5);
  ASSERT_TRUE(gen.ok());
  std::vector<Method> methods = {
      Method{"SVD", []() {
               return std::move(
                   baselines::MakeBaseline("SVD", {}).value());
             }}};
  ExperimentConfig config;
  config.inject.tuple_count = 10;
  Result<ExperimentResult> res =
      RunComparison(gen.value().table, config, methods);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(std::isnan(res.value().methods[0].rms));
  EXPECT_EQ(res.value().methods[0].failed, 10u);
}

TEST(ExperimentTest, DeterministicGivenSeed) {
  ExperimentConfig config;
  config.inject.tuple_count = 10;
  config.seed = 11;
  data::Table t = SmallDataset(6);
  Result<ExperimentResult> a = RunComparison(t, config, BasicMethods());
  Result<ExperimentResult> b = RunComparison(t, config, BasicMethods());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a.value().methods.size(); ++i) {
    // BLR/PMM randomness is not in this method set; everything is exact.
    EXPECT_DOUBLE_EQ(a.value().methods[i].rms, b.value().methods[i].rms);
  }
}

}  // namespace
}  // namespace iim::eval
