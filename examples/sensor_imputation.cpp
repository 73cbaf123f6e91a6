// Sensor-network imputation scenario (the paper's motivating setting:
// "unreliable sensor reading, collection and transmission").
//
// A deployment of sensors in several rooms reports (position, temperature,
// humidity, power). Rooms behave like the paper's "streets": readings
// within a room follow one local linear relation, rooms differ. Readings
// are lost in transmission bursts (clustered missing values — Figure 8's
// hard case). The example compares IIM's adaptive learning against kNN
// and the global regression and prints per-method RMS.
//
//   ./examples/sensor_imputation

#include <cstdio>

#include "baselines/registry.h"
#include "core/iim_imputer.h"
#include "datasets/generator.h"
#include "eval/experiment.h"
#include "eval/report.h"

int main() {
  // Six rooms, 1200 readings over 5 correlated channels.
  iim::datasets::DatasetSpec spec;
  spec.name = "sensors";
  spec.n = 1200;
  spec.m = 5;
  spec.regimes = 6;        // rooms
  spec.exogenous = 2;      // position coordinates
  spec.divergence = 0.8;   // each room has its own thermal behaviour
  spec.noise = 0.1;
  spec.box_halfwidth = 2.5;
  spec.center_spread = 9.0;
  auto gen = iim::datasets::Generate(spec, /*seed=*/2024);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }

  std::printf("Sensor deployment: %zu readings x %zu channels, %zu rooms\n",
              gen.value().table.NumRows(), gen.value().table.NumCols(),
              spec.regimes);
  std::printf("Failure model: transmission bursts knock out clusters of 4 "
              "nearby readings\n\n");

  iim::eval::ExperimentConfig config;
  config.inject.tuple_count = 120;
  config.inject.cluster_size = 4;  // bursts, not isolated losses
  config.seed = 7;

  std::vector<iim::eval::Method> methods;
  methods.push_back({"IIM", []() {
    iim::core::IimOptions opt;
    opt.k = 5;
    opt.adaptive = true;     // rooms need different l: adapt per tuple
    opt.max_ell = 80;
    opt.step_h = 2;
    opt.alpha = 1.0;
    return std::unique_ptr<iim::baselines::Imputer>(
        std::make_unique<iim::core::IimImputer>(opt));
  }});
  for (const char* name : {"kNN", "GLR", "LOESS", "Mean"}) {
    methods.push_back({name, [name]() {
      iim::baselines::BaselineOptions opt;
      opt.k = 5;
      return std::move(iim::baselines::MakeBaseline(name, opt).value());
    }});
  }

  auto res = iim::eval::RunComparison(gen.value().table, config, methods);
  if (!res.ok()) {
    std::fprintf(stderr, "run: %s\n", res.status().ToString().c_str());
    return 1;
  }

  iim::eval::TablePrinter table({"Method", "RMS", "Fit time", "Impute time"});
  for (const auto& m : res.value().methods) {
    table.AddRow({m.name, iim::eval::FormatMetric(m.rms, 3),
                  iim::eval::FormatSeconds(m.fit_seconds),
                  iim::eval::FormatSeconds(m.impute_seconds)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nWhy IIM: bursts remove whole neighborhoods, so kNN's nearest\n"
      "complete readings sit in other rooms; IIM uses their *models*,\n"
      "which extrapolate correctly into the lost region.\n");
  return 0;
}
