// A tour of IIM's knobs on a heterogeneous dataset:
//   - the number of learning neighbors l (fixed) and why the extremes
//     degenerate to kNN (l = 1) and GLR (l = n), per Propositions 1-2;
//   - adaptive per-tuple selection of l (Algorithm 3) and the chosen-l
//     histogram it produces;
//   - the stepping parameter h and the incremental-computation switch,
//     with their accuracy/time tradeoff. Exits 1 unless both schemes
//     report bitwise-identical RMS at every h.
//
//   ./examples/adaptive_tuning

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "core/iim_imputer.h"
#include "datasets/specs.h"
#include "eval/experiment.h"
#include "eval/report.h"

namespace {

double RunRms(const iim::data::Table& dataset,
              const iim::core::IimOptions& options, double* fit_seconds) {
  iim::eval::ExperimentConfig config;
  config.inject.tuple_count = 100;
  config.seed = 31;
  auto res = iim::eval::RunComparison(
      dataset, config,
      {{"IIM", [options]() {
          return std::unique_ptr<iim::baselines::Imputer>(
              std::make_unique<iim::core::IimImputer>(options));
        }}});
  if (!res.ok()) return -1;
  if (fit_seconds != nullptr) {
    *fit_seconds = res.value().methods[0].fit_seconds;
  }
  return res.value().methods[0].rms;
}

}  // namespace

int main() {
  iim::datasets::DatasetSpec spec = iim::datasets::Asf();
  spec.n = 800;  // keep the example snappy
  auto gen = iim::datasets::Generate(spec, 5);
  if (!gen.ok()) return 1;
  const iim::data::Table& dataset = gen.value().table;

  std::printf("Dataset: ASF-like, %zu tuples, %zu attributes, %zu regimes\n\n",
              dataset.NumRows(), dataset.NumCols(), spec.regimes);

  // --- Part 1: fixed l sweep (the Figure 11 U-shape). ---
  std::printf("Part 1: fixed number of learning neighbors l\n");
  iim::eval::TablePrinter sweep({"l", "RMS", "note"});
  for (size_t ell : {1ul, 5ul, 20ul, 80ul, 300ul, 700ul}) {
    iim::core::IimOptions opt;
    opt.k = 5;
    opt.ell = ell;
    opt.alpha = 1.0;
    std::string note;
    if (ell == 1) note = "degenerates to kNN (Prop. 1)";
    if (ell == 700) note = "~l = n: degenerates to GLR (Prop. 2)";
    sweep.AddRow({std::to_string(ell),
                  iim::eval::FormatMetric(RunRms(dataset, opt, nullptr), 3),
                  note});
  }
  std::printf("%s\n", sweep.ToString().c_str());

  // --- Part 2: adaptive learning and its chosen-l distribution. ---
  std::printf("Part 2: adaptive per-tuple l (Algorithm 3)\n");
  iim::core::IimOptions adaptive;
  adaptive.k = 5;
  adaptive.adaptive = true;
  adaptive.max_ell = 200;
  adaptive.step_h = 2;
  adaptive.alpha = 1.0;
  double adaptive_rms = RunRms(dataset, adaptive, nullptr);
  std::printf("  adaptive RMS: %.3f\n", adaptive_rms);

  // Re-fit on the full relation to inspect the chosen-l histogram.
  iim::core::IimImputer inspector(adaptive);
  std::vector<int> features = {0, 1, 2, 3, 4};
  if (inspector.Fit(dataset, 5, features).ok()) {
    std::map<std::string, size_t> buckets;
    for (size_t ell : inspector.adaptive_stats().chosen_ell) {
      if (ell <= 5) {
        ++buckets["l in [1, 5]"];
      } else if (ell <= 25) {
        ++buckets["l in (5, 25]"];
      } else if (ell <= 100) {
        ++buckets["l in (25, 100]"];
      } else {
        ++buckets["l > 100"];
      }
    }
    std::printf("  chosen-l histogram (heterogeneity in action):\n");
    for (const auto& [bucket, count] : buckets) {
      std::printf("    %-16s %5zu tuples\n", bucket.c_str(), count);
    }
  }

  // --- Part 3: stepping h and incremental computation. ---
  std::printf("\nPart 3: stepping h and incremental learning (Fig. 12-13)\n");
  iim::eval::TablePrinter tradeoff(
      {"h", "scheme", "RMS", "determination time"});
  std::vector<size_t> differing;
  for (size_t h : {1ul, 20ul, 100ul}) {
    double scheme_rms[2];
    for (bool incremental : {false, true}) {
      iim::core::IimOptions opt = adaptive;
      opt.step_h = h;
      opt.incremental = incremental;
      double secs = 0.0;
      double rms = RunRms(dataset, opt, &secs);
      scheme_rms[incremental] = rms;
      tradeoff.AddRow({std::to_string(h),
                       incremental ? "incremental" : "straightforward",
                       iim::eval::FormatMetric(rms, 3),
                       iim::eval::FormatSeconds(secs)});
    }
    if (scheme_rms[0] < 0 ||
        std::memcmp(&scheme_rms[0], &scheme_rms[1], sizeof(double)) != 0) {
      differing.push_back(h);
    }
  }
  std::printf("%s", tradeoff.ToString().c_str());
  std::printf("\nSame h => identical RMS for both schemes; incremental is\n"
              "the same math with O(m^2 h) updates instead of O(m^2 l).\n");
  for (size_t h : differing) {
    std::printf("FAILED: at h = %zu the two schemes' RMS differ (or a run "
                "failed)\n", h);
  }
  return differing.empty() ? 0 : 1;
}
