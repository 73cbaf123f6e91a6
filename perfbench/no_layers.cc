// The untraced binary's per-layer hooks: perfbench_e2e refuses --trace, so
// none of these is ever reached there.

#include <cstdio>
#include <cstdlib>

#include "bench.h"

namespace perfbench {

const bool kHasLayers = false;

namespace {

[[noreturn]] void NoLayers() {
  std::fprintf(stderr, "perfbench: per-layer pass in the untraced binary\n");
  std::exit(2);
}

}  // namespace

void LayerBatchFit(const iim::core::IimImputer&, size_t) { NoLayers(); }
void LayerBatchReport(Report*) { NoLayers(); }
struct LayerWindowReplay::State {};
LayerWindowReplay::LayerWindowReplay(const WindowInputs&, SpanLog*) {
  NoLayers();
}
LayerWindowReplay::~LayerWindowReplay() = default;
void LayerWindowReplay::Run(size_t, size_t) { NoLayers(); }
void LayerWindowReplay::Finish(const std::vector<double>&, double, Report*) {
  NoLayers();
}
void LayerServiceBefore(const iim::stream::OnlineIim&) { NoLayers(); }
void LayerServiceAfter(iim::stream::OnlineIim*,
                       const iim::stream::ImputationService&, SpanLog*,
                       Report*) {
  NoLayers();
}

}  // namespace perfbench
