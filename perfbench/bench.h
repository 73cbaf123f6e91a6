// Shared plumbing of the perfbench binaries: the span log, the JSON report
// and the hooks into the per-layer passes.
//
// workloads.cc holds the workloads and main(); it calls only the
// user-facing API. The per-layer hooks below live in layers.cc, linked into
// perfbench_trace only; perfbench_e2e links no_layers.cc, whose stubs refuse
// to run, so the untraced binary never depends on engine internals.

#ifndef IIM_PERFBENCH_BENCH_H_
#define IIM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/iim_imputer.h"
#include "core/iim_options.h"
#include "data/table.h"
#include "stream/imputation_service.h"
#include "stream/online_iim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// In-memory spans (name, start, end, parent, op id), written out at exit.
// A disabled log records nothing, so untraced passes pay one branch per
// call site.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = static_cast<uint32_t>(-1);

  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  // Records a finished span and returns its id (kNoParent when disabled).
  uint32_t Add(const char* name, Clock::time_point start,
               Clock::time_point end, uint32_t parent, uint64_t op);
  // Reserves a span whose end is not known yet (a parent recorded before
  // its children); Close() fills the end in.
  uint32_t Open(const char* name, Clock::time_point start, uint32_t parent,
                uint64_t op);
  void Close(uint32_t id, Clock::time_point end);

  // Durations in seconds of every span with this name, in record order.
  std::vector<double> Durations(const char* name) const;
  // One CSV line per span: name,start_ns,end_ns,parent,op. Times are
  // relative to the log's creation.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t name;
    uint32_t parent;
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };
  uint32_t Intern(const char* name);
  int64_t Ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<Span> spans_;
};

// A run's result: metrics with units and sample counts, output
// checks, op counts, and free-form run facts. Serialized as one JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Info(const std::string& key, double value);
  void CountOps(size_t attempted, size_t failed);
  bool all_checks_ok() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<CheckEntry> checks_;
  std::vector<std::pair<std::string, double>> info_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// Nearest-rank percentile (p in [0, 100]); 0 for no samples.
double Pct(std::vector<double> samples, double p);
double Mean(const std::vector<double>& xs);
double Sum(const std::vector<double>& xs);

// Everything window_ingest feeds the engine, so the layer pass can replay
// the identical op sequence.
struct WindowInputs {
  iim::core::IimOptions options;
  int target = 0;
  std::vector<int> features;
  // Complete rows: the prefill, then the timed stream's arrivals.
  iim::data::Table rows;
  size_t prefill = 0;
  // Incomplete tuples (target NaN), consumed impute_batch at a time after
  // every impute_every-th arrival.
  std::vector<std::vector<double>> probes;
  size_t impute_every = 16;
  size_t impute_batch = 8;

  // The first probe of the batch imputed after timed arrival `a`, or -1
  // when none is.
  long ProbesAfter(size_t a) const {
    if ((a + 1) % impute_every != 0) return -1;
    return static_cast<long>((a + 1) / impute_every - 1) *
           static_cast<long>(impute_batch);
  }
};

// --- Per-layer hooks (layers.cc; stubs in no_layers.cc) -----------------

// False in perfbench_e2e: --trace 1 is refused there.
extern const bool kHasLayers;

// batch_adaptive: fold one traced Fit's learning diagnostics into the
// round's totals; report the per-round medians after the last round.
void LayerBatchFit(const iim::core::IimImputer& imputer, size_t round);
void LayerBatchReport(Report* report);

// window_ingest's layer pass: replays the prefill and the timed stream
// through OrderCore and its DynamicIndex with spans around every layer
// call. The traced run advances it in lockstep with the engine pass, one
// block of arrivals at a time, so both passes see the same host speed.
class LayerWindowReplay {
 public:
  // Builds the core and replays the prefill (no spans).
  LayerWindowReplay(const WindowInputs& in, SpanLog* spans);
  ~LayerWindowReplay();
  // Replays timed arrivals [first, last) and the probes imputed after them.
  void Run(size_t first, size_t last);
  // Checks the replay's imputations against the engine's bit for bit and
  // reports the order_core / dynamic_index / regress metrics and the share
  // of `engine_ingest_s` (summed engine Ingest spans) the layer spans
  // cover.
  void Finish(const std::vector<double>& engine_values,
              double engine_ingest_s, Report* report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// The durable service pass (window_ingest's traced run): engine-side
// counters around its open loop. Before() runs after recovery, before the
// service starts; After() after the service has shut down. Neither may
// overlap engine calls.
void LayerServiceBefore(const iim::stream::OnlineIim& engine);
void LayerServiceAfter(iim::stream::OnlineIim* engine,
                       const iim::stream::ImputationService& service,
                       SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // IIM_PERFBENCH_BENCH_H_
