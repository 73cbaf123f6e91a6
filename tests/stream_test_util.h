// Shared fixtures for the streaming test suites (tests/stream_*_test.cc):
// one heterogeneous-relation generator so the suites agree on what a hard
// multi-regime table looks like, the incomplete-probe constructor, and a
// randomized arrival/evict/impute schedule generator.

#ifndef IIM_TESTS_STREAM_TEST_UTIL_H_
#define IIM_TESTS_STREAM_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/table.h"
#include "datasets/generator.h"

namespace iim::stream {

inline data::Table HeterogeneousTable(size_t n, size_t m, uint64_t seed) {
  datasets::DatasetSpec spec;
  spec.name = "stream-test";
  spec.n = n;
  spec.m = m;
  spec.regimes = 4;
  spec.exogenous = std::max<size_t>(1, m / 2);
  spec.divergence = 0.9;
  spec.noise = 0.15;
  Result<datasets::GeneratedDataset> gen = datasets::Generate(spec, seed);
  EXPECT_TRUE(gen.ok());
  return gen.value().table;
}

// An incomplete probe tuple: the generated row with its target blanked.
inline std::vector<double> Probe(const data::Table& source, size_t row,
                                 int target) {
  std::vector<double> values = source.Row(row).ToVector();
  values[static_cast<size_t>(target)] =
      std::numeric_limits<double>::quiet_NaN();
  return values;
}

// One step of a randomized streaming schedule. Evictions name the victim
// by arrival number (the numbering every engine assigns alike); imputes
// mark points where the driving test should serve a probe.
struct ScheduleOp {
  enum Kind { kIngest, kEvict, kImpute };
  Kind kind = kIngest;
  size_t src_row = 0;       // ingest: source-table row
  uint64_t arrival = 0;     // ingest: assigned / evict: victim
};

// Generates the randomized arrival/evict/impute shape the windowed
// differential harness drives inline: ingest-heavy with explicit
// evictions of uniformly random LIVE tuples once `min_live` tuples are
// up, and an impute marker every `impute_every` steps. Deterministic in
// `seed`; ingests consume source rows [0, n_src) in order, and arrival
// numbers are assigned exactly as every engine assigns them (0-based
// count of ingests).
inline std::vector<ScheduleOp> MakeSchedule(uint64_t seed, size_t n_src,
                                            size_t min_live, double evict_p,
                                            size_t impute_every) {
  Rng rng(seed);
  std::vector<ScheduleOp> ops;
  std::vector<uint64_t> live;
  uint64_t arrivals = 0;
  size_t next_src = 0;
  size_t steps = 0;
  while (next_src < n_src) {
    ++steps;
    ScheduleOp op;
    if (live.size() > min_live && rng.Bernoulli(evict_p)) {
      size_t v = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      op.kind = ScheduleOp::kEvict;
      op.arrival = live[v];
      live.erase(live.begin() + static_cast<long>(v));
    } else {
      op.kind = ScheduleOp::kIngest;
      op.src_row = next_src++;
      op.arrival = arrivals;
      live.push_back(arrivals++);
    }
    ops.push_back(op);
    if (impute_every > 0 && steps % impute_every == 0 && !live.empty()) {
      ScheduleOp probe;
      probe.kind = ScheduleOp::kImpute;
      ops.push_back(probe);
    }
  }
  return ops;
}

}  // namespace iim::stream

#endif  // IIM_TESTS_STREAM_TEST_UTIL_H_
