// Per-layer passes of the traced run (perfbench_trace only). Unlike
// workloads.cc this file reads engine internals — OrderCore, DynamicIndex
// and the Stats structs — so refactors of those layers can break only the
// traced binary, never the untraced numbers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "stream/dynamic_index.h"
#include "stream/order_core.h"

namespace perfbench {

const bool kHasLayers = true;

namespace {

using iim::data::RowView;
using iim::stream::OrderCore;

constexpr double kUs = 1e6;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct BatchTotals {
  std::map<size_t, double> learn_s;          // per round
  std::map<size_t, double> determination_s;  // per round
  std::vector<size_t> chosen_ell;            // round 0, every attribute
};
BatchTotals batch_totals;

struct ServiceBefore {
  size_t moo_probes = 0;
  size_t snapshots_written = 0;
  size_t log_records_replayed = 0;
};
ServiceBefore service_before;

std::vector<double> Values(const std::map<size_t, double>& per_round) {
  std::vector<double> out;
  for (const auto& [round, v] : per_round) out.push_back(v);
  return out;
}

}  // namespace

void LayerBatchFit(const iim::core::IimImputer& imputer, size_t round) {
  batch_totals.learn_s[round] += imputer.learning_seconds();
  batch_totals.determination_s[round] +=
      imputer.adaptive_stats().determination_seconds;
  if (round == 0) {
    const std::vector<size_t>& ells = imputer.adaptive_stats().chosen_ell;
    batch_totals.chosen_ell.insert(batch_totals.chosen_ell.end(),
                                   ells.begin(), ells.end());
  }
}

void LayerBatchReport(Report* r) {
  std::vector<double> learn = Values(batch_totals.learn_s);
  std::vector<double> det = Values(batch_totals.determination_s);
  r->Metric("core.learn_s", Pct(learn, 50.0), "s", learn.size());
  r->Metric("core.determination_cpu_s", Pct(det, 50.0), "s", det.size());
  std::vector<double> ells(batch_totals.chosen_ell.begin(),
                           batch_totals.chosen_ell.end());
  r->Metric("core.mean_chosen_ell", Mean(ells), "tuples", ells.size());
}

// The state of OnlineIim's OrderCore calls, replayed without the engine.
struct LayerWindowReplay::State {
  State(const WindowInputs& inputs, SpanLog* log,
        const OrderCore::Config& config)
      : in(inputs),
        spans(log),
        q(inputs.features.size()),
        core(config),
        f(q),
        x(inputs.impute_batch, std::vector<double>(q)),
        nbrs(inputs.impute_batch) {
    qopt.k = in.options.k;
  }

  // OnlineIim::Ingest's core calls: gather (F, Am), Arrive under the next
  // arrival number, retire the oldest live tuples past the window, then
  // the compaction check. Returns the time the spans cover.
  double Ingest(const RowView& row, uint64_t op, bool timed) {
    for (size_t j = 0; j < q; ++j) {
      f[j] = row[static_cast<size_t>(in.features[j])];
    }
    const double y = row[static_cast<size_t>(in.target)];
    SpanLog* log = timed ? spans : &off;
    double covered = 0.0;
    Clock::time_point t0 = Clock::now();
    core.Arrive(f.data(), y, seq++);
    Clock::time_point t1 = Clock::now();
    log->Add("OrderCore::Arrive", t0, t1, SpanLog::kNoParent, op);
    covered += Seconds(t0, t1);
    while (core.live() > in.options.window_size) {
      Clock::time_point e0 = Clock::now();
      core.EvictSlot(core.OldestLiveSlot());
      Clock::time_point e1 = Clock::now();
      log->Add("OrderCore::EvictSlot", e0, e1, SpanLog::kNoParent, op);
      covered += Seconds(e0, e1);
    }
    Clock::time_point m0 = Clock::now();
    core.MaybeCompact(&remap);
    Clock::time_point m1 = Clock::now();
    log->Add("OrderCore::MaybeCompact", m0, m1, SpanLog::kNoParent, op);
    return covered + Seconds(m0, m1);
  }

  // OnlineIim::ImputeBatch's layer calls: one index query per row, every
  // distinct neighbor model ensured once in ascending slot order, then
  // Formula 9 candidates and the Formula 10-12 aggregation per row.
  void Impute(size_t first_probe) {
    needed.clear();
    for (size_t b = 0; b < in.impute_batch; ++b) {
      const std::vector<double>& p = in.probes[first_probe + b];
      for (size_t j = 0; j < q; ++j) {
        x[b][j] = p[static_cast<size_t>(in.features[j])];
      }
      tail_rows.push_back(static_cast<double>(core.index().stats().tail_size));
      Clock::time_point q0 = Clock::now();
      nbrs[b] = core.index().Query(RowView(x[b].data(), q), qopt);
      spans->Add("DynamicIndex::Query", q0, Clock::now(), SpanLog::kNoParent,
                 first_probe + b);
      for (const auto& nb : nbrs[b]) needed.push_back(nb.index);
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    for (size_t id : needed) {
      Clock::time_point s0 = Clock::now();
      ensure_ok = core.EnsureModel(id).ok() && ensure_ok;
      spans->Add("OrderCore::EnsureModel", s0, Clock::now(),
                 SpanLog::kNoParent, id);
    }
    for (size_t b = 0; b < in.impute_batch; ++b) {
      Clock::time_point p0 = Clock::now();
      candidates.clear();
      for (const auto& nb : nbrs[b]) {
        candidates.push_back(core.model(nb.index).Predict(x[b].data(), q));
      }
      iim::Result<double> v = iim::core::CombineCandidates(
          candidates, in.options.uniform_weights);
      spans->Add("Predict+CombineCandidates", p0, Clock::now(),
                 SpanLog::kNoParent, first_probe + b);
      values.push_back(v.ok() ? v.value() : std::nan(""));
    }
  }

  const WindowInputs& in;
  SpanLog* spans;
  SpanLog off{false};
  const size_t q;
  OrderCore core;
  std::vector<double> f;
  uint64_t seq = 0;
  std::vector<size_t> remap;
  OrderCore::Counters c_before;
  iim::stream::DynamicIndex::Stats i_before;
  size_t arrivals = 0;
  std::vector<double> values;
  std::vector<double> tail_rows;
  double attributed_s = 0.0;
  iim::neighbors::QueryOptions qopt;
  std::vector<std::vector<double>> x;
  std::vector<std::vector<iim::neighbors::Neighbor>> nbrs;
  std::vector<size_t> needed;
  std::vector<double> candidates;
  bool ensure_ok = true;
};

LayerWindowReplay::LayerWindowReplay(const WindowInputs& in, SpanLog* spans) {
  Clock::time_point c0 = Clock::now();
  OrderCore::Config config =
      iim::stream::MakeOrderCoreConfig(in.options, in.features.size());
  spans->Add("MakeOrderCoreConfig", c0, Clock::now(), SpanLog::kNoParent, 0);
  state_ = std::make_unique<State>(in, spans, config);
  for (size_t i = 0; i < in.prefill; ++i) {
    state_->Ingest(in.rows.Row(i), i, /*timed=*/false);
  }
  state_->core.WaitForIndexRebuild();
  state_->c_before = state_->core.counters();
  state_->i_before = state_->core.index().stats();
}

LayerWindowReplay::~LayerWindowReplay() = default;

void LayerWindowReplay::Run(size_t first, size_t last) {
  State& s = *state_;
  for (size_t a = first; a < last; ++a) {
    s.attributed_s +=
        s.Ingest(s.in.rows.Row(s.in.prefill + a), a, /*timed=*/true);
    const long probe = s.in.ProbesAfter(a);
    if (probe >= 0) s.Impute(static_cast<size_t>(probe));
  }
  s.arrivals += last - first;
}

void LayerWindowReplay::Finish(const std::vector<double>& engine_values,
                               double engine_ingest_s, Report* r) {
  State& s = *state_;
  const std::vector<double>& values = s.values;
  bool same = s.ensure_ok && values.size() == engine_values.size();
  for (size_t i = 0; same && i < values.size(); ++i) {
    same = std::memcmp(&values[i], &engine_values[i], sizeof(double)) == 0;
  }
  r->Check("window_ingest.layer_pass_bit_identical", same,
           std::to_string(values.size()) +
               " layer-pass imputations vs the engine's");

  SpanLog* spans = s.spans;
  const OrderCore::Counters& c = s.core.counters();
  const OrderCore::Counters& c_before = s.c_before;
  const iim::stream::DynamicIndex::Stats is = s.core.index().stats();
  const size_t arrivals = s.arrivals;
  std::vector<double> arrive = spans->Durations("OrderCore::Arrive");
  std::vector<double> evict = spans->Durations("OrderCore::EvictSlot");
  std::vector<double> ensure = spans->Durations("OrderCore::EnsureModel");
  std::vector<double> query = spans->Durations("DynamicIndex::Query");
  r->Metric("order_core.arrive_p50_us", Pct(arrive, 50.0) * kUs, "us",
            arrive.size());
  r->Metric("order_core.arrive_p99_us", Pct(arrive, 99.0) * kUs, "us",
            arrive.size());
  r->Metric("order_core.evict_slot_p50_us", Pct(evict, 50.0) * kUs, "us",
            evict.size());
  r->Metric("order_core.evict_slot_p99_us", Pct(evict, 99.0) * kUs, "us",
            evict.size());
  r->Metric("order_core.maybe_compact_s",
            Sum(spans->Durations("OrderCore::MaybeCompact")), "s", arrivals);
  r->Metric("order_core.ensure_model_p50_us", Pct(ensure, 50.0) * kUs, "us",
            ensure.size());
  const double reused =
      static_cast<double>(c.models_reused - c_before.models_reused);
  const double solved =
      static_cast<double>(c.models_solved - c_before.models_solved);
  r->Metric("order_core.model_reuse_ratio", Ratio(reused, reused + solved),
            "reuses/request");
  const double scanned =
      static_cast<double>(c.orders_scanned - c_before.orders_scanned);
  r->Metric("order_core.orders_scanned_per_arrival",
            Ratio(scanned, static_cast<double>(arrivals)), "orders/arrival");
  r->Metric("order_core.admit_ratio",
            Ratio(static_cast<double>(c.orders_admitted -
                                      c_before.orders_admitted),
                  scanned),
            "admits/scan");
  r->Metric("order_core.backfills_per_evict",
            Ratio(static_cast<double>(c.backfills - c_before.backfills),
                  static_cast<double>(c.evicted - c_before.evicted)),
            "backfills/evict");
  r->Metric("dynamic_index.query_p50_us", Pct(query, 50.0) * kUs, "us",
            query.size());
  r->Metric("dynamic_index.tail_rows_mean", Mean(s.tail_rows), "rows",
            s.tail_rows.size());
  r->Metric("dynamic_index.max_append_hold_us",
            is.max_append_hold_seconds * kUs, "us");
  r->Metric("dynamic_index.max_compact_hold_us",
            is.max_compact_hold_seconds * kUs, "us");
  r->Metric("dynamic_index.compactions",
            static_cast<double>(is.compactions - s.i_before.compactions),
            "count");
  r->Metric("dynamic_index.rebuilds",
            static_cast<double>(is.rebuilds - s.i_before.rebuilds), "events");
  r->Metric("regress.models_solved", solved, "count");
  r->Metric("regress.downdates",
            static_cast<double>(c.downdates - c_before.downdates), "count");
  r->Metric("regress.downdate_fallbacks",
            static_cast<double>(c.downdate_fallbacks -
                                c_before.downdate_fallbacks),
            "count");
  r->Metric("online_iim.attributed_share",
            Ratio(s.attributed_s, engine_ingest_s), "ratio");
}


void LayerServiceBefore(const iim::stream::OnlineIim& engine) {
  iim::stream::OnlineIim::Stats s = engine.stats();
  service_before.moo_probes = s.moo_probes;
  service_before.snapshots_written = s.snapshots_written;
  service_before.log_records_replayed = s.log_records_replayed;
}

void LayerServiceAfter(iim::stream::OnlineIim* engine,
                       const iim::stream::ImputationService& service,
                       SpanLog* spans, Report* r) {
  iim::stream::ImputationService::Stats ss = service.stats();
  iim::stream::OnlineIim::Stats s = engine->stats();
  Clock::time_point t0 = Clock::now();
  std::string image = engine->SerializeSnapshot();
  spans->Add("OnlineIim::SerializeSnapshot", t0, Clock::now(),
             SpanLog::kNoParent, 0);
  r->Metric("persist.snapshot_pause_max_ms",
            s.max_snapshot_serialize_seconds * 1e3, "ms");
  r->Metric("persist.snapshots_written",
            static_cast<double>(s.snapshots_written -
                                service_before.snapshots_written),
            "count");
  r->Metric("persist.snapshot_bytes", static_cast<double>(image.size()),
            "bytes");
  r->Metric("persist.recovery_records_replayed",
            static_cast<double>(service_before.log_records_replayed),
            "count");
  r->Metric("quality.probes",
            static_cast<double>(s.moo_probes - service_before.moo_probes),
            "count");
  // The service's serve-time rings keep the newest 4096 samples.
  r->Metric("service.serve_ingest_p50_us", ss.ingest_latency.p50 * kUs, "us",
            std::min<size_t>(ss.ingests, 4096));
  r->Metric("service.serve_impute_batch_p50_us", ss.impute_latency.p50 * kUs,
            "us", std::min<size_t>(ss.batches, 4096));
  r->Metric("service.rows_per_engine_batch",
            Ratio(static_cast<double>(ss.imputations),
                  static_cast<double>(ss.batches)),
            "rows/batch");
}

}  // namespace perfbench
