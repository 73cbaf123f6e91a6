#include "stream/online_iim.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/stopwatch.h"
#include "stream/persist/snapshot.h"

namespace iim::stream {

namespace {

// Same batch grain as ParallelImputeBatch: keeps the fixed partition (and
// therefore the result order guarantees) aligned with the batch engine.
constexpr size_t kBatchGrain = 16;

}  // namespace

Result<std::unique_ptr<OnlineIim>> OnlineIim::Create(
    const data::Schema& schema, int target, std::vector<int> features,
    const core::IimOptions& options) {
  if (schema.size() == 0) {
    return Status::InvalidArgument("OnlineIim: empty schema");
  }
  if (target < 0 || static_cast<size_t>(target) >= schema.size()) {
    return Status::InvalidArgument("OnlineIim: target out of range");
  }
  if (features.empty()) {
    return Status::InvalidArgument("OnlineIim: no complete attributes");
  }
  for (int f : features) {
    if (f < 0 || static_cast<size_t>(f) >= schema.size()) {
      return Status::InvalidArgument("OnlineIim: feature out of range");
    }
    if (f == target) {
      return Status::InvalidArgument(
          "OnlineIim: target cannot be a feature");
    }
  }
  if (options.k == 0) {
    return Status::InvalidArgument("OnlineIim: k must be positive");
  }
  if (options.timestamp_column >= static_cast<int>(schema.size())) {
    return Status::InvalidArgument(
        "OnlineIim: timestamp_column out of range");
  }
  if (options.moo_sample_rate < 0.0 || options.moo_sample_rate > 1.0) {
    return Status::InvalidArgument(
        "OnlineIim: moo_sample_rate must be in [0, 1]");
  }
  if (options.moo_sample_rate > 0.0) {
    if (options.moo_decay <= 0.0 || options.moo_decay > 1.0) {
      return Status::InvalidArgument(
          "OnlineIim: moo_decay must be in (0, 1]");
    }
    if (options.moo_margin < 0.0 || options.moo_margin >= 1.0) {
      return Status::InvalidArgument(
          "OnlineIim: moo_margin must be in [0, 1)");
    }
  }
  if (options.quality_routing ==
          core::IimOptions::QualityRouting::kAutoRoute &&
      options.moo_sample_rate <= 0.0) {
    return Status::InvalidArgument(
        "OnlineIim: kAutoRoute needs moo_sample_rate > 0 — routing "
        "decisions require the masking-one-out estimates");
  }
  if (options.adaptive) {
    // Adaptive per-tuple l is supported online, but only combinations
    // whose batch semantics survive a stream: the candidate budget must
    // be bounded, the fold incremental, and validation exhaustive.
    if (options.max_ell == 0) {
      return Status::InvalidArgument(
          "OnlineIim: adaptive per-tuple l requires max_ell > 0 online — "
          "with no cap the candidate budget (and every learning order) "
          "grows unboundedly with the stream");
    }
    if (!options.incremental) {
      return Status::InvalidArgument(
          "OnlineIim: adaptive per-tuple l online supports only the "
          "incremental fold (options.incremental); the from-scratch "
          "ablation is batch-only");
    }
    if (options.validation_sample > 0) {
      return Status::InvalidArgument(
          "OnlineIim: adaptive per-tuple l online validates with every "
          "live tuple; validation_sample is tied to a frozen relation "
          "and cannot follow a sliding window");
    }
  }
  std::unique_ptr<OnlineIim> engine(
      new OnlineIim(schema, target, std::move(features), options));
  if (!options.persist_dir.empty()) {
    RETURN_IF_ERROR(engine->InitPersistence());
  }
  return engine;
}

OnlineIim::OnlineIim(const data::Schema& schema, int target,
                     std::vector<int> features,
                     const core::IimOptions& options)
    : target_(target),
      features_(std::move(features)),
      options_(options),
      q_(features_.size()),
      table_(schema),
      core_(MakeOrderCoreConfig(options, features_.size())),
      pool_(options.threads) {
  if (options_.moo_sample_rate > 0.0) {
    monitor_ = std::make_unique<QualityMonitor>(
        MakeQualityConfig(options_, q_));
  }
}

Status OnlineIim::Ingest(const data::RowView& row) {
  if (row.size() != table_.NumCols()) {
    return Status::InvalidArgument("OnlineIim: tuple arity mismatch");
  }
  if (std::isnan(row[static_cast<size_t>(target_)])) {
    return Status::InvalidArgument("OnlineIim: NaN target in ingested tuple");
  }
  for (int f : features_) {
    if (std::isnan(row[static_cast<size_t>(f)])) {
      return Status::InvalidArgument(
          "OnlineIim: NaN feature in ingested tuple");
    }
  }

  // Log-then-apply: the arrival becomes durable before any state changes.
  // A log failure (full disk, broken segment) rejects the op unapplied,
  // so the recovered timeline always equals the acknowledged one. Replay
  // skips this — the records being re-applied are already on disk.
  bool nondurable = false;
  if (store_ != nullptr && !replaying_) {
    RETURN_IF_ERROR(LogDurably(
        [&] { return store_->LogIngest(row.data(), row.size()); },
        &nondurable));
  }

  std::vector<double> f_new(q_);
  for (size_t j = 0; j < q_; ++j) {
    f_new[j] = row[static_cast<size_t>(features_[j])];
  }
  double y_new = row[static_cast<size_t>(target_)];

  // The fallible append runs before the core's (infallible) arrival scan
  // so a failure leaves the engine unchanged.
  RETURN_IF_ERROR(table_.AppendRow(row.ToVector()));
  if (monitor_ != nullptr) {
    // Prequential order: the probe runs against the PRE-arrival mirror
    // (the holdout never matches itself), then the row joins it.
    std::vector<double> mv(q_ + 1);
    std::copy(f_new.begin(), f_new.end(), mv.begin());
    mv[q_] = y_new;
    monitor_->Observe(stats_.ingested, mv.data());
    monitor_->Add(stats_.ingested, mv.data());
  }
  core_.Arrive(f_new.data(), y_new, stats_.ingested);
  ++stats_.ingested;
  live_cache_valid_ = false;

  // Sliding window: retire the oldest live tuple(s) the arrival pushed
  // out. The arrival itself is the newest, so it never self-evicts.
  if (options_.window_size > 0) {
    while (core_.live() > options_.window_size) {
      size_t oldest = core_.OldestLiveSlot();
      if (monitor_ != nullptr) monitor_->Remove(core_.SeqOf(oldest));
      core_.EvictSlot(oldest);
    }
    MaybeCompact();
  }
  MaybeSnapshot();
  if (nondurable) {
    return Status::NonDurableOK(
        "accepted non-durably: engine degraded, op not logged");
  }
  return Status::OK();
}

Status OnlineIim::Evict(uint64_t arrival) {
  size_t slot = core_.SlotOf(arrival);
  if (slot == OrderCore::kNoSlot) {
    return Status::NotFound(
        "OnlineIim: arrival is not live (never ingested, or already "
        "evicted)");
  }
  // Liveness is checked BEFORE logging: a NotFound evict returns above
  // without a log record, so replay never sees an evict it cannot apply.
  bool nondurable = false;
  if (store_ != nullptr && !replaying_) {
    RETURN_IF_ERROR(LogDurably([&] { return store_->LogEvict(arrival); },
                               &nondurable));
  }
  if (monitor_ != nullptr) monitor_->Remove(arrival);
  core_.EvictSlot(slot);
  live_cache_valid_ = false;
  MaybeCompact();
  MaybeSnapshot();
  if (nondurable) {
    return Status::NonDurableOK(
        "accepted non-durably: engine degraded, op not logged");
  }
  return Status::OK();
}

Result<size_t> OnlineIim::EvictWhere(
    const std::function<bool(uint64_t arrival, const data::RowView& row)>&
        pred) {
  // Victims are collected by arrival number against the stable pre-sweep
  // window: evictions can compact the table and move slots, so the sweep
  // must not interleave predicate evaluation with mutation.
  std::vector<uint64_t> victims;
  const std::vector<uint8_t>& alive = core_.alive_slots();
  for (size_t slot = 0; slot < alive.size(); ++slot) {
    if (alive[slot] == 0) continue;
    if (pred(core_.SeqOf(slot), table_.Row(slot))) {
      victims.push_back(core_.SeqOf(slot));
    }
  }
  size_t evicted = 0;
  for (uint64_t arrival : victims) {
    Status st = Evict(arrival);
    if (!st.ok()) return st;
    ++evicted;
  }
  return evicted;
}

Result<size_t> OnlineIim::EvictOlderThan(double cutoff) {
  if (options_.timestamp_column < 0) {
    return Status::FailedPrecondition(
        "OnlineIim: EvictOlderThan needs options.timestamp_column");
  }
  const size_t ts = static_cast<size_t>(options_.timestamp_column);
  return EvictWhere([ts, cutoff](uint64_t, const data::RowView& row) {
    return row[ts] < cutoff;
  });
}

void OnlineIim::MaybeCompact() {
  std::vector<size_t> remap;
  if (!core_.MaybeCompact(&remap)) return;
  // The core dropped its tombstoned slots; drop the same rows from the
  // full-arity table (remap is ascending over survivors).
  std::vector<size_t> live_rows;
  live_rows.reserve(core_.n());
  for (size_t old = 0; old < remap.size(); ++old) {
    if (remap[old] != DynamicIndex::kGone) live_rows.push_back(old);
  }
  table_ = table_.TakeRows(live_rows);
  live_cache_valid_ = false;
}

const data::Table& OnlineIim::table() const {
  if (core_.live() == core_.n()) return table_;
  if (!live_cache_valid_) {
    const std::vector<uint8_t>& alive = core_.alive_slots();
    std::vector<size_t> live_rows;
    live_rows.reserve(core_.live());
    for (size_t i = 0; i < alive.size(); ++i) {
      if (alive[i] != 0) live_rows.push_back(i);
    }
    live_cache_ = table_.TakeRows(live_rows);
    live_cache_valid_ = true;
  }
  return live_cache_;
}

bool OnlineIim::IsLive(uint64_t arrival) const {
  return core_.IsLive(arrival);
}

std::vector<neighbors::Neighbor> OnlineIim::LearningOrderByArrival(
    uint64_t arrival) const {
  size_t slot = core_.SlotOf(arrival);
  if (slot == OrderCore::kNoSlot) return {};
  std::vector<neighbors::Neighbor> order = core_.Order(slot);
  for (neighbors::Neighbor& nb : order) nb.index = core_.SeqOf(nb.index);
  return order;
}

size_t OnlineIim::ChosenEllByArrival(uint64_t arrival) const {
  size_t slot = core_.SlotOf(arrival);
  return slot == OrderCore::kNoSlot ? 0 : core_.chosen_ell(slot);
}

Status OnlineIim::CheckQuery(const data::RowView& tuple) const {
  if (core_.live() == 0) {
    return Status::FailedPrecondition("OnlineIim: no live tuples");
  }
  if (tuple.size() != table_.NumCols()) {
    return Status::InvalidArgument("OnlineIim: tuple arity mismatch");
  }
  for (int f : features_) {
    if (std::isnan(tuple[static_cast<size_t>(f)])) {
      return Status::InvalidArgument(
          "OnlineIim: NaN in complete attribute of tuple");
    }
  }
  return Status::OK();
}

Result<double> OnlineIim::AggregateClean(
    const data::RowView& tuple,
    const std::vector<neighbors::Neighbor>& nbrs) const {
  std::vector<double> x(q_);
  for (size_t j = 0; j < q_; ++j) {
    x[j] = tuple[static_cast<size_t>(features_[j])];
  }
  std::vector<double> candidates;
  candidates.reserve(nbrs.size());
  for (const neighbors::Neighbor& nb : nbrs) {
    // Formula 9: t_x^j[Am] = (1, t_x[F]) phi_j.
    candidates.push_back(core_.model(nb.index).Predict(x.data(), q_));
  }
  return core::CombineCandidates(candidates, options_.uniform_weights);
}

QualityRoute OnlineIim::CurrentRoute() const {
  if (monitor_ == nullptr) return QualityRoute::kIim;
  QualityRoute route = monitor_->RouteTarget();
  // A cold mirror (restored estimates, window not yet re-populated, or
  // every monitored tuple evicted) cannot serve challengers — IIM does.
  if (route != QualityRoute::kIim && monitor_->live() == 0) {
    return QualityRoute::kIim;
  }
  return route;
}

Result<double> OnlineIim::ImputeOne(const data::RowView& tuple) {
  RETURN_IF_ERROR(CheckQuery(tuple));
  const QualityRoute route = CurrentRoute();
  if (route != QualityRoute::kIim && route != QualityRoute::kEnsemble) {
    std::vector<double> feat(q_);
    for (size_t j = 0; j < q_; ++j) {
      feat[j] = tuple[static_cast<size_t>(features_[j])];
    }
    auto served = monitor_->ServeTarget(feat.data(), route);
    if (served.ok()) {
      ++stats_.imputed;
      ++stats_.routed_serves;
      return served;
    }
    // Monitor could not answer — fall through to the IIM path.
  }
  std::vector<double> probe(q_);
  for (size_t j = 0; j < q_; ++j) {
    probe[j] = tuple[static_cast<size_t>(features_[j])];
  }
  neighbors::QueryOptions qopt;
  qopt.k = options_.k;
  std::vector<neighbors::Neighbor> nbrs =
      core_.index().Query(data::RowView(probe.data(), q_), qopt);
  if (nbrs.empty()) {
    return Status::Internal("OnlineIim: no imputation neighbors");
  }
  for (const neighbors::Neighbor& nb : nbrs) {
    RETURN_IF_ERROR(core_.EnsureModel(nb.index));
  }
  ++stats_.imputed;
  Result<double> value = AggregateClean(tuple, nbrs);
  if (route == QualityRoute::kEnsemble && value.ok()) {
    ++stats_.ensemble_serves;
    return monitor_->EnsembleTarget(probe.data(), value.value());
  }
  return value;
}

std::vector<Result<double>> OnlineIim::ImputeBatch(
    const std::vector<data::RowView>& rows) {
  std::vector<Result<double>> out(rows.size(), Result<double>(0.0));

  // Routing is decided once per batch: imputations never mutate the
  // monitor, so every row of the batch sees the same champion.
  const QualityRoute route = CurrentRoute();
  if (route != QualityRoute::kIim && route != QualityRoute::kEnsemble) {
    std::vector<double> feat(q_);
    for (size_t i = 0; i < rows.size(); ++i) {
      Status st = CheckQuery(rows[i]);
      if (!st.ok()) {
        out[i] = st;
        continue;
      }
      for (size_t j = 0; j < q_; ++j) {
        feat[j] = rows[i][static_cast<size_t>(features_[j])];
      }
      out[i] = monitor_->ServeTarget(feat.data(), route);
      if (out[i].ok()) {
        ++stats_.imputed;
        ++stats_.routed_serves;
      }
    }
    return out;
  }

  // Phase 1 (serial): validate, gather the queryable rows' probes into
  // one contiguous block (the core's index takes gathered points).
  std::vector<size_t> row_of_query;
  row_of_query.reserve(rows.size());
  std::vector<double> probes;
  probes.reserve(rows.size() * q_);
  for (size_t i = 0; i < rows.size(); ++i) {
    Status st = CheckQuery(rows[i]);
    if (st.ok()) {
      for (size_t j = 0; j < q_; ++j) {
        probes.push_back(rows[i][static_cast<size_t>(features_[j])]);
      }
      row_of_query.push_back(i);
    } else {
      out[i] = st;
    }
  }
  std::vector<neighbors::BatchQuery> batch;
  batch.reserve(row_of_query.size());
  for (size_t b = 0; b < row_of_query.size(); ++b) {
    batch.push_back(
        neighbors::BatchQuery{data::RowView(probes.data() + b * q_, q_)});
  }

  // Phase 2 (parallel, read-only): neighbor queries fan out; the fixed
  // block partition keeps result order thread-count independent.
  std::vector<std::vector<neighbors::Neighbor>> nbrs =
      core_.index().QueryMany(batch, options_.k, &pool_);

  // Phase 3 (serial): ensure every distinct neighbor model exactly once.
  // Serial keeps the core mutation trivially deterministic and race-free;
  // the set is small (<= k models per distinct neighborhood, most already
  // clean — those count as reuses). A solve failure is recorded per
  // model, not broadcast: rows whose own neighborhoods solved fine still
  // get answers, exactly as a per-row ImputeOne sequence would.
  std::vector<size_t> needed;
  for (const std::vector<neighbors::Neighbor>& list : nbrs) {
    for (const neighbors::Neighbor& nb : list) {
      needed.push_back(nb.index);
    }
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  std::vector<std::pair<size_t, Status>> failures;  // sorted by model id
  for (size_t id : needed) {
    Status st = core_.EnsureModel(id);
    if (!st.ok()) failures.emplace_back(id, st);
  }

  // Phase 4 (parallel, read-only): aggregate candidates per row. A row
  // inherits the error of its first failed neighbor model (ImputeOne's
  // neighbor-order semantics).
  pool_.ParallelFor(batch.size(), kBatchGrain, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      size_t i = row_of_query[b];
      if (nbrs[b].empty()) {
        out[i] = Status::Internal("OnlineIim: no imputation neighbors");
        continue;
      }
      const Status* failed = nullptr;
      for (const neighbors::Neighbor& nb : nbrs[b]) {
        auto it = std::lower_bound(
            failures.begin(), failures.end(), nb.index,
            [](const std::pair<size_t, Status>& f, size_t id) {
              return f.first < id;
            });
        if (it != failures.end() && it->first == nb.index) {
          failed = &it->second;
          break;
        }
      }
      out[i] = failed != nullptr ? Result<double>(*failed)
                                 : AggregateClean(rows[i], nbrs[b]);
    }
  });
  // Mirror ImputeOne's accounting: only answered rows count as served.
  for (size_t b = 0; b < batch.size(); ++b) {
    if (out[row_of_query[b]].ok()) ++stats_.imputed;
  }
  if (route == QualityRoute::kEnsemble) {
    // Post-process each answered row exactly as ImputeOne would: blend
    // the engine's IIM value with the challengers' serves.
    for (size_t b = 0; b < batch.size(); ++b) {
      size_t i = row_of_query[b];
      if (!out[i].ok()) continue;
      ++stats_.ensemble_serves;
      out[i] = monitor_->EnsembleTarget(probes.data() + b * q_,
                                        out[i].value());
    }
  }
  return out;
}

OnlineIim::Stats OnlineIim::stats() const {
  Stats s = stats_;
  const OrderCore::Counters& c = core_.counters();
  s.evicted = c.evicted;
  s.fast_path_appends = c.fast_path_appends;
  s.models_invalidated = c.models_invalidated;
  s.models_solved = c.models_solved;
  s.backfills = c.backfills;
  s.compactions = c.compactions;
  s.postings_edges = c.postings_edges;
  s.holders_invalidated = c.holders_invalidated;
  s.global_fits_reused = c.models_reused;
  s.adaptive_l_changes = c.adaptive_l_changes;
  s.orders_scanned = c.orders_scanned;
  s.orders_admitted = c.orders_admitted;
  s.admission_skips = c.admission_skips;
  if (monitor_ != nullptr) {
    s.moo_probes = monitor_->probes();
    s.moo_skipped = monitor_->skipped();
    s.champion_switches = monitor_->champion_switches();
    s.quality = monitor_->ColumnStats();
  }
  return s;
}

std::string OnlineIim::SerializeSnapshot() {
  size_t m = table_.NumCols();
  size_t n = core_.n();
  persist::SnapshotBuilder b(store_ == nullptr ? 0 : store_->ops_logged());

  // Config fingerprint: everything that shapes results. Restoring under
  // different values would silently change answers, so Restore hard-fails
  // on any mismatch.
  const OrderCore::Config& cc = core_.config();
  b.BeginSection(persist::kSecMeta);
  b.PutU32(4);  // engine layout version within the container
  b.PutU64(m);
  b.PutU32(static_cast<uint32_t>(target_));
  b.PutU64(q_);
  for (int f : features_) b.PutU32(static_cast<uint32_t>(f));
  b.PutU64(options_.k);
  b.PutU64(cc.ell);
  b.PutF64(options_.alpha);
  b.PutU8(options_.uniform_weights ? 1 : 0);
  b.PutU64(options_.window_size);
  b.PutU8(cc.adaptive ? 1 : 0);
  b.PutU64(cc.max_ell);
  b.PutU64(cc.step_h);
  b.PutU64(cc.vk);
  // Quality-monitoring knobs shape routing decisions and the restored
  // estimates' meaning, so they are part of the fingerprint (v3).
  b.PutF64(options_.moo_sample_rate);
  b.PutF64(options_.moo_decay);
  b.PutU64(options_.moo_knn);
  b.PutU64(options_.moo_ell);
  b.PutU64(options_.moo_min_samples);
  b.PutF64(options_.moo_margin);
  b.PutU8(options_.quality_routing ==
                  core::IimOptions::QualityRouting::kAutoRoute
              ? 1
              : 0);
  b.PutU64(options_.seed);
  b.PutU32(static_cast<uint32_t>(options_.timestamp_column));

  // Engine-owned cursors only; the maintenance state and counters are the
  // core's sections.
  b.BeginSection(persist::kSecEngine);
  b.PutU64(stats_.ingested);
  b.PutU64(stats_.imputed);

  // Columnar full-arity rows over ALL slots (tombstones keep their
  // payload until compaction). The core serializes its gathered
  // projection of the same slots; the duplication buys a table() that
  // restores without re-reading the schema mapping.
  b.BeginSection(persist::kSecRows);
  b.PutU64(n);
  b.PutU64(m);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < n; ++i) b.PutF64(table_.At(i, j));
  }

  core_.SerializeInto(&b);
  if (monitor_ != nullptr) monitor_->SerializeInto(&b);
  return b.Finish();
}

Status OnlineIim::RestoreFromSnapshot(const std::string& bytes) {
  if (core_.n() != 0 || stats_.ingested != 0) {
    return Status::FailedPrecondition(
        "OnlineIim: snapshots restore into an empty engine only");
  }
  ASSIGN_OR_RETURN(persist::SnapshotView view,
                   persist::SnapshotView::Parse(bytes));
  auto mismatch = [](const char* what) {
    return Status::InvalidArgument(
        std::string("OnlineIim: snapshot was written under a different ") +
        what + "; refusing to restore state that would answer differently");
  };

  ASSIGN_OR_RETURN(persist::SectionReader meta,
                   view.Section(persist::kSecMeta));
  size_t m = table_.NumCols();
  const OrderCore::Config& cc = core_.config();
  if (meta.U32() != 4) return mismatch("engine layout version");
  if (meta.U64() != m) return mismatch("schema arity");
  if (meta.U32() != static_cast<uint32_t>(target_)) return mismatch("target");
  if (meta.U64() != q_) return mismatch("feature set");
  for (int f : features_) {
    if (meta.U32() != static_cast<uint32_t>(f)) return mismatch("feature set");
  }
  if (meta.U64() != options_.k) return mismatch("k");
  if (meta.U64() != cc.ell) return mismatch("ell");
  double alpha = meta.F64();
  if (std::memcmp(&alpha, &options_.alpha, sizeof(double)) != 0) {
    return mismatch("alpha");
  }
  if ((meta.U8() != 0) != options_.uniform_weights) {
    return mismatch("weighting mode");
  }
  if (meta.U64() != options_.window_size) return mismatch("window size");
  if ((meta.U8() != 0) != cc.adaptive) return mismatch("adaptive mode");
  if (meta.U64() != cc.max_ell) return mismatch("max_ell");
  if (meta.U64() != cc.step_h) return mismatch("step_h");
  if (meta.U64() != cc.vk) return mismatch("validation fan-out");
  double rate = meta.F64();
  if (std::memcmp(&rate, &options_.moo_sample_rate, sizeof(double)) != 0) {
    return mismatch("moo_sample_rate");
  }
  double decay = meta.F64();
  if (std::memcmp(&decay, &options_.moo_decay, sizeof(double)) != 0) {
    return mismatch("moo_decay");
  }
  if (meta.U64() != options_.moo_knn) return mismatch("moo_knn");
  if (meta.U64() != options_.moo_ell) return mismatch("moo_ell");
  if (meta.U64() != options_.moo_min_samples) {
    return mismatch("moo_min_samples");
  }
  double margin = meta.F64();
  if (std::memcmp(&margin, &options_.moo_margin, sizeof(double)) != 0) {
    return mismatch("moo_margin");
  }
  if ((meta.U8() != 0) !=
      (options_.quality_routing ==
       core::IimOptions::QualityRouting::kAutoRoute)) {
    return mismatch("quality routing mode");
  }
  if (meta.U64() != options_.seed) return mismatch("seed");
  if (meta.U32() != static_cast<uint32_t>(options_.timestamp_column)) {
    return mismatch("timestamp_column");
  }
  RETURN_IF_ERROR(meta.status());

  ASSIGN_OR_RETURN(persist::SectionReader eng,
                   view.Section(persist::kSecEngine));
  uint64_t ingested = eng.U64();
  uint64_t imputed = eng.U64();
  RETURN_IF_ERROR(eng.status());

  ASSIGN_OR_RETURN(persist::SectionReader rows,
                   view.Section(persist::kSecRows));
  size_t n = rows.U64();
  if (rows.U64() != m) {
    return Status::IoError("OnlineIim: snapshot row block shape mismatch");
  }
  // The payload must hold n rows of m doubles before anything is sized
  // from n: a forged count would otherwise exhaust memory, or wrap n * m
  // and overrun the buffer.
  if (n > rows.remaining() / (m * sizeof(double))) {
    return Status::IoError("OnlineIim: snapshot row count overruns its block");
  }
  std::vector<double> cells(n * m);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < n; ++i) cells[i * m + j] = rows.F64();
  }
  RETURN_IF_ERROR(rows.status());

  // The core decodes, validates and installs its own sections; the
  // engine's table must describe the same slots.
  RETURN_IF_ERROR(core_.RestoreFrom(view));
  if (core_.n() != n || ingested < core_.live()) {
    return Status::IoError("OnlineIim: snapshot counters are inconsistent");
  }
#ifndef NDEBUG
  // The core's gathered rows and the engine's full rows were serialized
  // from the same slots — cross-check the projection agrees bitwise.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < q_; ++j) {
      double cell = cells[i * m + static_cast<size_t>(features_[j])];
      assert(std::memcmp(&cell, core_.Features(i) + j, sizeof(double)) == 0);
    }
  }
#endif

  for (size_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(table_.AppendRow(std::vector<double>(
        cells.begin() + static_cast<long>(i * m),
        cells.begin() + static_cast<long>((i + 1) * m))));
  }
  if (monitor_ != nullptr) {
    // Estimates, rings and champions restore bitwise from their section;
    // the mirror and challenger fits are rebuilt by re-adding the live
    // window in arrival order (the fits restream, so their numerics match
    // a fresh engine fed the same window, not necessarily the exact
    // accumulator bits of the writer — documented in stream/quality.h).
    ASSIGN_OR_RETURN(persist::SectionReader qr,
                     view.Section(persist::kSecQuality));
    RETURN_IF_ERROR(monitor_->RestoreFrom(&qr));
    const std::vector<uint8_t>& alive = core_.alive_slots();
    std::vector<double> mv(q_ + 1);
    for (size_t slot = 0; slot < alive.size(); ++slot) {
      if (alive[slot] == 0) continue;
      std::copy(core_.Features(slot), core_.Features(slot) + q_,
                mv.begin());
      mv[q_] = core_.Target(slot);
      monitor_->Add(core_.SeqOf(slot), mv.data());
    }
  }
  stats_.ingested = ingested;
  stats_.imputed = imputed;
  stats_.snapshots_loaded = 1;
  live_cache_valid_ = false;
  return Status::OK();
}

Status OnlineIim::InitPersistence() {
  persist::StoreOptions sopt;
  sopt.dir = options_.persist_dir;
  sopt.snapshot_every = options_.snapshot_every;
  sopt.wal_fsync_every = options_.wal_fsync_every;
  sopt.keep_snapshots = options_.keep_snapshots;
  ASSIGN_OR_RETURN(store_, persist::StateStore::Open(sopt));

  uint64_t base = 0;
  if (store_->has_snapshot()) {
    // The bytes already passed every checksum; a decode failure here is a
    // format bug or an options mismatch — both hard errors, never silent
    // divergence.
    RETURN_IF_ERROR(RestoreFromSnapshot(store_->snapshot_bytes()));
    base = store_->snapshot_ops();
  }

  // Replay the log tail through the normal mutation path: window
  // evictions, compactions and rebuild timing are all deterministic, so
  // the replayed engine is bitwise the acknowledged one.
  replaying_ = true;
  uint64_t applied = 0;
  for (const persist::WalRecord& rec : store_->ReplayTail()) {
    Status st = rec.kind == persist::WalRecord::kIngest
                    ? Ingest(data::RowView(rec.row.data(), rec.row.size()))
                    : Evict(rec.arrival);
    if (!st.ok()) break;  // diverged record: the usable prefix ends here
    ++applied;
  }
  replaying_ = false;
  stats_.log_records_replayed = applied;
  return store_->StartLogging(base + applied);
}

void OnlineIim::SetHealth(HealthState next) {
  if (health_ == next) return;
  health_ = next;
  ++stats_.health_transitions;
}

Status OnlineIim::LogDurably(const std::function<Status()>& append,
                             bool* nondurable) {
  *nondurable = false;
  if (health_ == HealthState::kReadOnly) {
    ++stats_.degraded_rejected;
    return Status::Unavailable(
        "OnlineIim: read-only — non-durable debt exceeded "
        "max_nondurable_ops; call RecoverDurability()");
  }
  if (health_ == HealthState::kHealthy) {
    Status st = append();
    double backoff = options_.wal_retry_base;
    for (size_t attempt = 0;
         !st.ok() && attempt < options_.wal_retry_attempts; ++attempt) {
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      backoff = std::min(backoff * 2.0, options_.wal_retry_max);
      ++stats_.wal_retries;
      st = append();
    }
    if (st.ok()) return Status::OK();
    // Retries exhausted: step down the ladder, and handle THIS op under
    // the degraded policy below. The transition is sticky — a later
    // append succeeding by luck must not hide the hole in the log.
    SetHealth(HealthState::kDegraded);
  }
  if (options_.degraded_ingest == core::IimOptions::DegradedIngest::kReject) {
    ++stats_.degraded_rejected;
    return Status::Unavailable(
        "OnlineIim: degraded — durable log unavailable; mutation rejected "
        "(imputations keep serving)");
  }
  ++stats_.nondurable_ops;
  ++nondurable_debt_;
  if (options_.max_nondurable_ops > 0 &&
      nondurable_debt_ >= options_.max_nondurable_ops) {
    SetHealth(HealthState::kReadOnly);  // this op is the last accepted
  }
  *nondurable = true;
  return Status::OK();
}

Status OnlineIim::RecoverDurability() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "OnlineIim: no persist_dir was configured");
  }
  if (health_ == HealthState::kHealthy) return Status::OK();
  // Quiesce the store: wait out any in-flight background write and clear
  // its pending slot so the blocking write below is legal.
  RETURN_IF_ERROR(store_->Flush());
  store_->Harvest(&stats_.snapshots_written,
                  &stats_.snapshot_write_failures);
  // Fold the unlogged ops into the op count BEFORE serializing, so the
  // snapshot's coverage stamp matches the state it actually contains.
  // Folding is one-way: on a failed write below the debt stays folded
  // (the engine remains degraded) and a retry writes at the already-
  // advanced count — never double-counted.
  store_->AdvanceOps(nondurable_debt_);
  nondurable_debt_ = 0;
  Stopwatch timer;
  std::string bytes = SerializeSnapshot();
  stats_.max_snapshot_serialize_seconds = std::max(
      stats_.max_snapshot_serialize_seconds, timer.ElapsedSeconds());
  Status st = store_->WriteSnapshotBlocking(std::move(bytes));
  if (!st.ok()) {
    ++stats_.snapshot_write_failures;
    return st;
  }
  ++stats_.snapshots_written;
  SetHealth(HealthState::kHealthy);
  return Status::OK();
}

void OnlineIim::MaybeSnapshot() {
  if (store_ == nullptr || replaying_) return;
  // Degraded: the engine holds ops the log does not; a checkpoint here
  // would stamp a coverage count it does not honor. RecoverDurability()
  // is the only checkpoint allowed until then.
  if (health_ != HealthState::kHealthy) return;
  store_->Harvest(&stats_.snapshots_written,
                  &stats_.snapshot_write_failures);
  if (!store_->snapshot_due()) return;
  Stopwatch timer;
  std::string bytes = SerializeSnapshot();
  stats_.max_snapshot_serialize_seconds = std::max(
      stats_.max_snapshot_serialize_seconds, timer.ElapsedSeconds());
  // A failed rotation/handoff is counted, not fatal: the engine keeps
  // answering and logging; the previous checkpoint still covers recovery.
  if (!store_->BeginSnapshot(std::move(bytes)).ok()) {
    ++stats_.snapshot_write_failures;
  }
}

Status OnlineIim::SaveSnapshot() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "OnlineIim: no persist_dir was configured");
  }
  RETURN_IF_ERROR(store_->Flush());
  store_->Harvest(&stats_.snapshots_written,
                  &stats_.snapshot_write_failures);
  Stopwatch timer;
  std::string bytes = SerializeSnapshot();
  stats_.max_snapshot_serialize_seconds = std::max(
      stats_.max_snapshot_serialize_seconds, timer.ElapsedSeconds());
  Status st = store_->WriteSnapshotBlocking(std::move(bytes));
  if (!st.ok()) {
    ++stats_.snapshot_write_failures;
    return st;
  }
  ++stats_.snapshots_written;
  return Status::OK();
}

Status OnlineIim::FlushPersistence() {
  if (store_ == nullptr) return Status::OK();
  RETURN_IF_ERROR(store_->Flush());
  store_->Harvest(&stats_.snapshots_written,
                  &stats_.snapshot_write_failures);
  return Status::OK();
}

}  // namespace iim::stream
