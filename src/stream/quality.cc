#include "stream/quality.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/iim_imputer.h"
#include "neighbors/distance.h"
#include "neighbors/knn.h"

namespace iim::stream {

namespace {

// SplitMix64: the deterministic per-arrival hash behind holdout sampling.
// Seeded by options.seed so two engines configured alike sample the same
// arrivals — the restore and replay differential tests depend on it.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Top 53 bits -> uniform double in [0, 1).
double ToUnit(uint64_t u) {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

// The d-1 predictors of column c, in index order.
void GatherPredictors(const double* row, size_t c, size_t d, double* out) {
  size_t j = 0;
  for (size_t i = 0; i < d; ++i) {
    if (i == c) continue;
    out[j++] = row[i];
  }
}

}  // namespace

const char* QualityMethodName(int method) {
  switch (method) {
    case kQualityIim: return "iim";
    case kQualityMean: return "mean";
    case kQualityKnn: return "knn";
    case kQualityGlr: return "glr";
  }
  return "unknown";
}

QualityConfig MakeQualityConfig(const core::IimOptions& options, size_t q) {
  QualityConfig c;
  c.q = q;
  c.sample_rate = options.moo_sample_rate;
  c.decay = options.moo_decay;
  c.k = options.moo_knn != 0 ? options.moo_knn : options.k;
  c.ell = options.moo_ell != 0 ? options.moo_ell
                               : std::max<size_t>(options.ell, 1);
  c.alpha = options.alpha;
  c.uniform_weights = options.uniform_weights;
  c.min_samples = options.moo_min_samples;
  c.margin = options.moo_margin;
  c.seed = options.seed;
  c.routing = options.quality_routing;
  return c;
}

QualityMonitor::QualityMonitor(const QualityConfig& config)
    : config_(config),
      d_(config.q + 1),
      mean_fit_(config.q + 1),
      ridge_fit_(config.q + 1, config.alpha),
      columns_(config.q + 1) {
  gather_a_.resize(config_.q);
  gather_b_.resize(config_.q);
}

bool QualityMonitor::ShouldProbe(uint64_t arrival) const {
  if (config_.sample_rate <= 0.0) return false;
  if (config_.sample_rate >= 1.0) return true;
  return ToUnit(SplitMix64(config_.seed ^ arrival)) < config_.sample_rate;
}

size_t QualityMonitor::HoldoutColumn(uint64_t arrival) const {
  return static_cast<size_t>(
      SplitMix64(SplitMix64(config_.seed ^ arrival)) % d_);
}

void QualityMonitor::CollectRows() const {
  rows_scratch_.clear();
  rows_scratch_.reserve(mirror_.size());
  for (const auto& kv : mirror_) rows_scratch_.push_back(kv.second.data());
}

std::vector<std::pair<size_t, double>> QualityMonitor::TopK(
    const double* mv, size_t c, size_t k, size_t exclude) const {
  std::vector<std::pair<size_t, double>> out;
  if (k == 0 || rows_scratch_.empty()) return out;
  GatherPredictors(mv, c, d_, gather_a_.data());
  // Query predictors live in gather_a_ for the whole scan; gather_b_ is
  // the per-candidate scratch.
  std::vector<double> query(gather_a_);
  std::vector<neighbors::Neighbor> heap;
  for (size_t i = 0; i < rows_scratch_.size(); ++i) {
    if (i == exclude) continue;
    GatherPredictors(rows_scratch_[i], c, d_, gather_b_.data());
    neighbors::Neighbor cand{
        i, neighbors::NormalizedEuclidean(query.data(), gather_b_.data(),
                                          config_.q)};
    neighbors::PushNeighborHeap(&heap, k, cand);
  }
  std::sort(heap.begin(), heap.end(), neighbors::NeighborLess);
  out.reserve(heap.size());
  for (const auto& n : heap) out.emplace_back(n.index, n.distance);
  return out;
}

Result<double> QualityMonitor::ProbeIim(const double* mv, size_t c) const {
  auto nearest = TopK(mv, c, config_.k, kNoExclude);
  if (nearest.empty()) {
    return Status::NotFound("quality probe: empty mirror");
  }
  std::vector<double> candidates;
  candidates.reserve(nearest.size());
  regress::IncrementalRidge acc(config_.q);
  for (const auto& [pos, dist] : nearest) {
    (void)dist;
    const double* nrow = rows_scratch_[pos];
    auto learn = TopK(nrow, c, config_.ell, pos);
    if (learn.empty()) {
      // Single-tuple window: the paper's single-neighbor constant rule.
      candidates.push_back(nrow[c]);
      continue;
    }
    acc.Reset();
    for (const auto& [lpos, ldist] : learn) {
      (void)ldist;
      GatherPredictors(rows_scratch_[lpos], c, d_, gather_b_.data());
      acc.AddRow(gather_b_.data(), rows_scratch_[lpos][c]);
    }
    auto solved = acc.Solve(config_.alpha);
    if (!solved.ok()) {
      candidates.push_back(nrow[c]);
      continue;
    }
    GatherPredictors(mv, c, d_, gather_a_.data());
    candidates.push_back(
        solved.value().Predict(gather_a_.data(), config_.q));
  }
  return core::CombineCandidates(candidates, config_.uniform_weights);
}

Result<double> QualityMonitor::ProbeKnn(const double* mv, size_t c) const {
  auto nearest = TopK(mv, c, config_.k, kNoExclude);
  if (nearest.empty()) {
    return Status::NotFound("quality probe: empty mirror");
  }
  double sum = 0.0;
  for (const auto& [pos, dist] : nearest) {
    (void)dist;
    sum += rows_scratch_[pos][c];
  }
  return sum / static_cast<double>(nearest.size());
}

baselines::StreamingRidgeFit::RowSource QualityMonitor::MirrorSource()
    const {
  return [this](const std::function<void(const double*)>& emit) {
    for (const auto& kv : mirror_) emit(kv.second.data());
  };
}

Result<double> QualityMonitor::ProbeMethod(int method, const double* mv,
                                           size_t c) {
  switch (method) {
    case kQualityIim: return ProbeIim(mv, c);
    case kQualityMean: return mean_fit_.Mean(c);
    case kQualityKnn: return ProbeKnn(mv, c);
    case kQualityGlr: return ridge_fit_.Predict(c, mv, MirrorSource());
  }
  return Status::InvalidArgument("quality probe: unknown method");
}

void QualityMonitor::Record(ColumnState* col, int method, double abs_err) {
  MethodState& ms = col->methods[static_cast<size_t>(method)];
  if (ms.samples == 0) {
    ms.ewma_abs = abs_err;
    ms.ewma_sq = abs_err * abs_err;
  } else {
    const double lambda = config_.decay;
    ms.ewma_abs = (1.0 - lambda) * ms.ewma_abs + lambda * abs_err;
    ms.ewma_sq = (1.0 - lambda) * ms.ewma_sq + lambda * abs_err * abs_err;
  }
  ++ms.samples;
  if (ms.ring.size() < kRing) {
    ms.ring.push_back(abs_err);
  } else {
    ms.ring[ms.ring_pos] = abs_err;
  }
  ms.ring_pos = (ms.ring_pos + 1) % kRing;
}

void QualityMonitor::UpdateChampion(ColumnState* col) {
  int best = -1;
  double best_sq = std::numeric_limits<double>::infinity();
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = col->methods[static_cast<size_t>(m)];
    if (ms.samples < config_.min_samples) continue;
    if (ms.ewma_sq < best_sq) {
      best_sq = ms.ewma_sq;
      best = m;
    }
  }
  if (best < 0 || best == col->champion) return;
  const MethodState& champ = col->methods[static_cast<size_t>(col->champion)];
  const double champ_sq = champ.samples > 0
                              ? champ.ewma_sq
                              : std::numeric_limits<double>::infinity();
  // Hysteresis: a challenger must beat the incumbent by the margin, not
  // merely edge it out, or champions flap on noise.
  if (best_sq < champ_sq * (1.0 - config_.margin)) {
    col->champion = best;
    ++col->switches;
    ++champion_switches_;
    col->last_switch_holdout = col->holdouts;
  }
}

void QualityMonitor::Observe(uint64_t arrival, const double* mv) {
  if (!ShouldProbe(arrival)) return;
  if (mirror_.size() < 2) {
    // Too little context for a meaningful probe; count it so operators
    // can tell "no probes yet" from "stream too young".
    ++skipped_;
    return;
  }
  const size_t c = HoldoutColumn(arrival);
  ColumnState* col = &columns_[c];
  ++probes_;
  ++col->holdouts;
  CollectRows();
  const double truth = mv[c];
  for (int m = 0; m < kQualityMethods; ++m) {
    auto imputed = ProbeMethod(m, mv, c);
    if (imputed.ok()) {
      Record(col, m, std::fabs(imputed.value() - truth));
    }
  }
  UpdateChampion(col);
}

void QualityMonitor::Add(uint64_t arrival, const double* mv) {
  auto [it, inserted] =
      mirror_.emplace(arrival, std::vector<double>(mv, mv + d_));
  if (!inserted) return;  // duplicate arrival: caller bug, keep first
  mean_fit_.Add(it->second.data());
  ridge_fit_.Add(it->second.data());
}

void QualityMonitor::Remove(uint64_t arrival) {
  auto it = mirror_.find(arrival);
  if (it == mirror_.end()) return;
  mean_fit_.Remove(it->second.data());
  ridge_fit_.Remove(it->second.data());
  mirror_.erase(it);
}

QualityRoute QualityMonitor::RouteTarget() const {
  if (config_.routing == core::IimOptions::QualityRouting::kObserveOnly) {
    return QualityRoute::kIim;
  }
  const ColumnState& col = columns_[config_.q];
  // A freshly switched champion has not proven itself yet: serve the
  // MIB-style ensemble until min_samples further holdouts land.
  if (col.switches > 0 &&
      col.holdouts - col.last_switch_holdout < config_.min_samples) {
    return QualityRoute::kEnsemble;
  }
  switch (col.champion) {
    case kQualityIim: return QualityRoute::kIim;
    case kQualityMean: return QualityRoute::kMean;
    case kQualityKnn: return QualityRoute::kKnn;
    case kQualityGlr: return QualityRoute::kGlr;
  }
  return QualityRoute::kIim;
}

Result<double> QualityMonitor::ServeTarget(const double* features,
                                           QualityRoute route) {
  if (mirror_.empty()) {
    return Status::NotFound("quality route: empty mirror");
  }
  std::vector<double> mv(d_, 0.0);
  std::copy(features, features + config_.q, mv.begin());
  switch (route) {
    case QualityRoute::kMean:
      return mean_fit_.Mean(config_.q);
    case QualityRoute::kKnn:
      CollectRows();
      return ProbeKnn(mv.data(), config_.q);
    case QualityRoute::kGlr:
      return ridge_fit_.Predict(config_.q, mv.data(), MirrorSource());
    default:
      return Status::InvalidArgument(
          "quality route: ServeTarget handles mean/knn/glr only");
  }
}

Result<double> QualityMonitor::EnsembleTarget(const double* features,
                                              double iim_value) {
  const ColumnState& col = columns_[config_.q];
  double wsum = 0.0;
  double vsum = 0.0;
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = col.methods[static_cast<size_t>(m)];
    if (ms.samples == 0) continue;  // no error evidence, no vote
    double value;
    if (m == kQualityIim) {
      value = iim_value;
    } else {
      QualityRoute route = m == kQualityMean   ? QualityRoute::kMean
                           : m == kQualityKnn ? QualityRoute::kKnn
                                              : QualityRoute::kGlr;
      auto served = ServeTarget(features, route);
      if (!served.ok()) continue;
      value = served.value();
    }
    const double w = 1.0 / (ms.ewma_sq + 1e-12);
    wsum += w;
    vsum += w * value;
  }
  if (wsum <= 0.0) return iim_value;
  return vsum / wsum;
}

std::vector<QualityColumnStats> QualityMonitor::ColumnStats() const {
  std::vector<QualityColumnStats> out(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnState& col = columns_[c];
    QualityColumnStats& s = out[c];
    s.holdouts = col.holdouts;
    s.champion = col.champion;
    s.switches = col.switches;
    for (int m = 0; m < kQualityMethods; ++m) {
      const MethodState& ms = col.methods[static_cast<size_t>(m)];
      s.samples[static_cast<size_t>(m)] = ms.samples;
      s.ewma_abs[static_cast<size_t>(m)] = ms.ewma_abs;
      s.ewma_rms[static_cast<size_t>(m)] = std::sqrt(ms.ewma_sq);
      s.abs_error[static_cast<size_t>(m)] = Summarize(ms.ring);
    }
  }
  return out;
}

void QualityMonitor::SerializeInto(persist::SnapshotBuilder* builder) const {
  builder->BeginSection(persist::kSecQuality);
  builder->PutU32(1);  // quality section layout version
  builder->PutU64(d_);
  builder->PutU64(probes_);
  builder->PutU64(skipped_);
  builder->PutU64(champion_switches_);
  for (const ColumnState& col : columns_) {
    builder->PutU64(col.holdouts);
    builder->PutU32(static_cast<uint32_t>(col.champion));
    builder->PutU64(col.switches);
    builder->PutU64(col.last_switch_holdout);
    for (const MethodState& ms : col.methods) {
      builder->PutU64(ms.samples);
      builder->PutF64(ms.ewma_abs);
      builder->PutF64(ms.ewma_sq);
      // Ring in logical (oldest -> newest) order; RestoreFrom re-pushes,
      // which reproduces the same multiset and overwrite behavior.
      builder->PutU64(ms.ring.size());
      if (ms.ring.size() < kRing) {
        builder->PutDoubles(ms.ring.data(), ms.ring.size());
      } else {
        builder->PutDoubles(ms.ring.data() + ms.ring_pos,
                            kRing - ms.ring_pos);
        builder->PutDoubles(ms.ring.data(), ms.ring_pos);
      }
    }
  }
}

Status QualityMonitor::RestoreFrom(persist::SectionReader* reader) {
  const uint32_t version = reader->U32();
  if (reader->ok() && version != 1) {
    return Status::InvalidArgument(
        "quality snapshot: unsupported section version " +
        std::to_string(version));
  }
  const uint64_t d = reader->U64();
  if (reader->ok() && d != d_) {
    return Status::InvalidArgument(
        "quality snapshot: monitored-column mismatch");
  }
  probes_ = reader->U64();
  skipped_ = reader->U64();
  champion_switches_ = reader->U64();
  for (ColumnState& col : columns_) {
    col.holdouts = reader->U64();
    const uint32_t champion = reader->U32();
    col.switches = reader->U64();
    col.last_switch_holdout = reader->U64();
    if (reader->ok() && champion >= kQualityMethods) {
      return Status::InvalidArgument("quality snapshot: bad champion");
    }
    col.champion = static_cast<int>(champion);
    for (MethodState& ms : col.methods) {
      ms.samples = reader->U64();
      ms.ewma_abs = reader->F64();
      ms.ewma_sq = reader->F64();
      const uint64_t ring_n = reader->U64();
      if (reader->ok() && ring_n > kRing) {
        return Status::InvalidArgument("quality snapshot: ring overflow");
      }
      if (!reader->ok()) return reader->status();
      ms.ring.assign(ring_n, 0.0);
      reader->Doubles(ms.ring.data(), ring_n);
      ms.ring_pos = static_cast<size_t>(ring_n) % kRing;
    }
  }
  return reader->status();
}

}  // namespace iim::stream
