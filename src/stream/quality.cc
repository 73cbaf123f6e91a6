#include "stream/quality.h"

#include <cmath>
#include <limits>
#include <utility>

namespace iim::stream {

namespace {

// SplitMix64 of x, its top 53 bits as a uniform double in [0, 1): the
// deterministic per-arrival hash behind holdout sampling. Seeded by
// options.seed so two engines configured alike sample the same arrivals —
// the restore and replay differential tests depend on it.
double UnitHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<double>((x ^ (x >> 31)) >> 11) * 0x1.0p-53;
}

bool IsErrorEstimate(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

const char* QualityMethodName(int method) {
  static const char* const kNames[kQualityMethods] = {"iim", "mean", "knn",
                                                      "glr"};
  return method >= 0 && method < kQualityMethods ? kNames[method]
                                                 : "unknown";
}

QualityMonitor::QualityMonitor(const core::IimOptions& options, size_t q,
                               baselines::StreamingRidgeFit::RowSource rows)
    : options_(options),
      rows_(std::move(rows)),
      ridge_fit_(q, options.alpha) {}

bool QualityMonitor::Sampled(uint64_t arrival) const {
  const double rate = options_.moo_sample_rate;
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  return UnitHash(options_.seed ^ arrival) < rate;
}

void QualityMonitor::Record(const QualityAnswers& answers, double truth) {
  stats_.reset();
  ++probes_;
  const double lambda = options_.moo_decay;
  for (size_t m = 0; m < kQualityMethods; ++m) {
    if (!answers[m]) continue;
    const double err = std::fabs(*answers[m] - truth);
    MethodState& ms = methods_[m];
    if (ms.samples == 0) {
      ms.ewma_abs = err;
      ms.ewma_sq = err * err;
    } else {
      ms.ewma_abs = (1.0 - lambda) * ms.ewma_abs + lambda * err;
      ms.ewma_sq = (1.0 - lambda) * ms.ewma_sq + lambda * err * err;
    }
    ++ms.samples;
    if (ms.ring.size() == kRing) ms.ring.erase(ms.ring.begin());
    ms.ring.push_back(err);
  }
  UpdateChampion();
}

void QualityMonitor::UpdateChampion() {
  int best = -1;
  double best_sq = std::numeric_limits<double>::infinity();
  for (int m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = methods_[static_cast<size_t>(m)];
    if (ms.samples < options_.moo_min_samples) continue;
    if (ms.ewma_sq < best_sq) {
      best_sq = ms.ewma_sq;
      best = m;
    }
  }
  if (best < 0 || best == champion_) return;
  const MethodState& champ = methods_[static_cast<size_t>(champion_)];
  const double champ_sq = champ.samples > 0
                              ? champ.ewma_sq
                              : std::numeric_limits<double>::infinity();
  // Hysteresis: a challenger must beat the incumbent by the margin, not
  // merely edge it out, or champions flap on noise.
  if (best_sq < champ_sq * (1.0 - options_.moo_margin)) {
    champion_ = best;
    ++champion_switches_;
    last_switch_probe_ = probes_;
  }
}

int QualityMonitor::Route() const {
  if (options_.quality_routing ==
      core::IimOptions::QualityRouting::kObserveOnly) {
    return kQualityIim;
  }
  // A freshly switched champion has not proven itself yet: serve the
  // MIB-style ensemble until min_samples further probes land.
  if (champion_switches_ > 0 &&
      probes_ - last_switch_probe_ < options_.moo_min_samples) {
    return kQualityEnsemble;
  }
  return champion_;
}

Result<double> QualityMonitor::Serve(int route,
                                     const QualityAnswers& answers) const {
  if (route == kQualityEnsemble) {
    double wsum = 0.0;
    double vsum = 0.0;
    for (size_t m = 0; m < kQualityMethods; ++m) {
      // A method with no error evidence, or no answer, gets no vote.
      if (methods_[m].samples == 0 || !answers[m]) continue;
      const double w = 1.0 / (methods_[m].ewma_sq + 1e-12);
      wsum += w;
      vsum += w * *answers[m];
    }
    if (wsum > 0.0) return vsum / wsum;
    route = kQualityIim;
  }
  const std::optional<double>& v = answers[static_cast<size_t>(route)];
  if (!v) return Status::Unavailable("quality route: no answer to serve");
  return *v;
}

QualityStats QualityMonitor::Stats() const {
  if (stats_) return *stats_;
  QualityStats& s = stats_.emplace();
  s.champion = champion_;
  for (size_t m = 0; m < kQualityMethods; ++m) {
    const MethodState& ms = methods_[m];
    s.samples[m] = ms.samples;
    s.ewma_abs[m] = ms.ewma_abs;
    s.ewma_rms[m] = std::sqrt(ms.ewma_sq);
    s.abs_error[m] = Summarize(ms.ring);
  }
  return s;
}

void QualityMonitor::SerializeInto(persist::SnapshotBuilder* builder) const {
  builder->BeginSection(persist::kSecQuality);
  builder->PutU32(2);  // quality section layout version
  builder->PutU64(probes_);
  builder->PutU64(skipped_);
  builder->PutU64(champion_switches_);
  builder->PutU32(static_cast<uint32_t>(champion_));
  builder->PutU64(last_switch_probe_);
  for (const MethodState& ms : methods_) {
    builder->PutU64(ms.samples);
    builder->PutF64(ms.ewma_abs);
    builder->PutF64(ms.ewma_sq);
    builder->PutU64(ms.ring.size());
    builder->PutDoubles(ms.ring.data(), ms.ring.size());
  }
}

Status QualityMonitor::RestoreFrom(persist::SectionReader* reader) {
  stats_.reset();
  const uint32_t version = reader->U32();
  if (reader->ok() && version != 2) {
    return Status::InvalidArgument("quality snapshot: unsupported layout");
  }
  probes_ = reader->U64();
  skipped_ = reader->U64();
  champion_switches_ = reader->U64();
  const uint32_t champion = reader->U32();
  last_switch_probe_ = reader->U64();
  if (reader->ok() && champion >= kQualityMethods) {
    return Status::InvalidArgument("quality snapshot: bad champion");
  }
  champion_ = static_cast<int>(champion);
  for (MethodState& ms : methods_) {
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
    if (!reader->ok()) return reader->status();
    // Decayed means of absolute and squared errors, and the absolute
    // errors themselves: a negative or non-finite one would turn the
    // ensemble's inverse-error weights into inf or NaN.
    bool sane = IsErrorEstimate(ms.ewma_abs) && IsErrorEstimate(ms.ewma_sq);
    for (double e : ms.ring) sane = sane && IsErrorEstimate(e);
    if (!sane) {
      return Status::InvalidArgument(
          "quality snapshot: negative or non-finite error estimate");
    }
  }
  return reader->status();
}

}  // namespace iim::stream
