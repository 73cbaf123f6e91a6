#include "common/rng.h"

#include <cassert>
#include <numeric>

namespace iim {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  // A standard draw scaled here, not by the distribution: the standard
  // requires stddev > 0, and callers pass 0 for noise-free data. For
  // stddev > 0 this is bit for bit what normal_distribution(mean, stddev)
  // returns, from the same engine output.
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine_) * stddev + mean;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double u = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  assert(count <= n);
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  // Partial Fisher-Yates: only the first `count` slots need to be finalized.
  for (size_t i = 0; i < count; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n - 1)));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

Rng Rng::Fork() { return Rng(engine_()); }

}  // namespace iim
