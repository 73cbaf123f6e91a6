#include "core/iim_imputer.h"

#include <cmath>

#include "common/stopwatch.h"

namespace iim::core {

Status IimImputer::FitImpl() {
  if (options_.k == 0) {
    return Status::InvalidArgument("IIM: k must be positive");
  }
  index_ = std::make_unique<neighbors::KdTreeIndex>(&table(), features());
  Stopwatch timer;
  if (options_.adaptive) {
    ASSIGN_OR_RETURN(models_,
                     IndividualModels::LearnAdaptive(
                         table(), target(), features(), *index_, options_,
                         &adaptive_stats_));
  } else {
    ASSIGN_OR_RETURN(models_, IndividualModels::Learn(table(), target(),
                                                      features(), *index_,
                                                      options_));
  }
  learning_seconds_ = timer.ElapsedSeconds();
  return Status::OK();
}

Result<std::vector<double>> IimImputer::Candidates(
    const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  neighbors::QueryOptions qopt;
  qopt.k = options_.k;
  std::vector<neighbors::Neighbor> nbrs = index_->Query(tuple, qopt);
  if (nbrs.empty()) return Status::Internal("IIM: no imputation neighbors");
  std::vector<double> x = FeatureVector(tuple);
  std::vector<double> candidates;
  candidates.reserve(nbrs.size());
  for (const auto& nb : nbrs) {
    // Formula 9: t_x^j[Am] = (1, t_x[F]) phi_j.
    candidates.push_back(models_.model(nb.index).Predict(x));
  }
  return candidates;
}

Result<double> IimImputer::ImputeOne(const data::RowView& tuple) const {
  ASSIGN_OR_RETURN(std::vector<double> candidates, Candidates(tuple));
  return CombineCandidates(candidates, options_.uniform_weights);
}

std::vector<Result<double>> IimImputer::ImputeBatch(
    const std::vector<data::RowView>& rows) const {
  return baselines::ParallelImputeBatch(*this, rows, options_.threads);
}

Result<ImputationDistribution> IimImputer::ImputeDistribution(
    const data::RowView& tuple) const {
  ASSIGN_OR_RETURN(std::vector<double> candidates, Candidates(tuple));
  size_t k = candidates.size();
  std::vector<double> weights(k, 1.0);
  if (!options_.uniform_weights && k > 1) {
    // Formula 11-12 weights; when all candidates agree the distances are
    // all zero and the distribution collapses to uniform (same value).
    weights = ComputeCandidateVotes(candidates).weights;
  }
  return ImputationDistribution::Make(std::move(candidates),
                                      std::move(weights));
}

CandidateVotes ComputeCandidateVotes(const std::vector<double>& candidates) {
  size_t k = candidates.size();
  CandidateVotes votes;
  votes.weights.assign(k, 1.0);
  // Formula 11: c_xi = sum_j |t_x^i - t_x^j|.
  std::vector<double> c(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      c[i] += std::fabs(candidates[i] - candidates[j]);
    }
  }
  double max_c = 0.0;
  for (double v : c) max_c = std::max(max_c, v);
  if (max_c < 1e-12) {
    votes.degenerate = true;
    return votes;
  }
  // Formula 12: w_xi proportional to c_xi^{-1} (unnormalized here; the
  // guard keeps exact-duplicate candidates from dividing by zero).
  for (size_t i = 0; i < k; ++i) {
    votes.weights[i] = 1.0 / std::max(c[i], 1e-12);
  }
  return votes;
}

Result<double> CombineCandidates(const std::vector<double>& candidates,
                                 bool uniform) {
  if (candidates.empty()) {
    return Status::InvalidArgument("CombineCandidates: no candidates");
  }
  size_t k = candidates.size();
  if (uniform || k == 1) {
    double sum = 0.0;
    for (double c : candidates) sum += c;
    return sum / static_cast<double>(k);
  }
  CandidateVotes votes = ComputeCandidateVotes(candidates);
  // If every candidate agrees, the aggregation is that common value.
  if (votes.degenerate) return candidates[0];
  double denom = 0.0;
  for (double w : votes.weights) denom += w;
  double value = 0.0;
  for (size_t i = 0; i < k; ++i) {
    value += (votes.weights[i] / denom) * candidates[i];
  }
  return value;
}

}  // namespace iim::core
