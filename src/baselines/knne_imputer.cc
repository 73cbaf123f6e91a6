#include "baselines/knne_imputer.h"

namespace iim::baselines {

Status KnneImputer::FitImpl() {
  if (k_ == 0) return Status::InvalidArgument("kNNE: k must be positive");
  indexes_.clear();
  // The full feature set plus each leave-one-out subset (when |F| > 1).
  indexes_.push_back(
      std::make_unique<neighbors::KdTreeIndex>(&table(), features()));
  if (features().size() > 1) {
    for (size_t drop = 0; drop < features().size(); ++drop) {
      std::vector<int> subset;
      subset.reserve(features().size() - 1);
      for (size_t i = 0; i < features().size(); ++i) {
        if (i != drop) subset.push_back(features()[i]);
      }
      indexes_.push_back(std::make_unique<neighbors::KdTreeIndex>(
          &table(), std::move(subset)));
    }
  }
  return Status::OK();
}

Result<double> KnneImputer::ImputeOne(const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  neighbors::QueryOptions qopt;
  qopt.k = k_;
  double ensemble_sum = 0.0;
  size_t groups = 0;
  for (const auto& index : indexes_) {
    std::vector<neighbors::Neighbor> nbrs = index->Query(tuple, qopt);
    if (nbrs.empty()) continue;
    double sum = 0.0;
    for (const auto& nb : nbrs) {
      sum += table().At(nb.index, static_cast<size_t>(target()));
    }
    ensemble_sum += sum / static_cast<double>(nbrs.size());
    ++groups;
  }
  if (groups == 0) return Status::Internal("kNNE: no neighbor groups");
  return ensemble_sum / static_cast<double>(groups);
}

}  // namespace iim::baselines
