#include "baselines/knn_imputer.h"

namespace iim::baselines {

Status KnnImputer::FitImpl() {
  if (k_ == 0) return Status::InvalidArgument("kNN: k must be positive");
  index_ = std::make_unique<neighbors::KdTreeIndex>(&table(), features());
  return Status::OK();
}

Result<double> KnnImputer::ImputeOne(const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  neighbors::QueryOptions qopt;
  qopt.k = k_;
  std::vector<neighbors::Neighbor> nbrs = index_->Query(tuple, qopt);
  if (nbrs.empty()) {
    return Status::Internal("kNN: no neighbors found");
  }
  double sum = 0.0;
  for (const auto& nb : nbrs) {
    sum += table().At(nb.index, static_cast<size_t>(target()));
  }
  return sum / static_cast<double>(nbrs.size());
}

std::vector<Result<double>> KnnImputer::ImputeBatch(
    const std::vector<data::RowView>& rows) const {
  return ParallelImputeBatch(*this, rows, threads_);
}

}  // namespace iim::baselines
