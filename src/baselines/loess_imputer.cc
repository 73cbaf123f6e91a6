#include "baselines/loess_imputer.h"

#include <algorithm>

#include "regress/loess.h"

namespace iim::baselines {

Status LoessImputer::FitImpl() {
  if (k_ == 0) return Status::InvalidArgument("LOESS: k must be positive");
  index_ = std::make_unique<neighbors::KdTreeIndex>(&table(), features());
  return Status::OK();
}

Result<double> LoessImputer::ImputeOne(const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  neighbors::QueryOptions qopt;
  // A linear fit in |F| dimensions needs at least |F|+1 points; widen the
  // window if the configured k is too small.
  qopt.k = std::max(k_, features().size() + 2);
  std::vector<neighbors::Neighbor> nbrs = index_->Query(tuple, qopt);
  if (nbrs.empty()) return Status::Internal("LOESS: no neighbors");

  linalg::Matrix x(nbrs.size(), features().size());
  linalg::Vector y(nbrs.size()), dist(nbrs.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    data::RowView row = table().Row(nbrs[i].index);
    for (size_t j = 0; j < features().size(); ++j) {
      x(i, j) = row[static_cast<size_t>(features()[j])];
    }
    y[i] = row[static_cast<size_t>(target())];
    dist[i] = nbrs[i].distance;
  }
  regress::LoessOptions lopt;
  lopt.alpha = alpha_;
  return regress::LoessPredict(x, y, dist, FeatureVector(tuple), lopt);
}

}  // namespace iim::baselines
