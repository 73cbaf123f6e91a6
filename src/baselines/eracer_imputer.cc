#include "baselines/eracer_imputer.h"

#include "regress/ridge.h"

namespace iim::baselines {

Status EracerImputer::FitImpl() {
  if (k_ == 0) return Status::InvalidArgument("ERACER: k must be positive");
  index_ = std::make_unique<neighbors::KdTreeIndex>(&table(), features());

  size_t n = table().NumRows(), q = features().size();
  linalg::Matrix x(n, q + 1);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    data::RowView row = table().Row(i);
    for (size_t j = 0; j < q; ++j) {
      x(i, j) = row[static_cast<size_t>(features()[j])];
    }
    // Training aggregates exclude the tuple itself, else the regression
    // would learn to copy leaked self-information.
    x(i, q) = NeighborAverage(row, i);
    y[i] = row[static_cast<size_t>(target())];
  }
  regress::RidgeOptions ropt;
  ropt.alpha = alpha_;
  ASSIGN_OR_RETURN(model_, regress::FitRidge(x, y, ropt));
  return Status::OK();
}

double EracerImputer::NeighborAverage(const data::RowView& tuple,
                                      size_t exclude) const {
  neighbors::QueryOptions qopt;
  qopt.k = k_;
  qopt.exclude = exclude;
  std::vector<neighbors::Neighbor> nbrs = index_->Query(tuple, qopt);
  if (nbrs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& nb : nbrs) {
    sum += table().At(nb.index, static_cast<size_t>(target()));
  }
  return sum / static_cast<double>(nbrs.size());
}

Result<double> EracerImputer::ImputeOne(const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  std::vector<double> x = FeatureVector(tuple);
  x.push_back(
      NeighborAverage(tuple, neighbors::QueryOptions::kNoExclusion));
  return model_.Predict(x);
}

}  // namespace iim::baselines
