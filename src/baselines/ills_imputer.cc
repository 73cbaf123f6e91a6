#include "baselines/ills_imputer.h"

#include "linalg/cholesky.h"

namespace iim::baselines {

Status IllsImputer::FitImpl() {
  if (k_ == 0) return Status::InvalidArgument("ILLS: k must be positive");
  index_ = std::make_unique<neighbors::KdTreeIndex>(&table(), features());
  return Status::OK();
}

Result<double> IllsImputer::ImputeOne(const data::RowView& tuple) const {
  RETURN_IF_ERROR(CheckReady(tuple));
  neighbors::QueryOptions qopt;
  qopt.k = std::max<size_t>(k_, 2);
  std::vector<neighbors::Neighbor> nbrs = index_->Query(tuple, qopt);
  if (nbrs.empty()) return Status::Internal("ILLS: no neighbors");
  size_t k = nbrs.size(), q = features().size();

  // Solve min_w || B^T w - b ||^2 (+ ridge), B = k x |F| neighbor features,
  // b = the tuple's F vector. The k x k normal equations are B B^T w = B b.
  linalg::Matrix b_mat(k, q);
  linalg::Vector y(k);
  for (size_t i = 0; i < k; ++i) {
    data::RowView row = table().Row(nbrs[i].index);
    for (size_t j = 0; j < q; ++j) {
      b_mat(i, j) = row[static_cast<size_t>(features()[j])];
    }
    y[i] = row[static_cast<size_t>(target())];
  }
  std::vector<double> b = FeatureVector(tuple);

  linalg::Matrix bbt(k, k);
  linalg::Vector bb(k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i; j < k; ++j) {
      double acc = 0.0;
      for (size_t d = 0; d < q; ++d) acc += b_mat(i, d) * b_mat(j, d);
      bbt(i, j) = bbt(j, i) = acc;
    }
    double acc = 0.0;
    for (size_t d = 0; d < q; ++d) acc += b_mat(i, d) * b[d];
    bb[i] = acc;
  }
  // The system is underdetermined when k > |F|; the ridge selects the
  // minimum-norm-ish combination.
  bbt.AddScaledIdentity(1e-6 + 1e-9 * bbt(0, 0));
  linalg::Vector w;
  RETURN_IF_ERROR(linalg::CholeskySolve(bbt, bb, &w));

  double value = 0.0;
  for (size_t i = 0; i < k; ++i) value += w[i] * y[i];
  return value;
}

}  // namespace iim::baselines
