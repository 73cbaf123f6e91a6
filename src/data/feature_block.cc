#include "data/feature_block.h"

namespace iim::data {

FeatureBlock FeatureBlock::Build(const Table& r, int target,
                                 const std::vector<int>& features) {
  FeatureBlock fb;
  fb.n_ = r.NumRows();
  fb.q_ = features.size();
  fb.x_.resize(fb.n_ * fb.q_);
  fb.y_.resize(fb.n_);
  for (size_t i = 0; i < fb.n_; ++i) {
    RowView row = r.Row(i);
    double* out = fb.x_.data() + i * fb.q_;
    for (size_t j = 0; j < fb.q_; ++j) {
      out[j] = row[static_cast<size_t>(features[j])];
    }
    fb.y_[i] = row[static_cast<size_t>(target)];
  }
  return fb;
}

}  // namespace iim::data
