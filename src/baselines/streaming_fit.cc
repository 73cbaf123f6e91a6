#include "baselines/streaming_fit.h"

namespace iim::baselines {

void StreamingMeanFit::Add(double y) {
  sum_ += y;
  ++rows_;
}

void StreamingMeanFit::Remove(double y) {
  sum_ -= y;
  --rows_;
  // An emptied window restarts the sum exactly at zero so a long
  // add/remove history cannot leave drift behind.
  if (rows_ == 0) sum_ = 0.0;
}

Result<double> StreamingMeanFit::Mean() const {
  if (rows_ == 0) {
    return Status::NotFound("streaming mean: no rows fitted");
  }
  return sum_ / static_cast<double>(rows_);
}

void StreamingRidgeFit::Add(const double* x, double y) {
  // A fit pending a restream is rebuilt from scratch anyway.
  if (!needs_restream_) acc_.AddRow(x, y);
  model_valid_ = false;
  ++rows_;
}

void StreamingRidgeFit::Remove(const double* x, double y) {
  if (!needs_restream_ && !acc_.RemoveRow(x, y)) needs_restream_ = true;
  model_valid_ = false;
  --rows_;
}

Result<const regress::LinearModel*> StreamingRidgeFit::Model(
    const RowSource& source) {
  if (rows_ == 0) {
    return Status::NotFound("streaming ridge: no rows fitted");
  }
  if (needs_restream_) {
    acc_.Reset();
    source([this](const double* x, double y) { acc_.AddRow(x, y); });
    needs_restream_ = false;
    ++restreams_;
  }
  if (!model_valid_) {
    auto solved = acc_.Solve(alpha_);
    if (!solved.ok()) return solved.status();
    model_ = std::move(solved).value();
    model_valid_ = true;
  }
  return &model_;
}

}  // namespace iim::baselines
