#include "neighbors/kdtree.h"

#include <algorithm>
#include <cmath>

#include "neighbors/distance.h"

namespace iim::neighbors {

KnnScan::KnnScan(const double* points, const double* q, size_t d,
                 const QueryOptions& options, std::vector<Neighbor>* out,
                 const uint8_t* alive)
    : points_(points),
      q_(q),
      d_(d),
      k_(options.k),
      exclude_(options.exclude),
      out_(out),
      alive_(alive),
      ceil_(k_ == 0 ? -1.0 : std::numeric_limits<double>::infinity()) {}

void KnnScan::Push(size_t row, double dist) {
  out_->push_back(Neighbor{row, dist});
  // Written as a halving so that no k, however large, overflows 2k.
  if (out_->size() / 2 == k_) Cut();
}

void KnnScan::Cut() {
  // The k best in NeighborLess order are the same set in whatever order
  // the candidates arrived, so cuts change how early the ceiling
  // tightens, never the result.
  std::nth_element(out_->begin(), out_->begin() + static_cast<long>(k_ - 1),
                   out_->end(), NeighborLess);
  out_->resize(k_);
  ceil_ = SquaredCeiling(out_->back().distance, d_);
}

void KnnScan::Finish() {
  if (out_->size() > k_) Cut();
  std::sort(out_->begin(), out_->end(), NeighborLess);
}

void KnnScan::Visit(size_t row) {
  if (row == exclude_ || (alive_ != nullptr && alive_[row] == 0)) return;
  double sq = SquaredL2(q_, points_ + row * d_, d_);
  // A row past the ceiling is strictly farther than the k-th kept
  // neighbor, so it cannot displace it even on the slot tie-break.
  if (sq > ceil_) return;
  Push(row, DistanceFromSquared(sq, d_));
}

AdmitScan::AdmitScan(const double* points, const double* q, size_t d,
                     const QueryOptions& options,
                     std::vector<Neighbor>* out, const uint8_t* alive,
                     const double* radius, std::vector<Neighbor>* admitters)
    : KnnScan(points, q, d, options, out, alive),
      radius_(radius),
      admitters_(admitters) {}

void AdmitScan::Visit(size_t row) {
  if (alive_ != nullptr && alive_[row] == 0) return;
  double sq = SquaredL2(q_, points_ + row * d_, d_);
  bool knn = row != exclude_ && sq <= ceil_;
  double r = radius_[row];
  bool admit = sq <= SquaredCeiling(r, d_);
  if (!knn && !admit) return;
  double dist = DistanceFromSquared(sq, d_);
  if (admit && dist <= r) admitters_->push_back(Neighbor{row, dist});
  if (knn) Push(row, dist);
}

SuccessorScan::SuccessorScan(const double* points, const double* q, size_t d,
                             const Neighbor& after, size_t exclude,
                             const uint8_t* alive)
    : points_(points),
      q_(q),
      d_(d),
      after_(after),
      exclude_(exclude),
      alive_(alive),
      floor_(SquaredFloor(after.distance, d)),
      ceil_(std::numeric_limits<double>::infinity()) {}

void SuccessorScan::Visit(size_t row) {
  if (row == exclude_ || (alive_ != nullptr && alive_[row] == 0)) return;
  double sq = SquaredL2(q_, points_ + row * d_, d_);
  if (sq < floor_ || sq > ceil_) return;
  Neighbor cand{row, DistanceFromSquared(sq, d_)};
  if (!NeighborLess(after_, cand)) return;  // ranked at or before `after`
  if (found_ && !NeighborLess(cand, best_)) return;
  best_ = cand;
  found_ = true;
  ceil_ = SquaredCeiling(cand.distance, d_);
}

void FlatKdTree::Clear() {
  n_ = 0;
  d_ = 0;
  order_.clear();
  nodes_.clear();
  parent_.clear();
  leaf_of_.clear();
  max_radius_.clear();
  root_ = -1;
}

void FlatKdTree::Build(const double* points, size_t n, size_t d) {
  Clear();
  n_ = n;
  d_ = d;
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  leaf_of_.resize(n);
  nodes_.reserve(n / kLeafSize * 2 + 1);
  parent_.reserve(n / kLeafSize * 2 + 1);
  if (n > 0) root_ = BuildRange(points, 0, n, 0, -1);
}

int FlatKdTree::BuildRange(const double* points, size_t begin, size_t end,
                           int depth, int parent) {
  Node node;
  if (end - begin <= kLeafSize) {
    node.begin = begin;
    node.end = end;
    nodes_.push_back(node);
    parent_.push_back(parent);
    int id = static_cast<int>(nodes_.size() - 1);
    for (size_t i = begin; i < end; ++i) leaf_of_[order_[i]] = id;
    return id;
  }
  // Split on the axis with the largest spread in this range.
  int best_axis = depth % static_cast<int>(d_);
  double best_spread = -1.0;
  for (size_t d = 0; d < d_; ++d) {
    double lo = points[order_[begin] * d_ + d], hi = lo;
    for (size_t i = begin + 1; i < end; ++i) {
      double v = points[order_[i] * d_ + d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = static_cast<int>(d);
    }
  }
  size_t mid = begin + (end - begin) / 2;
  size_t axis = static_cast<size_t>(best_axis);
  std::nth_element(order_.begin() + static_cast<long>(begin),
                   order_.begin() + static_cast<long>(mid),
                   order_.begin() + static_cast<long>(end),
                   [points, this, axis](size_t a, size_t b) {
                     return points[a * d_ + axis] < points[b * d_ + axis];
                   });
  node.axis = best_axis;
  node.split = points[order_[mid] * d_ + axis];
  nodes_.push_back(node);
  parent_.push_back(parent);
  int id = static_cast<int>(nodes_.size() - 1);
  int left = BuildRange(points, begin, mid, depth + 1, id);
  int right = BuildRange(points, mid, end, depth + 1, id);
  nodes_[static_cast<size_t>(id)].left = left;
  nodes_[static_cast<size_t>(id)].right = right;
  return id;
}

void FlatKdTree::SetRadii(const double* radius) {
  max_radius_.assign(nodes_.size(), -std::numeric_limits<double>::infinity());
  // Children follow their parent in nodes_, so one reverse pass sees every
  // child before its parent.
  for (size_t v = nodes_.size(); v-- > 0;) {
    const Node& node = nodes_[v];
    double m = -std::numeric_limits<double>::infinity();
    if (node.IsLeaf()) {
      for (size_t i = node.begin; i < node.end; ++i) {
        m = std::max(m, radius[order_[i]]);
      }
    } else {
      m = std::max(max_radius_[static_cast<size_t>(node.left)],
                   max_radius_[static_cast<size_t>(node.right)]);
    }
    max_radius_[v] = m;
  }
}

void FlatKdTree::RaiseRadius(size_t row, double r) {
  if (row >= n_ || max_radius_.empty()) return;
  // An ancestor's max is >= its descendants', so the climb stops at the
  // first node that already covers r.
  for (int v = leaf_of_[row]; v >= 0 && max_radius_[static_cast<size_t>(v)] < r;
       v = parent_[static_cast<size_t>(v)]) {
    max_radius_[static_cast<size_t>(v)] = r;
  }
}

bool FlatKdTree::RadiiCovered(const double* radius) const {
  if (max_radius_.empty()) return true;  // the walk reads +inf
  for (size_t v = 0; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    if (node.IsLeaf()) {
      for (size_t i = node.begin; i < node.end; ++i) {
        if (radius[order_[i]] > max_radius_[v]) return false;
      }
    } else if (max_radius_[static_cast<size_t>(node.left)] > max_radius_[v] ||
               max_radius_[static_cast<size_t>(node.right)] > max_radius_[v]) {
      return false;
    }
  }
  return true;
}

KdTreeIndex::KdTreeIndex(const data::Table* table, std::vector<int> cols)
    : cols_(std::move(cols)) {
  // Points are stored unscaled and leaf distances are computed with the
  // exact NormalizedEuclidean used by BruteForceIndex, so the two indexes
  // produce bitwise-identical results (including distance ties).
  size_t n = table->NumRows();
  size_t d = cols_.size();
  points_.resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    data::RowView row = table->Row(i);
    for (size_t j = 0; j < d; ++j) {
      points_[i * d + j] = row[static_cast<size_t>(cols_[j])];
    }
  }
  tree_.Build(points_.data(), n, d);
}

std::vector<Neighbor> KdTreeIndex::Query(const data::RowView& query,
                                         const QueryOptions& options) const {
  std::vector<Neighbor> out;
  if (tree_.empty() || options.k == 0) return out;
  std::vector<double> q = query.Gather(cols_);
  KnnScan scan(points_.data(), q.data(), cols_.size(), options, &out,
               nullptr);
  tree_.Walk(&scan);
  scan.Finish();
  return out;
}

std::vector<Neighbor> KdTreeIndex::QueryAll(const data::RowView& query,
                                            size_t exclude) const {
  std::vector<double> q = query.Gather(cols_);
  size_t n = tree_.size();
  size_t d = cols_.size();
  std::vector<Neighbor> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    out.push_back(
        Neighbor{i, NormalizedEuclidean(q.data(), points_.data() + i * d, d)});
  }
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

}  // namespace iim::neighbors
