// KD-tree accelerated exact nearest-neighbor search.
//
// FlatKdTree is the tree core: it builds over an n x d row-major point
// buffer and answers bounded top-k, per-point-radius and successor
// searches with distances that match Formula 1 exactly, so swapping it in
// for a brute-force scan never changes results, only speed. KdTreeIndex
// wraps it behind the NeighborIndex contract for a frozen data::Table
// (every batch method's index); stream::DynamicIndex reuses the same core
// over the immutable prefix of its growing buffer. Every bounded kNN
// query of either runs one KnnScan.

#ifndef IIM_NEIGHBORS_KDTREE_H_
#define IIM_NEIGHBORS_KDTREE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "neighbors/distance.h"
#include "neighbors/knn.h"

namespace iim::neighbors {

// Per-row scans over a flat row-major buffer, shared by the KD-tree's
// leaves and the dynamic index's unindexed tail so both apply the same
// test to every row. Each one compares the SquaredL2 sum against a
// squared threshold first (distance.h's conservative SquaredCeiling /
// SquaredFloor) and derives the Formula 1 distance, through
// DistanceFromSquared, only for rows that pass — the same bits a direct
// NormalizedEuclidean call produces. Wants(rd, max_radius) tells the tree
// walk whether a subtree whose box lies at squared distance >= rd (and
// whose rows' radii are all <= max_radius) can still hold a result.

// Bounded top-k into `out`, which starts empty. Candidates that pass
// the ceiling collect unsorted; once 2k have piled up they are cut back to
// the k best in NeighborLess order by selection, and the ceiling tightens
// to the k-th distance. Finish() makes the last cut and sorts, leaving the
// query's result. `alive`, when non-null, skips rows with alive[row] == 0
// (the dynamic index's tombstones).
class KnnScan {
 public:
  KnnScan(const double* points, const double* q, size_t d,
          const QueryOptions& options, std::vector<Neighbor>* out,
          const uint8_t* alive);
  const double* q() const { return q_; }
  bool Wants(double rd, double /*max_radius*/) const { return rd <= ceil_; }
  void Visit(size_t row);
  // Cuts to the k best and sorts them ascending by (distance, index).
  void Finish();

 protected:
  // Keeps a row that passed the ceiling as a candidate.
  void Push(size_t row, double dist);

  const double* points_;
  const double* q_;
  size_t d_;
  size_t k_;
  size_t exclude_;
  std::vector<Neighbor>* out_;
  const uint8_t* alive_;
  double ceil_;  // SquaredCeiling of the k-th distance at the last cut

 private:
  // Selects the k best candidates and tightens the ceiling to the k-th.
  void Cut();
};

// The arrival query: KnnScan plus every row whose distance to q is
// <= radius[row], ties included, appended to `admitters` in visit order.
// A negative radius admits nothing.
class AdmitScan : public KnnScan {
 public:
  AdmitScan(const double* points, const double* q, size_t d,
            const QueryOptions& options, std::vector<Neighbor>* out,
            const uint8_t* alive, const double* radius,
            std::vector<Neighbor>* admitters);
  bool Wants(double rd, double max_radius) const {
    return rd <= ceil_ || rd <= SquaredCeiling(max_radius, d_);
  }
  void Visit(size_t row);

 private:
  const double* radius_;
  std::vector<Neighbor>* admitters_;
};

// The nearest row other than `exclude` ranked strictly after `after` in
// NeighborLess order. found() is false when no row qualifies.
class SuccessorScan {
 public:
  SuccessorScan(const double* points, const double* q, size_t d,
                const Neighbor& after, size_t exclude, const uint8_t* alive);
  const double* q() const { return q_; }
  bool Wants(double rd, double /*max_radius*/) const { return rd <= ceil_; }
  void Visit(size_t row);
  bool found() const { return found_; }
  const Neighbor& best() const { return best_; }

 private:
  const double* points_;
  const double* q_;
  size_t d_;
  Neighbor after_;
  size_t exclude_;
  const uint8_t* alive_;
  double floor_;  // rows below it rank before `after` on distance alone
  double ceil_;   // SquaredCeiling of the best distance so far
  bool found_ = false;
  Neighbor best_{0, 0.0};
};

// Exact KD-tree over a flat row-major buffer of n points of dimension d.
//
// The buffer is NOT retained: Build reads it to place the splits, and every
// scan takes it again. Callers may grow the underlying storage past
// n * d after Build (amortized vector growth, appends) as long as the
// first n * d values are bit-unchanged — this is what gives the dynamic
// index cheap appends without rebuilding on every arrival.
//
// The tree can also carry one radius per point (the dynamic index's
// admission bounds): SetRadii stores each subtree's max radius, and
// RaiseRadius lifts the maxima on one leaf-to-root path. A radius that
// shrinks is never pushed down — the maxima stay high, which costs only
// extra visits — until the next SetRadii.
class FlatKdTree {
 public:
  FlatKdTree() = default;

  void Build(const double* points, size_t n, size_t d);
  void Clear();

  // Number of points covered by the last Build (0 = no tree).
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  // Runs `scan` over every covered point the walk cannot rule out. A
  // subtree is skipped when scan->Wants(rd, max_radius) is false, where rd
  // is the squared sum of q's per-axis distances to the subtree's box (a
  // lower bound on every point's SquaredL2 there) and max_radius the
  // subtree's max radius (+inf before any SetRadii). Near children go
  // first, so a top-k scan tightens its bound early. A scan that skips
  // dead rows only shrinks its candidate set, so pruning stays exact.
  template <typename Scan>
  void Walk(Scan* scan) const;

  // Recomputes every subtree's max radius from radius[0 .. size()).
  void SetRadii(const double* radius);
  // Raises the maxima from `row`'s leaf to the root to at least r.
  void RaiseRadius(size_t row, double r);
  // True when every subtree's max radius is >= the radius of each point
  // it holds (the invariant the admitters walk prunes on).
  bool RadiiCovered(const double* radius) const;

 private:
  struct Node {
    int axis = -1;          // split dimension
    double split = 0.0;     // split coordinate
    size_t begin = 0;       // leaf: range into order_
    size_t end = 0;
    int left = -1;          // children as indices into nodes_
    int right = -1;
    bool IsLeaf() const { return left < 0; }
  };

  static constexpr size_t kLeafSize = 16;
  static constexpr size_t kStackDims = 32;

  int BuildRange(const double* points, size_t begin, size_t end, int depth,
                 int parent);
  template <typename Scan>
  void WalkNode(int node_id, double rd, double* off, Scan* scan) const;

  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<size_t> order_;  // point ids, permuted by Build
  std::vector<Node> nodes_;    // children always follow their parent
  std::vector<int> parent_;    // per node; -1 at the root
  std::vector<int> leaf_of_;   // per point: the leaf holding it
  std::vector<double> max_radius_;  // per node; empty before SetRadii
  int root_ = -1;
};

template <typename Scan>
void FlatKdTree::Walk(Scan* scan) const {
  if (root_ < 0) return;
  // Per-axis squared distances from q to the current box; 0 inside it.
  double stack_off[kStackDims] = {};
  std::vector<double> heap_off;
  double* off = stack_off;
  if (d_ > kStackDims) {
    heap_off.assign(d_, 0.0);
    off = heap_off.data();
  }
  WalkNode(root_, 0.0, off, scan);
}

template <typename Scan>
void FlatKdTree::WalkNode(int node_id, double rd, double* off,
                          Scan* scan) const {
  size_t id = static_cast<size_t>(node_id);
  double max_radius = max_radius_.empty()
                          ? std::numeric_limits<double>::infinity()
                          : max_radius_[id];
  if (!scan->Wants(rd, max_radius)) return;
  const Node& node = nodes_[id];
  if (node.IsLeaf()) {
    for (size_t i = node.begin; i < node.end; ++i) scan->Visit(order_[i]);
    return;
  }
  size_t axis = static_cast<size_t>(node.axis);
  double delta = scan->q()[axis] - node.split;
  int near = delta <= 0.0 ? node.left : node.right;
  int far = delta <= 0.0 ? node.right : node.left;
  WalkNode(near, rd, off, scan);
  // The far box lies at least |delta| away along the split axis (every
  // point there sits on the split plane or beyond it, and rounding is
  // monotone, so each point's computed squared term is >= delta * delta).
  // Swapping that axis's term into the running sum gives the box's
  // distance; the scans' squared thresholds carry the slack for the
  // rounding of this running sum.
  double saved = off[axis];
  off[axis] = delta * delta;
  WalkNode(far, rd - saved + off[axis], off, scan);
  off[axis] = saved;
}

// NeighborIndex over a frozen table, tree-accelerated. Same contract and
// bit-identical results as BruteForceIndex, the oracle the tests compare
// it against.
class KdTreeIndex final : public NeighborIndex {
 public:
  KdTreeIndex(const data::Table* table, std::vector<int> cols);

  std::vector<Neighbor> Query(const data::RowView& query,
                              const QueryOptions& options) const override;
  // Falls back to a full scan: a sorted list of *all* points cannot beat
  // O(n log n) anyway.
  std::vector<Neighbor> QueryAll(const data::RowView& query,
                                 size_t exclude) const override;
  size_t size() const override { return tree_.size(); }

 private:
  std::vector<int> cols_;
  std::vector<double> points_;  // row-major size() x cols_.size()
  FlatKdTree tree_;
};

}  // namespace iim::neighbors

#endif  // IIM_NEIGHBORS_KDTREE_H_
