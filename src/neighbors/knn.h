// Nearest-neighbor search over a relation on an attribute subset F.
//
// NeighborIndex is the NN(t, F, l) primitive shared by IIM, kNN, kNNE,
// LOESS, ILLS and PMM. Every batch method indexes its relation with
// neighbors/kdtree.h's KdTreeIndex; BruteForceIndex here is the exact
// scan the tests hold every other index to, bit for bit. QueryMany fans
// a batch of queries out over a ThreadPool — this is what the parallel
// learning phase and ImputeBatch drive.

#ifndef IIM_NEIGHBORS_KNN_H_
#define IIM_NEIGHBORS_KNN_H_

#include <vector>

#include "common/thread_pool.h"
#include "data/table.h"

namespace iim::neighbors {

struct Neighbor {
  size_t index;     // row in the indexed table
  double distance;  // Formula 1 distance
};

// The one neighbor ordering every index uses: ascending (distance, index).
// Sharing it keeps brute force, the KD-tree and the dynamic index
// bit-for-bit interchangeable, including on distance ties.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

// Search options: `exclude` removes one row from consideration (used when a
// validation tuple queries its own relation); `k` caps the result size.
struct QueryOptions {
  size_t k = 1;
  // Row index to exclude, or kNoExclusion.
  size_t exclude = kNoExclusion;
  static constexpr size_t kNoExclusion = static_cast<size_t>(-1);
};

// One entry of a QueryMany batch.
struct BatchQuery {
  data::RowView query;
  size_t exclude = QueryOptions::kNoExclusion;
};

class NeighborIndex {
 public:
  virtual ~NeighborIndex() = default;

  // k nearest rows to `query`, ascending by (distance, index). Returns fewer
  // than k results when the indexed table is small, and empty when k == 0.
  virtual std::vector<Neighbor> Query(const data::RowView& query,
                                      const QueryOptions& options) const = 0;

  // All rows sorted ascending by (distance, index) — the full neighbor
  // order used by adaptive learning (every prefix is an NN(t, F, l) set).
  virtual std::vector<Neighbor> QueryAll(const data::RowView& query,
                                         size_t exclude) const = 0;

  // Batched Query: result i answers batch[i]. Queries are independent, so
  // they fan out over `pool` (nullptr or a 1-thread pool runs serially);
  // the output order matches the batch order regardless of thread count.
  std::vector<std::vector<Neighbor>> QueryMany(
      const std::vector<BatchQuery>& batch, size_t k,
      ThreadPool* pool = nullptr) const;

  virtual size_t size() const = 0;
};

// Exact brute-force index. Gathers the F columns of every row into one
// contiguous n x |F| buffer at construction so a query streams dense
// memory instead of striding through the full table rows.
class BruteForceIndex final : public NeighborIndex {
 public:
  // Indexes `table` on attribute subset `cols` (kept by value). The table
  // is only read during construction — the index holds its own snapshot
  // of the gathered columns.
  BruteForceIndex(const data::Table* table, std::vector<int> cols);

  std::vector<Neighbor> Query(const data::RowView& query,
                              const QueryOptions& options) const override;
  std::vector<Neighbor> QueryAll(const data::RowView& query,
                                 size_t exclude) const override;
  // Snapshot size at construction, derived from the gathered point buffer
  // — NOT table_->NumRows(), which can grow after the index is built and
  // would send Scan reading past the end of points_.
  size_t size() const override {
    return cols_.empty() ? 0 : points_.size() / cols_.size();
  }

  const std::vector<int>& cols() const { return cols_; }

 private:
  // Distances from `query` to every non-excluded row, unordered.
  std::vector<Neighbor> Scan(const data::RowView& query,
                             size_t exclude) const;

  std::vector<int> cols_;
  std::vector<double> points_;  // row-major size() x cols_.size()
};

}  // namespace iim::neighbors

#endif  // IIM_NEIGHBORS_KNN_H_
