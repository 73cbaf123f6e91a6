#include "eval/injector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "neighbors/kdtree.h"

namespace iim::eval {

Status InjectMissing(data::Table* table, data::MissingMask* mask,
                     const InjectOptions& options, Rng* rng) {
  size_t n = table->NumRows(), m = table->NumCols();
  if (n == 0) return Status::InvalidArgument("InjectMissing: empty table");
  if (mask->num_rows() != n || mask->num_cols() != m) {
    return Status::InvalidArgument("InjectMissing: mask shape mismatch");
  }
  if (options.fixed_attr >= static_cast<int>(m)) {
    return Status::InvalidArgument("InjectMissing: fixed_attr out of range");
  }
  if (options.cluster_size == 0) {
    return Status::InvalidArgument("InjectMissing: cluster_size must be >=1");
  }

  size_t want = options.tuple_count > 0
                    ? options.tuple_count
                    : static_cast<size_t>(std::llround(
                          options.tuple_fraction * static_cast<double>(n)));
  want = std::min(want, n);
  if (want == 0) return Status::OK();

  // Neighbor index for clustered injection, built over a pristine snapshot
  // so already-injected NaN cells cannot poison the distances.
  data::Table pristine;
  std::unique_ptr<neighbors::NeighborIndex> index;
  std::vector<int> all_cols;
  if (options.cluster_size > 1) {
    pristine = *table;
    for (size_t c = 0; c < m; ++c) all_cols.push_back(static_cast<int>(c));
    index = std::make_unique<neighbors::KdTreeIndex>(&pristine, all_cols);
  }

  auto mark = [&](size_t row, int attr) {
    if (mask->RowHasMissing(row)) return false;
    double truth = table->At(row, static_cast<size_t>(attr));
    mask->Mark(row, attr, truth);
    table->Set(row, static_cast<size_t>(attr),
               std::numeric_limits<double>::quiet_NaN());
    return true;
  };

  std::vector<size_t> victims = rng->SampleWithoutReplacement(n, n);
  size_t injected = 0;
  for (size_t seed_row : victims) {
    if (injected >= want) break;
    if (mask->RowHasMissing(seed_row)) continue;
    int attr = options.fixed_attr >= 0
                   ? options.fixed_attr
                   : static_cast<int>(
                         rng->UniformInt(0, static_cast<int64_t>(m - 1)));
    // Cluster members share the seed's attribute; they are the seed's
    // nearest (still complete) neighbors, so the region loses all its
    // complete tuples at once.
    if (!mark(seed_row, attr)) continue;
    ++injected;
    if (options.cluster_size > 1 && injected < want) {
      neighbors::QueryOptions qopt;
      // Over-fetch: some neighbors may already be incomplete.
      qopt.k = options.cluster_size * 2 + 8;
      qopt.exclude = seed_row;
      size_t added = 1;
      for (const auto& nb : index->Query(pristine.Row(seed_row), qopt)) {
        if (added >= options.cluster_size || injected >= want) break;
        if (mark(nb.index, attr)) {
          ++added;
          ++injected;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace iim::eval
