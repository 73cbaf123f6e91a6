#include "neighbors/distance.h"

#include <cassert>
#include <cmath>

namespace iim::neighbors {

// The summation order is part of the engine's bit-identity contract: four
// independent chains over lanes i % 4, merged pairwise, then the scalar
// tail folded into the lane-0 chain. Keeping the order fixed (and shared
// by the gathered RowView overloads below) is what lets the KD-tree, the
// brute scan and the streaming tail interchange results bitwise. The
// chains carry no cross-iteration dependence, so the compiler is free to
// vectorize the loop body and contract each step into an FMA without any
// reassociation license.
double SquaredL2(const double* a, const double* b, size_t d) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    double d0 = a[i] - b[i];
    double d1 = a[i + 1] - b[i + 1];
    double d2 = a[i + 2] - b[i + 2];
    double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < d; ++i) {
    double dd = a[i] - b[i];
    acc0 += dd * dd;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

namespace {

// SquaredL2 with both sides gathered through a column subset. Mirrors the
// contiguous kernel's blocking and merge order exactly so a distance is
// the same bit pattern whether the coordinates were pre-gathered or not.
double SquaredL2Gather(const data::RowView& a, const data::RowView& b,
                       const std::vector<int>& cols) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t d = cols.size();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    size_t c0 = static_cast<size_t>(cols[i]);
    size_t c1 = static_cast<size_t>(cols[i + 1]);
    size_t c2 = static_cast<size_t>(cols[i + 2]);
    size_t c3 = static_cast<size_t>(cols[i + 3]);
    double d0 = a[c0] - b[c0];
    double d1 = a[c1] - b[c1];
    double d2 = a[c2] - b[c2];
    double d3 = a[c3] - b[c3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < d; ++i) {
    size_t c = static_cast<size_t>(cols[i]);
    double dd = a[c] - b[c];
    acc0 += dd * dd;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

}  // namespace

double NormalizedEuclidean(const data::RowView& a, const data::RowView& b,
                           const std::vector<int>& cols) {
  assert(!cols.empty());
  return DistanceFromSquared(SquaredL2Gather(a, b, cols), cols.size());
}

double NormalizedEuclidean(const std::vector<double>& a,
                           const std::vector<double>& b) {
  assert(a.size() == b.size() && !a.empty());
  return NormalizedEuclidean(a.data(), b.data(), a.size());
}

double NormalizedEuclidean(const double* a, const double* b, size_t d) {
  assert(d > 0);
  return DistanceFromSquared(SquaredL2(a, b, d), d);
}

double Euclidean(const data::RowView& a, const data::RowView& b,
                 const std::vector<int>& cols) {
  return std::sqrt(SquaredL2Gather(a, b, cols));
}

}  // namespace iim::neighbors
