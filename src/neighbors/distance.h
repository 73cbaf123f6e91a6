// Tuple distances on a subset of attributes.
//
// The paper (Formula 1) uses Euclidean distance on the complete attributes
// F normalized by |F|:  d_{x,i} = sqrt( sum_{A in F} (t_x[A]-t_i[A])^2 / |F| ).
//
// All overloads funnel into one blocked squared-L2 kernel (SquaredL2):
// four independent accumulator chains that the compiler can keep in SIMD
// lanes and contract into FMAs, with a fixed summation order. Every call
// form — raw pointers over a gathered point buffer, RowView pairs on a
// column subset — reproduces that exact order, so the KD-tree, the brute
// scan, the dynamic index tail and the streaming maintenance loops all
// agree on every distance bit for bit, ties included.

#ifndef IIM_NEIGHBORS_DISTANCE_H_
#define IIM_NEIGHBORS_DISTANCE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "data/table.h"

namespace iim::neighbors {

// sum_i (a[i] - b[i])^2 over d contiguous values, blocked summation order
// (lanes 0..3 then pairwise lane merge; the shared kernel every distance
// overload reduces to).
double SquaredL2(const double* a, const double* b, size_t d);

// Formula 1 from a SquaredL2 sum over d coordinates. Every NormalizedEuclidean
// overload and every index scan that compares squared sums first goes
// through this one helper, so a distance derived after a squared-sum test
// carries the same bits as one computed directly.
inline double DistanceFromSquared(double sq, size_t d) {
  return std::sqrt(sq / static_cast<double>(d));
}

// Squared-sum thresholds for scans that test SquaredL2 before paying for
// the square root. Both err toward "maybe": the relative slack absorbs the
// rounding of r * r * d against the rounded sqrt(sq / d), and the absolute
// one the underflow of tiny radii, so a point exactly at distance r is
// never rejected by the squared test.
//
// SquaredCeiling(r, d): DistanceFromSquared(sq, d) <= r implies
// sq <= SquaredCeiling(r, d). Negative r admits nothing (-1), infinite r
// everything.
inline double SquaredCeiling(double r, size_t d) {
  if (r < 0.0) return -1.0;
  double b = r * r * static_cast<double>(d);
  return b + b * 1e-12 + 1e-300;
}

// SquaredFloor(r, d): sq < SquaredFloor(r, d) implies
// DistanceFromSquared(sq, d) < r (0 or below when nothing can be ruled
// out that way).
inline double SquaredFloor(double r, size_t d) {
  double b = r * r * static_cast<double>(d);
  if (std::isinf(b)) return b;
  return b - b * 1e-12 - 1e-300;
}

// Formula 1. Attributes listed in `cols`; both rows must be non-NaN there.
double NormalizedEuclidean(const data::RowView& a, const data::RowView& b,
                           const std::vector<int>& cols);

// Same on pre-gathered coordinate vectors (a.size() == b.size()).
double NormalizedEuclidean(const std::vector<double>& a,
                           const std::vector<double>& b);

// Same on d contiguous pre-gathered coordinates (the contiguous index
// fast path). Bit-identical to the vector overload.
double NormalizedEuclidean(const double* a, const double* b, size_t d);

// Plain (unnormalized) Euclidean on `cols`.
double Euclidean(const data::RowView& a, const data::RowView& b,
                 const std::vector<int>& cols);

}  // namespace iim::neighbors

#endif  // IIM_NEIGHBORS_DISTANCE_H_
