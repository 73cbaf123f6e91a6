#include "regress/ridge.h"

#include <cassert>
#include <cmath>
#include <cstdint>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "regress/incremental_ridge.h"

namespace iim::regress {

namespace {

// The Cholesky rung of the ladder on W interleaved systems of dimension m.
// Lane w's U(i, j) is read at u[(i*m + j)*W + w] (lower triangle only),
// V(i) at v[i*W + w]; L is written to l in u's layout and phi to x in v's.
// Every lane performs CholeskyFactor's and BackSubstitute's operations on
// (U + alpha E) in their order (linalg/cholesky.cc): the lane loops only
// interleave independent chains, so each lane's bits are the one-system
// rung's. Returns a bitmask of the lanes whose pivot was <= 0 or
// non-finite (CholeskyFactor's failure test); such a lane continues on a
// unit pivot, so no lane ever takes the square root of a bad value, and
// its L and phi are meaningless. At W == 1 the first failure returns.
template <size_t W>
uint32_t CholeskyLanes(size_t m, double alpha, const double* u,
                       const double* v, double* l, double* x) {
  uint32_t failed = 0;
  for (size_t i = 0; i < m; ++i) {
    const double* li = l + i * m * W;
    for (size_t j = 0; j <= i; ++j) {
      const double* lj = l + j * m * W;
      double sum[W];
      const double* a = u + (i * m + j) * W;
      for (size_t w = 0; w < W; ++w) sum[w] = a[w];
      if (i == j) {
        for (size_t w = 0; w < W; ++w) sum[w] += alpha;
      }
      for (size_t k = 0; k < j; ++k) {
        const double* lik = li + k * W;
        const double* ljk = lj + k * W;
        for (size_t w = 0; w < W; ++w) sum[w] -= lik[w] * ljk[w];
      }
      if (i == j) {
        for (size_t w = 0; w < W; ++w) {
          bool ok = sum[w] > 0.0 && std::isfinite(sum[w]);
          if (!ok) failed |= uint32_t{1} << w;
          sum[w] = std::sqrt(ok ? sum[w] : 1.0);
        }
        if (W == 1 && failed != 0) return failed;
      } else {
        const double* ljj = lj + j * W;
        for (size_t w = 0; w < W; ++w) sum[w] /= ljj[w];
      }
      // Stored from the local array, so the loops above provably read
      // nothing they write and vectorize.
      double* out = l + (i * m + j) * W;
      for (size_t w = 0; w < W; ++w) out[w] = sum[w];
    }
  }
  // Forward substitution L y = V into x, then L^T phi = y in place: phi(i)
  // overwrites y(i) once every phi(k > i) is known.
  for (size_t i = 0; i < m; ++i) {
    double sum[W];
    for (size_t w = 0; w < W; ++w) sum[w] = v[i * W + w];
    const double* li = l + i * m * W;
    for (size_t k = 0; k < i; ++k) {
      for (size_t w = 0; w < W; ++w) sum[w] -= li[k * W + w] * x[k * W + w];
    }
    const double* lii = li + i * W;
    for (size_t w = 0; w < W; ++w) sum[w] /= lii[w];
    for (size_t w = 0; w < W; ++w) x[i * W + w] = sum[w];
  }
  for (size_t ii = m; ii-- > 0;) {
    double sum[W];
    for (size_t w = 0; w < W; ++w) sum[w] = x[ii * W + w];
    for (size_t k = ii + 1; k < m; ++k) {
      const double* lki = l + (k * m + ii) * W;
      for (size_t w = 0; w < W; ++w) sum[w] -= lki[w] * x[k * W + w];
    }
    const double* lii = l + (ii * m + ii) * W;
    for (size_t w = 0; w < W; ++w) sum[w] /= lii[w];
    for (size_t w = 0; w < W; ++w) x[ii * W + w] = sum[w];
  }
  return failed;
}

// The ladder past its Cholesky rung: LU on (U + alpha E), then Cholesky
// on that matrix jittered by 1e-8 (1 + |its (0, 0)|).
Status SolveFallback(linalg::Matrix u, const linalg::Vector& v, double alpha,
                     linalg::Vector* phi) {
  u.AddScaledIdentity(alpha);
  if (linalg::LuSolve(u, v, phi).ok()) return Status::OK();
  u.AddScaledIdentity(1e-8 + 1e-8 * std::fabs(u(0, 0)));
  return linalg::CholeskySolve(u, v, phi);
}

// Factors up to this dimension keep their scratch on the stack.
constexpr size_t kStackDim = 16;

}  // namespace

Result<LinearModel> SolveNormalEquations(const linalg::Matrix& u,
                                         const linalg::Vector& v,
                                         double alpha) {
  const size_t m = u.rows();
  // linalg::CholeskySolve's argument checks, in its order.
  if (v.size() != m) {
    return Status::InvalidArgument("CholeskySolve: size mismatch");
  }
  if (u.cols() != m) {
    return Status::InvalidArgument("Cholesky: matrix not square");
  }
  LinearModel model;
  model.phi.resize(m);
  double stack_l[kStackDim * kStackDim];
  std::vector<double> heap_l;
  double* l = stack_l;
  if (m > kStackDim) {
    heap_l.resize(m * m);
    l = heap_l.data();
  }
  if (CholeskyLanes<1>(m, alpha, u.RowPtr(0), v.data(), l,
                       model.phi.data()) == 0) {
    return model;
  }
  RETURN_IF_ERROR(SolveFallback(u, v, alpha, &model.phi));
  return model;
}

RidgeLanes::RidgeLanes(size_t p)
    : m_(p + 1),
      u_(m_ * m_ * kLanes, 0.0),
      v_(m_ * kLanes, 0.0),
      l_(m_ * m_ * kLanes, 0.0),
      x_(m_ * kLanes, 0.0),
      models_(kLanes) {
  for (LinearModel& model : models_) model.phi.assign(m_, 0.0);
}

void RidgeLanes::Load(size_t lane, const linalg::Matrix& u,
                      const linalg::Vector& v) {
  assert(lane < kLanes && u.rows() == m_ && u.cols() == m_ &&
         v.size() == m_);
  for (size_t i = 0; i < m_; ++i) {
    const double* row = u.RowPtr(i);
    double* out = u_.data() + i * m_ * kLanes + lane;
    for (size_t j = 0; j <= i; ++j) out[j * kLanes] = row[j];
    v_[i * kLanes + lane] = v[i];
  }
}

Status RidgeLanes::Solve(size_t count, double alpha) {
  assert(count <= kLanes);
  // Lanes at or past `count` hold stale (or zero) systems; their solves
  // are discarded, failures included.
  uint32_t failed = CholeskyLanes<kLanes>(m_, alpha, u_.data(), v_.data(),
                                          l_.data(), x_.data()) &
                    ((uint32_t{1} << count) - 1);
  for (size_t w = 0; w < count; ++w) {
    std::vector<double>& phi = models_[w].phi;
    if ((failed >> w & 1u) == 0) {
      for (size_t i = 0; i < m_; ++i) phi[i] = x_[i * kLanes + w];
      continue;
    }
    linalg::Matrix u(m_, m_);
    linalg::Vector v(m_);
    for (size_t i = 0; i < m_; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        u(i, j) = u(j, i) = u_[(i * m_ + j) * kLanes + w];
      }
      v[i] = v_[i * kLanes + w];
    }
    RETURN_IF_ERROR(SolveFallback(std::move(u), v, alpha, &phi));
  }
  return Status::OK();
}

Result<LinearModel> FitRidge(const linalg::Matrix& x, const linalg::Vector& y,
                             const RidgeOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("FitRidge: bad design dimensions");
  }
  IncrementalRidge fold(x.cols());
  for (size_t r = 0; r < x.rows(); ++r) fold.AddRow(x.RowPtr(r), y[r]);
  return fold.Solve(options.alpha);
}

Result<LinearModel> FitRidgeWeighted(const linalg::Matrix& x,
                                     const linalg::Vector& y,
                                     const linalg::Vector& weights,
                                     const RidgeOptions& options) {
  if (x.rows() == 0 || x.rows() != y.size() || weights.size() != y.size()) {
    return Status::InvalidArgument("FitRidgeWeighted: bad dimensions");
  }
  size_t n = x.rows(), p = x.cols();
  linalg::Matrix u(p + 1, p + 1);
  linalg::Vector v(p + 1, 0.0);
  bool any = false;
  for (size_t r = 0; r < n; ++r) {
    double w = weights[r];
    if (w <= 0.0) continue;
    any = true;
    const double* row = x.RowPtr(r);
    u(0, 0) += w;
    v[0] += w * y[r];
    for (size_t i = 0; i < p; ++i) {
      u(0, i + 1) += w * row[i];
      v[i + 1] += w * row[i] * y[r];
      for (size_t j = i; j < p; ++j) u(i + 1, j + 1) += w * row[i] * row[j];
    }
  }
  if (!any) {
    return Status::InvalidArgument("FitRidgeWeighted: all weights are zero");
  }
  for (size_t i = 0; i < p + 1; ++i)
    for (size_t j = 0; j < i; ++j) u(i, j) = u(j, i);
  return SolveNormalEquations(u, v, options.alpha);
}

}  // namespace iim::regress
