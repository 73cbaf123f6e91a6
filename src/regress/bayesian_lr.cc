#include "regress/bayesian_lr.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "regress/incremental_ridge.h"

namespace iim::regress {

Result<BayesianDraw> DrawBayesianLinearModel(const linalg::Matrix& x,
                                             const linalg::Vector& y,
                                             Rng* rng, double alpha) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument(
        "DrawBayesianLinearModel: bad design dimensions");
  }
  IncrementalRidge fold(x.cols());
  for (size_t r = 0; r < x.rows(); ++r) fold.AddRow(x.RowPtr(r), y[r]);
  BayesianDraw draw;
  ASSIGN_OR_RETURN(draw.mean, fold.Solve(alpha));

  size_t n = x.rows();
  size_t p1 = x.cols() + 1;  // coefficients incl. intercept

  // Residual sum of squares of the posterior-mean fit.
  double rss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double r = y[i] - draw.mean.Predict(x.Row(i));
    rss += r * r;
  }
  // Degrees of freedom; clamp for tiny local designs.
  double dof = std::max<double>(1.0, static_cast<double>(n) -
                                         static_cast<double>(p1));
  // sigma^2 ~ rss / chi2_dof (scaled inverse chi-square draw).
  double chi2 = 0.0;
  for (int i = 0; i < static_cast<int>(dof); ++i) {
    double z = rng->Gaussian();
    chi2 += z * z;
  }
  chi2 = std::max(chi2, 1e-12);
  double sigma2 = rss / chi2;
  draw.sigma = std::sqrt(std::max(sigma2, 0.0));

  // beta = beta_hat + sigma * L^{-T} z with (X^T X + alpha E) = L L^T:
  // then Cov(beta) = sigma^2 (X^T X + alpha E)^{-1} as required.
  linalg::Matrix u = fold.U();
  u.AddScaledIdentity(alpha + 1e-10);

  linalg::Matrix l;
  Status st = linalg::CholeskyFactor(u, &l);
  draw.model = draw.mean;
  if (st.ok()) {
    // Solve L^T w = z by back substitution.
    linalg::Vector z(p1), w(p1, 0.0);
    for (double& v : z) v = rng->Gaussian();
    for (size_t ii = p1; ii-- > 0;) {
      double sum = z[ii];
      for (size_t k = ii + 1; k < p1; ++k) sum -= l(k, ii) * w[k];
      w[ii] = sum / l(ii, ii);
    }
    for (size_t i = 0; i < p1; ++i) {
      draw.model.phi[i] += draw.sigma * w[i];
    }
  }
  return draw;
}

}  // namespace iim::regress
