// Learning phase of IIM: one ridge-regression model per complete tuple.
//
// Learn()        — Algorithm 1 (fixed l for every tuple).
// LearnAdaptive()— Algorithm 3 (per-tuple l chosen by validating candidate
//                  models against the complete tuples they would impute),
//                  with stepping (Section V-A2) and the incremental U/V
//                  computation of Proposition 3.

#ifndef IIM_CORE_INDIVIDUAL_MODELS_H_
#define IIM_CORE_INDIVIDUAL_MODELS_H_

#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/iim_options.h"
#include "data/table.h"
#include "neighbors/knn.h"
#include "regress/incremental_ridge.h"
#include "regress/linear_model.h"

namespace iim::core {

// Diagnostics from adaptive learning (Figures 11-13 report these).
struct AdaptiveStats {
  // Chosen l per tuple.
  std::vector<size_t> chosen_ell;
  // Candidate l values that were evaluated.
  std::vector<size_t> candidate_ells;
  // Total validation cost of the chosen models.
  double total_cost = 0.0;
  // Seconds spent determining the models: candidate-model computation +
  // validation, *excluding* nearest-neighbor retrieval. This matches the
  // paper's Figure 12 accounting, where the NN lists are precomputed once
  // and reused for every candidate l. With options.threads > 1 the
  // per-tuple times are summed across workers, so this is aggregate busy
  // time (CPU-seconds), not wall-clock.
  double determination_seconds = 0.0;
};

// The set Phi of individual regression parameters, one per tuple of r.
//
// Both learners gather (F, Am) into a contiguous data::FeatureBlock once
// and fan the independent per-tuple work out over options.threads workers.
// The resulting models are bit-identical for every thread count (fixed
// block partitioning; per-block reductions merged in block order).
class IndividualModels {
 public:
  // Algorithm 1. `index` must be built over `r` on `features` (it is used
  // for NN(t_i, F, l)); l == 1 applies the single-neighbor rule of
  // Section III-A2. l is clamped to n.
  static Result<IndividualModels> Learn(
      const data::Table& r, int target, const std::vector<int>& features,
      const neighbors::NeighborIndex& index, const IimOptions& options);

  // Algorithm 3. Evaluates candidate l values 1, 1+h, ... (capped by
  // options.max_ell) for each tuple and keeps the model minimizing the
  // validation cost. `stats` is optional.
  static Result<IndividualModels> LearnAdaptive(
      const data::Table& r, int target, const std::vector<int>& features,
      const neighbors::NeighborIndex& index, const IimOptions& options,
      AdaptiveStats* stats);

  size_t size() const { return models_.size(); }
  const regress::LinearModel& model(size_t i) const { return models_[i]; }
  const std::vector<regress::LinearModel>& models() const { return models_; }

 private:
  std::vector<regress::LinearModel> models_;
};

// The candidate l sequence {1, 1+h, 1+2h, ...} clamped to [1, max_ell].
std::vector<size_t> CandidateEllValues(size_t n, size_t step_h,
                                       size_t max_ell);

// Validation fan-out cap shared by the batch learner and the streaming
// order-maintenance core: with very large imputation k the validation cost
// grows as n * |L| * k while the selection quality plateaus, so more than
// 10 judges per model add cost but no signal.
constexpr size_t kMaxValidationK = 10;

// --- One model fit for batch and stream --------------------------------
//
// Every individual model is Formula 5's ridge over a prefix of its learning
// order: the tuple itself first (distance 0), then its nearest others
// ascending by (distance, index). The batch learners and the streaming
// order core (stream::OrderCore) both fit through the two templates below,
// so their models agree by construction.
//
// `rows` is any row source with
//   const double* Features(size_t r) const;  // q gathered feature values
//   double Target(size_t r) const;           // the target t_r[Am]
// where r is an order entry's index: data::FeatureBlock in batch, the
// order core itself (slots) on a stream. `fold` is the caller's scratch
// accumulator over q features, reused across fits.

// The model over order[0..ell), folded from scratch in order and solved;
// ell == 1 applies the single-neighbor rule of Section III-A2 (a constant
// model predicting the tuple's own value). Learn, the batch and streaming
// orphan fallbacks and the streaming fixed-l solve call it.
template <typename Rows>
Result<regress::LinearModel> FitPrefix(
    const Rows& rows, const std::vector<neighbors::Neighbor>& order,
    size_t ell, double alpha, regress::IncrementalRidge* fold) {
  if (ell == 1) {
    return regress::LinearModel::Constant(rows.Target(order[0].index),
                                          fold->num_features());
  }
  fold->Reset();
  for (size_t e = 0; e < ell; ++e) {
    size_t r = order[e].index;
    fold->AddRow(rows.Features(r), rows.Target(r));
  }
  return fold->Solve(alpha);
}

// Algorithm 3's candidate sweep for one tuple. For each candidate l in
// `ells` (ascending; `order` holds at least ells.back() entries) it fits
// the model over order[0..l) — one fold grown by the h new rows per
// candidate (Proposition 3), or, when !incremental, refolded from scratch
// at every candidate (the straightforward scheme of Figures 12-13) — and
// charges it the squared validation error over `judges`, summed in the
// order given, into (*cost)[e]. The first strict minimum is returned as
// *best (an index into ells) and *best_model. With no judges every cost
// is 0 and *best is 0.
template <typename Rows>
Status SweepCandidates(const Rows& rows,
                       const std::vector<neighbors::Neighbor>& order,
                       const std::vector<size_t>& ells,
                       const std::vector<size_t>& judges, double alpha,
                       bool incremental, regress::IncrementalRidge* fold,
                       std::vector<double>* cost, size_t* best,
                       regress::LinearModel* best_model) {
  const size_t q = fold->num_features();
  cost->assign(ells.size(), 0.0);
  *best = 0;
  *best_model = regress::LinearModel();
  double best_cost = std::numeric_limits<double>::infinity();
  fold->Reset();
  size_t folded = 0;
  for (size_t e = 0; e < ells.size(); ++e) {
    const size_t ell = ells[e];
    if (!incremental) {
      fold->Reset();
      folded = 0;
    }
    for (; folded < ell; ++folded) {
      size_t r = order[folded].index;
      fold->AddRow(rows.Features(r), rows.Target(r));
    }
    regress::LinearModel model;
    if (ell == 1) {
      model = regress::LinearModel::Constant(rows.Target(order[0].index), q);
    } else {
      ASSIGN_OR_RETURN(model, fold->Solve(alpha));
    }
    double c = 0.0;
    for (size_t j : judges) {
      double err = rows.Target(j) - model.Predict(rows.Features(j), q);
      c += err * err;
    }
    (*cost)[e] = c;
    if (c < best_cost) {
      best_cost = c;
      *best = e;
      *best_model = std::move(model);
    }
  }
  return Status::OK();
}

}  // namespace iim::core

#endif  // IIM_CORE_INDIVIDUAL_MODELS_H_
