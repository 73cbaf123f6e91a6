// Learning phase of IIM: one ridge-regression model per complete tuple.
//
// Learn()        — Algorithm 1 (fixed l for every tuple).
// LearnAdaptive()— Algorithm 3 (per-tuple l chosen by validating candidate
//                  models against the complete tuples they would impute),
//                  with stepping (Section V-A2) and the incremental U/V
//                  computation of Proposition 3.

#ifndef IIM_CORE_INDIVIDUAL_MODELS_H_
#define IIM_CORE_INDIVIDUAL_MODELS_H_

#include <vector>

#include "common/result.h"
#include "core/iim_options.h"
#include "data/feature_block.h"
#include "data/table.h"
#include "neighbors/knn.h"
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

// Fits the model over the first `ell` tuples of `order` from scratch (a
// plain ridge over the gathered prefix; ell == 1 applies the
// single-neighbor rule of Section III-A2). Shared by Learn and
// LearnAdaptive. The streaming core folds the same prefix through
// IncrementalRidge instead, which sums every U/V entry over the same rows
// in the same order, so its models are bit-identical to these.
Result<regress::LinearModel> FitOverPrefix(const data::FeatureBlock& fb,
                                           const std::vector<size_t>& order,
                                           size_t ell, double alpha);

}  // namespace iim::core

#endif  // IIM_CORE_INDIVIDUAL_MODELS_H_
