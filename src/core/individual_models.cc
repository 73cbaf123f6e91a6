#include "core/individual_models.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/feature_block.h"

namespace iim::core {

namespace {

// Tuples per ParallelFor block. One tuple's work (a neighbor query plus
// one or more ridge fits) dwarfs the scheduling cost, so small blocks keep
// the load balanced; the partition is fixed by this constant and n alone,
// which is what makes the per-block reductions thread-count independent.
constexpr size_t kTupleGrain = 16;

// Learning-neighbor order for tuple i: the tuple itself first (distance 0,
// as in Example 2 where T_1 = {t1, t2, t3, t4}), then the next `need - 1`
// tuples by ascending (distance, index). Bounding the query by `need`
// keeps the learning phase O(n * query(need)) instead of O(n^2 log n).
std::vector<neighbors::Neighbor> LearningOrder(
    const neighbors::NeighborIndex& index, const data::Table& r, size_t i,
    size_t need) {
  std::vector<neighbors::Neighbor> order;
  order.reserve(need);
  order.push_back(neighbors::Neighbor{i, 0.0});
  if (need > 1) {
    neighbors::QueryOptions qopt;
    qopt.k = need - 1;
    qopt.exclude = i;
    std::vector<neighbors::Neighbor> nearest = index.Query(r.Row(i), qopt);
    order.insert(order.end(), nearest.begin(), nearest.end());
  }
  return order;
}

// First error of a per-block status array, in block order (deterministic
// regardless of which thread hit its error first).
Status FirstError(const std::vector<Status>& block_status) {
  for (const Status& st : block_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

std::vector<size_t> CandidateEllValues(size_t n, size_t step_h,
                                       size_t max_ell) {
  if (step_h == 0) step_h = 1;
  size_t cap = (max_ell == 0) ? n : std::min(max_ell, n);
  std::vector<size_t> ells;
  for (size_t ell = 1; ell <= cap; ell += step_h) ells.push_back(ell);
  // The cap must stay reachable even when the stride steps over it
  // ((cap - 1) % h != 0): l = n is the GLR limit of Proposition 2, and
  // max_ell is the budget the caller actually asked to consider.
  if (!ells.empty() && ells.back() != cap) ells.push_back(cap);
  return ells;
}

Result<IndividualModels> IndividualModels::Learn(
    const data::Table& r, int target, const std::vector<int>& features,
    const neighbors::NeighborIndex& index, const IimOptions& options) {
  if (r.empty()) return Status::InvalidArgument("Learn: empty relation");
  size_t n = r.NumRows();
  size_t ell = std::clamp<size_t>(options.ell, 1, n);
  data::FeatureBlock fb = data::FeatureBlock::Build(r, target, features);

  IndividualModels phi;
  phi.models_.resize(n);
  ThreadPool pool(options.threads);
  std::vector<Status> block_status(ThreadPool::NumBlocks(n, kTupleGrain));
  pool.ParallelFor(n, kTupleGrain, [&](size_t begin, size_t end) {
    size_t block = begin / kTupleGrain;
    regress::IncrementalRidge fold(features.size());
    for (size_t i = begin; i < end; ++i) {
      Result<regress::LinearModel> model = FitPrefix(
          fb, LearningOrder(index, r, i, ell), ell, options.alpha, &fold);
      if (!model.ok()) {
        block_status[block] = model.status();
        return;
      }
      phi.models_[i] = std::move(model).value();
    }
  });
  RETURN_IF_ERROR(FirstError(block_status));
  return phi;
}

Result<IndividualModels> IndividualModels::LearnAdaptive(
    const data::Table& r, int target, const std::vector<int>& features,
    const neighbors::NeighborIndex& index, const IimOptions& options,
    AdaptiveStats* stats) {
  if (r.empty()) {
    return Status::InvalidArgument("LearnAdaptive: empty relation");
  }
  size_t n = r.NumRows();
  size_t q = features.size();
  std::vector<size_t> ells =
      CandidateEllValues(n, options.step_h, options.max_ell);
  ThreadPool pool(options.threads);

  // Validation tuples (all of r by default, or a sample).
  std::vector<size_t> validators(n);
  for (size_t i = 0; i < n; ++i) validators[i] = i;
  if (options.validation_sample > 0 && options.validation_sample < n) {
    Rng rng(options.seed);
    validators =
        rng.SampleWithoutReplacement(n, options.validation_sample);
  }

  // Reverse-neighbor lists: validated_by[i] holds the validation tuples t_j
  // that would use t_i's model (t_i in NN(t_j, F, k), self excluded as in
  // Example 4). The fan-out is capped: with very large imputation k the
  // validation cost grows as n * |L| * k while the selection quality
  // plateaus, so k > 10 judges add cost but no signal. The n queries are
  // independent and fan out over the pool; the merge below runs serially
  // in validator order so the lists are identical for any thread count.
  std::vector<std::vector<size_t>> validated_by(n);
  size_t vk = options.validation_k > 0 ? options.validation_k : options.k;
  vk = std::clamp<size_t>(vk, 1, kMaxValidationK);
  std::vector<neighbors::BatchQuery> vbatch;
  vbatch.reserve(validators.size());
  for (size_t j : validators) {
    vbatch.push_back(neighbors::BatchQuery{r.Row(j), j});
  }
  std::vector<std::vector<neighbors::Neighbor>> vneighbors =
      index.QueryMany(vbatch, vk, &pool);
  for (size_t v = 0; v < validators.size(); ++v) {
    for (const auto& nb : vneighbors[v]) {
      validated_by[nb.index].push_back(validators[v]);
    }
  }
  vneighbors.clear();
  vneighbors.shrink_to_fit();

  // Contiguous validator features/truths (and the fits' rows).
  data::FeatureBlock fb = data::FeatureBlock::Build(r, target, features);

  IndividualModels phi;
  phi.models_.resize(n);
  if (stats != nullptr) {
    stats->chosen_ell.assign(n, 0);
    stats->candidate_ells = ells;
    stats->total_cost = 0.0;
  }

  // Per-block partials, reduced in block order after the loop so the
  // result is independent of the thread count: candidate costs summed
  // over all tuples (the orphan fallback criterion), the orphan tuples
  // themselves, the chosen-model cost total, and determination time.
  size_t num_blocks = ThreadPool::NumBlocks(n, kTupleGrain);
  std::vector<Status> block_status(num_blocks);
  std::vector<std::vector<double>> block_cost(
      num_blocks, std::vector<double>(ells.size(), 0.0));
  std::vector<std::vector<size_t>> block_orphans(num_blocks);
  std::vector<double> block_chosen_cost(num_blocks, 0.0);
  std::vector<double> block_seconds(num_blocks, 0.0);

  pool.ParallelFor(n, kTupleGrain, [&](size_t begin, size_t end) {
    size_t block = begin / kTupleGrain;
    Stopwatch determination_timer;
    regress::IncrementalRidge fold(q);
    regress::RidgeLanes lanes(q);
    std::vector<double> cost;
    for (size_t i = begin; i < end; ++i) {
      std::vector<neighbors::Neighbor> order =
          LearningOrder(index, r, i, ells.back());
      const std::vector<size_t>& judges = validated_by[i];

      determination_timer.Restart();
      size_t best = 0;
      regress::LinearModel best_model;
      Status st = SweepCandidates(fb, order, ells, judges, options.alpha,
                                  options.incremental, &fold, &lanes, &cost,
                                  &best, &best_model);
      if (!st.ok()) {
        block_status[block] = st;
        return;
      }
      for (size_t e = 0; e < ells.size(); ++e) {
        block_cost[block][e] += cost[e];
      }
      block_seconds[block] += determination_timer.ElapsedSeconds();

      if (judges.empty()) {
        block_orphans[block].push_back(i);
      } else {
        phi.models_[i] = std::move(best_model);
        if (stats != nullptr) {
          stats->chosen_ell[i] = ells[best];
          block_chosen_cost[block] += cost[best];
        }
      }
    }
  });
  RETURN_IF_ERROR(FirstError(block_status));

  // Tuples nobody validates fall back to the globally best l (by summed
  // cost over validated tuples).
  std::vector<double> global_cost(ells.size(), 0.0);
  std::vector<size_t> orphan;
  double determination_seconds = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) {
    for (size_t e = 0; e < ells.size(); ++e) {
      global_cost[e] += block_cost[b][e];
    }
    orphan.insert(orphan.end(), block_orphans[b].begin(),
                  block_orphans[b].end());
    determination_seconds += block_seconds[b];
    if (stats != nullptr) stats->total_cost += block_chosen_cost[b];
  }
  if (stats != nullptr) {
    stats->determination_seconds = determination_seconds;
  }

  if (!orphan.empty()) {
    size_t best_e = static_cast<size_t>(
        std::min_element(global_cost.begin(), global_cost.end()) -
        global_cost.begin());
    size_t fallback_ell = ells[best_e];
    std::vector<Status> fallback_status(
        ThreadPool::NumBlocks(orphan.size(), kTupleGrain));
    pool.ParallelFor(orphan.size(), kTupleGrain,
                     [&](size_t begin, size_t end) {
      size_t block = begin / kTupleGrain;
      regress::IncrementalRidge fold(q);
      for (size_t o = begin; o < end; ++o) {
        size_t i = orphan[o];
        Result<regress::LinearModel> fit =
            FitPrefix(fb, LearningOrder(index, r, i, fallback_ell),
                      fallback_ell, options.alpha, &fold);
        if (!fit.ok()) {
          fallback_status[block] = fit.status();
          return;
        }
        phi.models_[i] = std::move(fit).value();
        if (stats != nullptr) stats->chosen_ell[i] = fallback_ell;
      }
    });
    RETURN_IF_ERROR(FirstError(fallback_status));
  }
  return phi;
}

}  // namespace iim::core
