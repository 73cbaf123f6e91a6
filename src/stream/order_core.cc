#include "stream/order_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/individual_models.h"
#include "data/table.h"
#include "neighbors/distance.h"

namespace iim::stream {

namespace {

// The index holds the gathered rows themselves, so its column gather is
// the identity — the same q doubles the engine's former full-row index
// gathered from cols = features, feeding the same kernels.
std::vector<int> IdentityCols(size_t q) {
  std::vector<int> cols(q);
  for (size_t j = 0; j < q; ++j) cols[j] = static_cast<int>(j);
  return cols;
}

bool DistanceBefore(double d, const neighbors::Neighbor& nb) {
  return d < nb.distance;
}

}  // namespace

OrderCore::Config MakeOrderCoreConfig(const core::IimOptions& options,
                                      size_t q) {
  OrderCore::Config c;
  c.q = q;
  c.alpha = options.alpha;
  c.ell = std::max<size_t>(options.ell, 1);
  c.adaptive = options.adaptive;
  c.max_ell = options.max_ell;
  c.step_h = options.step_h;
  // Same fan-out resolution as the batch learner (validation_k, falling
  // back to the imputation k, clamped to the shared cap).
  size_t vk = options.validation_k > 0 ? options.validation_k : options.k;
  c.vk = std::clamp<size_t>(vk, 1, core::kMaxValidationK);
  return c;
}

OrderCore::OrderCore(const Config& config)
    : config_(config),
      q_(config.q),
      cap_(config.adaptive ? std::max<size_t>(config.max_ell, config.vk + 1)
                           : std::max<size_t>(config.ell, 1)),
      index_(IdentityCols(config.q)),
      fold_(config.q),
      lanes_(config.q) {}

double OrderCore::ComputeBound(size_t i) const {
  // Below capacity every arrival enters at the end (the fast-path
  // append), so the radius is unbounded; at capacity only an arrival
  // closer than the worst kept neighbor can displace. An arrival exactly
  // AT the bound is a no-op (the newcomer has the largest slot and loses
  // the tie), but it is still admitted as a candidate — visiting it
  // changes nothing, and including ties keeps the filter conservative.
  return orders_[i].size() < cap_ ? std::numeric_limits<double>::infinity()
                                  : orders_[i].back().distance;
}

void OrderCore::RefreshBound(size_t i) {
  index_.SetRadius(i, ComputeBound(i));
}

bool OrderCore::NextNeighbor(size_t i, const neighbors::Neighbor& after,
                             size_t rank, neighbors::Neighbor* out) const {
  data::RowView point(index_.Point(i), q_);
  bool found = index_.Successor(point, after, i, out);
#ifndef NDEBUG
  {
    // Differential check against the full query the successor replaces:
    // the entry it would return at `rank`. QueryAll, because it leaves
    // the index's tail-scan count (and so the rebuild timing) alone.
    std::vector<neighbors::Neighbor> all = index_.QueryAll(point, i);
    assert(found == (all.size() > rank) &&
           "successor query disagrees with the full query on existence");
    if (found) {
      assert(all[rank].index == out->index &&
             all[rank].distance == out->distance &&
             "successor query disagrees with the full query");
    }
  }
#else
  (void)rank;
#endif
  return found;
}

size_t OrderCore::LearningLength() const {
  return config_.adaptive ? config_.max_ell : cap_;
}

void OrderCore::DirtyMark(size_t i) {
  if (dirty_[i] == 0) {
    dirty_[i] = 1;
    ++counters_.holders_invalidated;
  }
  global_cost_valid_ = false;
}

void OrderCore::PostingsAdd(size_t s, size_t holder) {
  postings_[s].push_back(holder);
  ++counters_.postings_edges;
}

void OrderCore::PostingsRemove(size_t s, size_t holder) {
  std::vector<size_t>& v = postings_[s];
  for (size_t& h : v) {
    if (h == holder) {
      h = v.back();  // unordered: swap-pop keeps removal O(1)
      v.pop_back();
      --counters_.postings_edges;
      return;
    }
  }
  assert(false && "reverse-neighbor postings entry missing");
}

void OrderCore::VPostAdd(size_t s, size_t judge) {
  vpost_[s].push_back(judge);
}

void OrderCore::VPostRemove(size_t s, size_t judge) {
  std::vector<size_t>& v = vpost_[s];
  for (size_t& h : v) {
    if (h == judge) {
      h = v.back();
      v.pop_back();
      return;
    }
  }
  assert(false && "validation reverse-list entry missing");
}

size_t OrderCore::Arrive(const double* f, double y, uint64_t seq,
                         size_t peek_k, const Peek& peek) {
  assert((seq_of_slot_.empty() || seq_of_slot_.back() < seq) &&
         "arrival numbers must ascend");
  size_t id = n_;

  // One kNN lookup serves the newcomer's list (cap_ - 1 nearest) and a
  // peek (peek_k nearest): the longer prefix is queried once and sliced
  // — a sorted top-k's prefix IS the smaller query's result, bit for
  // bit. The index does not contain `id` yet, so no exclusion is needed
  // (same set LearningOrder retrieves with exclude = id).
  size_t order_k = std::min(cap_ - 1, live_);
  neighbors::QueryOptions nopt;
  nopt.k = order_k;
  if (peek) nopt.k = std::max(nopt.k, std::min(peek_k, live_));
  data::RowView point(f, q_);

  // One index walk answers both lookups: the newcomer's kNN and the
  // orders it could enter — every live slot whose distance is within its
  // own admission bound (the index holds each order's bound as the slot's
  // radius), ties included, ascending by slot. A candidate exactly at its
  // bound is a no-op in the insertion test below, and so is every order
  // the walk prunes, so state and every maintenance counter that counts
  // real work are what testing every live order would leave. The
  // distances come back from the same kernel such a scan would run
  // ((a-b)^2 == (b-a)^2 bitwise), so they are reused as-is.
  std::vector<neighbors::Neighbor> nearest;
  std::vector<neighbors::Neighbor> admitters;
  index_.QueryAdmitters(point, nopt, &nearest, &admitters);
#ifndef NDEBUG
  {
    // Differential check against the full-scan filter: exactly the live
    // orders whose bound the arrival's distance meets, same bits.
    std::vector<neighbors::Neighbor> scan;
    for (size_t i = 0; i < n_; ++i) {
      if (!index_.Alive(i)) continue;
      double d = neighbors::NormalizedEuclidean(index_.Point(i), f, q_);
      if (d <= ComputeBound(i)) scan.push_back(neighbors::Neighbor{i, d});
    }
    assert(scan.size() == admitters.size() &&
           "admitters query disagrees with the full-scan filter");
    for (size_t c = 0; c < scan.size(); ++c) {
      assert(scan[c].index == admitters[c].index &&
             scan[c].distance == admitters[c].distance &&
             "admitters query disagrees with the full-scan filter");
    }
  }
#endif
  if (peek) peek(nearest);

  // How the arrival lands in each admitted tuple's list. The new point
  // carries the largest slot, so it loses every distance tie — the
  // insertion point is after all entries with distance <= d, so at rank
  // >= 1, behind the holder itself. Every tuple that adopts the arrival
  // is also recorded as a holder in the new slot's reverse-neighbor
  // postings. When adaptive, i judges the entries at ranks 1..vk: an
  // arrival landing there gains judge i, and the entry it pushes from
  // rank vk to vk + 1 (or out of the list) loses it, so that entry's
  // candidate sweep is dirtied.
  const size_t vk = config_.adaptive ? config_.vk : 0;
  const size_t learn = LearningLength();
  std::vector<size_t> holders_of_new;
  std::vector<size_t> judges_of_new;
  for (const neighbors::Neighbor& nb : admitters) {
    const size_t i = nb.index;
    const double d = nb.distance;
    std::vector<neighbors::Neighbor>& order = orders_[i];
    auto pos =
        std::upper_bound(order.begin(), order.end(), d, DistanceBefore);
    const size_t rank = static_cast<size_t>(pos - order.begin());
    // Strictly farther than the worst of a full list — unaffected.
    if (rank == cap_) continue;
    if (rank <= vk) {
      judges_of_new.push_back(i);
      if (order.size() > vk) {
        VPostRemove(order[vk].index, i);
        DirtyMark(order[vk].index);
      }
    }
    if (rank == order.size()) {
      // The list grows at its end; the model re-solves on next use.
      order.push_back(neighbors::Neighbor{id, d});
      ++counters_.fast_path_appends;
    } else {
      order.insert(pos, neighbors::Neighbor{id, d});
      if (order.size() > cap_) {
        // The displaced worst neighbor leaves i's list — and i leaves
        // its postings.
        PostingsRemove(order.back().index, i);
        order.pop_back();
      }
      ++counters_.models_invalidated;
    }
    holders_of_new.push_back(i);
    // Landing past the learning order (an adaptive list longer than
    // max_ell) moves neither i's learning prefix nor its judges.
    if (rank < learn) DirtyMark(i);
    RefreshBound(i);
  }
  counters_.orders_scanned += admitters.size();
  counters_.orders_admitted += holders_of_new.size();
  counters_.admission_skips += live_ - admitters.size();

  // The new tuple's own list: itself first, then up to cap_ - 1 nearest
  // live tuples.
  std::vector<neighbors::Neighbor> order_new;
  order_new.reserve(order_k + 1);
  order_new.push_back(neighbors::Neighbor{id, 0.0});
  for (size_t t = 0; t < order_k; ++t) order_new.push_back(nearest[t]);

  // The newcomer judges its own ranks 1..vk. Each of them gains a judge,
  // so its candidate sweep is stale.
  for (size_t t = 0; t < std::min(vk, order_k); ++t) {
    VPostAdd(nearest[t].index, id);
    DirtyMark(nearest[t].index);
  }

  // The new tuple holds its own neighbors; its holders were collected in
  // the arrival loop above.
  for (const neighbors::Neighbor& nb : order_new) {
    if (nb.index != id) PostingsAdd(nb.index, id);
  }
  counters_.postings_edges += holders_of_new.size();
  postings_.push_back(std::move(holders_of_new));
  orders_.push_back(std::move(order_new));
  models_.emplace_back();
  dirty_.push_back(1);
  targets_.push_back(y);
  seq_of_slot_.push_back(seq);
  if (config_.adaptive) {
    vpost_.push_back(std::move(judges_of_new));
    cost_.emplace_back();
    chosen_ell_.push_back(0);
    // The newcomer contributes a fresh cost row and shifts the blocked
    // merge grouping, so the global criterion is stale regardless of
    // which holders were touched.
    global_cost_valid_ = false;
  }
  // The index learns the new slot (and stores its row) last, together with
  // its admission bound; nothing above queries it.
  index_.Append(point, ComputeBound(id));
  ++n_;
  ++live_;
  return id;
}

size_t OrderCore::SlotOf(uint64_t seq) const {
  auto it = std::lower_bound(seq_of_slot_.begin(), seq_of_slot_.end(), seq);
  if (it == seq_of_slot_.end() || *it != seq) return kNoSlot;
  size_t slot = static_cast<size_t>(it - seq_of_slot_.begin());
  return index_.Alive(slot) ? slot : kNoSlot;
}

size_t OrderCore::OldestLiveSlot() {
  while (oldest_cursor_ < n_ && !index_.Alive(oldest_cursor_)) {
    ++oldest_cursor_;
  }
  return oldest_cursor_;
}

void OrderCore::EvictSlot(size_t gone) {
  // Detach the departing tuple: tombstone it everywhere and release its
  // own model state (the slot lingers until compaction, its payload need
  // not). It also stops holding its own neighbors.
  index_.Remove(gone);
  --live_;
  ++counters_.evicted;
  const size_t vk = config_.adaptive ? config_.vk : 0;
  const size_t learn = LearningLength();
  for (size_t e = 1; e < orders_[gone].size(); ++e) {
    const size_t s = orders_[gone][e].index;
    PostingsRemove(s, gone);
    if (e <= vk) {
      // The departed tuple stops judging: the model it validated has a
      // smaller judge set now.
      VPostRemove(s, gone);
      DirtyMark(s);
    }
  }
  orders_[gone].clear();
  orders_[gone].shrink_to_fit();
  models_[gone] = regress::LinearModel();
  dirty_[gone] = 1;

  // The survivors whose learning order contained the departed tuple are
  // exactly its reverse-neighbor postings — the ~l affected tuples, read
  // in O(l) instead of scanning all n live orders. Sorted so the repairs
  // run in ascending-slot order, the order the old full scan used.
  std::vector<size_t> affected = std::move(postings_[gone]);
  postings_[gone] = std::vector<size_t>();
  counters_.postings_edges -= affected.size();
  std::sort(affected.begin(), affected.end());
#ifndef NDEBUG
  {
    // Differential check against the old full scan: the maintained
    // postings must name exactly the live orders that contain `gone`.
    std::vector<size_t> scan;
    for (size_t i = 0; i < n_; ++i) {
      if (!index_.Alive(i)) continue;
      for (const neighbors::Neighbor& nb : orders_[i]) {
        if (nb.index == gone) {
          scan.push_back(i);
          break;
        }
      }
    }
    assert(scan == affected &&
           "reverse-neighbor postings disagree with full scan");
  }
#endif

  // Repair each affected list — the arrival-displacement logic in
  // reverse. The cut dirties the survivor's model, which refolds on next
  // use, as after a displacement. The survivor's list then grew a
  // vacancy: the next nearest live tuple enters at the end (it ranked
  // behind every remaining entry in (distance, slot) order, or it would
  // already be a member), as an arrival below capacity does. After the
  // cut the list holds exactly the live neighbors ranked up to
  // order.back(), so a single vacancy is filled by that entry's successor
  // — bit for bit the entrant a full k = want - 1 query would keep. The
  // full query stays for the cases with no such anchor: a one-entry
  // list, or several vacancies.
  for (size_t i : affected) {
    std::vector<neighbors::Neighbor>& order = orders_[i];
    size_t p = 0;
    while (p < order.size() && order[p].index != gone) ++p;
    if (p == order.size()) continue;  // unreachable under the invariant
    order.erase(order.begin() + static_cast<long>(p));
    size_t want = std::min(cap_, live_);  // self included
    neighbors::Neighbor entrant{0, 0.0};
    if (order.size() + 1 == want && order.size() > 1) {
      if (NextNeighbor(i, order.back(), order.size() - 1, &entrant)) {
        order.push_back(entrant);
        PostingsAdd(entrant.index, i);
        ++counters_.backfills;
      }
    } else if (order.size() < want) {
      neighbors::QueryOptions qopt;
      qopt.k = want - 1;
      qopt.exclude = i;
      std::vector<neighbors::Neighbor> nn =
          index_.Query(data::RowView(index_.Point(i), q_), qopt);
      // nn[0 .. order.size()-1) coincides with the order's surviving
      // neighbors; anything beyond is the entrant.
      for (size_t j = order.size() - 1; j < nn.size(); ++j) {
        order.push_back(nn[j]);
        PostingsAdd(nn[j].index, i);
        ++counters_.backfills;
      }
    }
    if (p <= vk && order.size() > vk) {
      // i judged the departed tuple: the entry the repair moved up to (or
      // backfilled at) rank vk gains judge i.
      VPostAdd(order[vk].index, i);
      DirtyMark(order[vk].index);
    }
    // A cut past the learning order leaves i's prefix whole (the list
    // held more than max_ell entries) and its judges as they were.
    if (p < learn) DirtyMark(i);
    // The cut (and any backfill) moved i's worst kept distance — or left
    // the list below capacity, unbounding it.
    RefreshBound(i);
  }

  if (config_.adaptive) {
    // Its judges were all among the affected lists, and each now judges
    // the entry that replaced it.
    vpost_[gone] = std::vector<size_t>();
    cost_[gone].clear();
    cost_[gone].shrink_to_fit();
    chosen_ell_[gone] = 0;
    // The departed tuple's cost row leaves the global sum and the blocked
    // merge regroups.
    global_cost_valid_ = false;
  }
}

bool OrderCore::MaybeCompact(std::vector<size_t>* remap_out) {
  if (!index_.NeedsCompaction()) return false;
  std::vector<size_t> remap = index_.Compact();

  std::vector<std::vector<neighbors::Neighbor>> orders(live_);
  std::vector<std::vector<size_t>> postings(live_);
  std::vector<regress::LinearModel> models(live_);
  std::vector<uint8_t> dirty(live_);
  std::vector<double> targets(live_);
  std::vector<uint64_t> seq_of_slot(live_);
  size_t adaptive_n = config_.adaptive ? live_ : 0;
  std::vector<std::vector<size_t>> vpost(adaptive_n);
  std::vector<std::vector<double>> cost(adaptive_n);
  std::vector<size_t> chosen(adaptive_n);

  for (size_t old = 0; old < n_; ++old) {
    size_t slot = remap[old];
    if (slot == DynamicIndex::kGone) continue;
    orders[slot] = std::move(orders_[old]);
    for (neighbors::Neighbor& nb : orders[slot]) {
      nb.index = remap[nb.index];  // orders reference live slots only
    }
    // Postings hold live slots only (dead holders were removed when they
    // were evicted), so the remap applies to every entry.
    postings[slot] = std::move(postings_[old]);
    for (size_t& h : postings[slot]) h = remap[h];
    models[slot] = std::move(models_[old]);
    dirty[slot] = dirty_[old];
    targets[slot] = targets_[old];
    // remap is ascending over live slots, so the arrival numbers stay
    // ascending.
    seq_of_slot[slot] = seq_of_slot_[old];
    if (config_.adaptive) {
      vpost[slot] = std::move(vpost_[old]);
      for (size_t& h : vpost[slot]) h = remap[h];
      cost[slot] = std::move(cost_[old]);
      chosen[slot] = chosen_ell_[old];
    }
  }

  orders_ = std::move(orders);
  postings_ = std::move(postings);
  models_ = std::move(models);
  dirty_ = std::move(dirty);
  targets_ = std::move(targets);
  seq_of_slot_ = std::move(seq_of_slot);
  if (config_.adaptive) {
    vpost_ = std::move(vpost);
    cost_ = std::move(cost);
    chosen_ell_ = std::move(chosen);
    // The live set (and so the candidate costs and their blocked merge)
    // is unchanged — compaction only renumbers slots.
  }
  n_ = live_;
  oldest_cursor_ = 0;
  ++counters_.compactions;
  if (remap_out != nullptr) *remap_out = std::move(remap);
  return true;
}

size_t OrderCore::chosen_ell(size_t i) const {
  return config_.adaptive ? chosen_ell_[i] : config_.ell;
}

Status OrderCore::EnsureModel(size_t i) {
  if (config_.adaptive) return EnsureModelAdaptive(i);
  return EnsureModelFixed(i);
}

Status OrderCore::EnsureModelFixed(size_t i) {
  if (!dirty_[i]) {
    ++counters_.models_reused;
    return Status::OK();
  }
  ASSIGN_OR_RETURN(models_[i],
                   core::FitPrefix(*this, orders_[i], orders_[i].size(),
                                   config_.alpha, &fold_));
  dirty_[i] = 0;
  ++counters_.models_solved;
  return Status::OK();
}

void OrderCore::RefreshElls() {
  if (ells_live_ == live_) return;
  std::vector<size_t> fresh =
      core::CandidateEllValues(live_, config_.step_h, config_.max_ell);
  ells_live_ = live_;
  if (fresh != ells_) {
    // The candidate sequence itself moved (live count still below the
    // max_ell plateau): every cached sweep indexes stale candidates. In
    // steady state (live >= max_ell) the sequence is pinned and this
    // never fires.
    ells_ = std::move(fresh);
    for (size_t i = 0; i < n_; ++i) {
      if (index_.Alive(i)) DirtyMark(i);
    }
    global_cost_valid_ = false;
  }
}

Status OrderCore::EvaluateSlot(size_t i) {
  // The judges of t_i, ascending — the batch learner fills validated_by
  // from validators in ascending row order, so sorting the maintained
  // reverse list reproduces its cost summation order exactly.
  std::vector<size_t> judges = vpost_[i];
  std::sort(judges.begin(), judges.end());
  if (judges.empty()) {
    cost_[i].assign(ells_.size(), 0.0);
    // Nobody validates t_i: its model comes from the global criterion,
    // which shifts with the window — never cache it (dirty stays set).
    return Status::OK();
  }

  assert(!ells_.empty() && orders_[i].size() >= ells_.back());
  size_t best = 0;
  RETURN_IF_ERROR(core::SweepCandidates(*this, orders_[i], ells_, judges,
                                        config_.alpha, /*incremental=*/true,
                                        &fold_, &lanes_, &cost_[i], &best,
                                        &models_[i]));
  size_t best_ell = ells_[best];
  if (chosen_ell_[i] != 0 && chosen_ell_[i] != best_ell) {
    ++counters_.adaptive_l_changes;
  }
  chosen_ell_[i] = best_ell;
  dirty_[i] = 0;
  ++counters_.models_solved;
  return Status::OK();
}

Status OrderCore::EnsureGlobalCost() {
  if (global_cost_valid_) return Status::OK();
  // Refresh every stale sweep (validated tuples come out solved + clean;
  // orphans refresh their zero rows and stay dirty).
  for (size_t j = 0; j < n_; ++j) {
    if (index_.Alive(j) && dirty_[j] != 0) {
      RETURN_IF_ERROR(EvaluateSlot(j));
    }
  }
  // Re-assemble the global candidate costs in the batch learner's merge
  // order: per-block partials over groups of 16 live tuples (ascending),
  // folded into the global sum block by block — the exact summation tree
  // LearnAdaptive's kTupleGrain partition produces for any thread count.
  global_cost_.assign(ells_.size(), 0.0);
  std::vector<double> partial(ells_.size(), 0.0);
  size_t p = 0;
  for (size_t j = 0; j < n_; ++j) {
    if (!index_.Alive(j)) continue;
    if (p % 16 == 0) std::fill(partial.begin(), partial.end(), 0.0);
    for (size_t e = 0; e < ells_.size(); ++e) partial[e] += cost_[j][e];
    if (p % 16 == 15) {
      for (size_t e = 0; e < ells_.size(); ++e) global_cost_[e] += partial[e];
    }
    ++p;
  }
  if (p % 16 != 0) {
    for (size_t e = 0; e < ells_.size(); ++e) global_cost_[e] += partial[e];
  }
  size_t best_e = static_cast<size_t>(
      std::min_element(global_cost_.begin(), global_cost_.end()) -
      global_cost_.begin());
  fallback_ell_ = ells_[best_e];
  global_cost_valid_ = true;
  return Status::OK();
}

Status OrderCore::EnsureModelAdaptive(size_t i) {
  RefreshElls();
  if (dirty_[i] == 0) {
    ++counters_.models_reused;
    return Status::OK();
  }
  RETURN_IF_ERROR(EvaluateSlot(i));
  if (dirty_[i] == 0) return Status::OK();

  // Orphan fallback: nobody validates t_i, so it takes the globally best
  // l — a fresh fit over that prefix, as the batch learner's.
  RETURN_IF_ERROR(EnsureGlobalCost());
  assert(fallback_ell_ <= orders_[i].size());
  ASSIGN_OR_RETURN(models_[i],
                   core::FitPrefix(*this, orders_[i], fallback_ell_,
                                   config_.alpha, &fold_));
  if (chosen_ell_[i] != 0 && chosen_ell_[i] != fallback_ell_) {
    ++counters_.adaptive_l_changes;
  }
  chosen_ell_[i] = fallback_ell_;
  ++counters_.models_solved;
  return Status::OK();
}

bool OrderCore::VerifyPostings() const {
  std::vector<std::vector<size_t>> want(n_);
  for (size_t i = 0; i < n_; ++i) {
    if (!index_.Alive(i)) continue;
    for (const neighbors::Neighbor& nb : orders_[i]) {
      if (nb.index != i) want[nb.index].push_back(i);  // ascending in i
    }
  }
  size_t edges = 0;
  for (size_t s = 0; s < n_; ++s) {
    if (!index_.Alive(s) && !postings_[s].empty()) return false;
    std::vector<size_t> got = postings_[s];
    std::sort(got.begin(), got.end());
    if (got != want[s]) return false;
    edges += got.size();
  }
  if (edges != counters_.postings_edges) return false;

  // Each live slot's radius in the index must equal its admission bound
  // recomputed from the orders, and the tree's subtree maxima must cover
  // every radius — the invariants the admitters walk rides on.
  for (size_t i = 0; i < n_; ++i) {
    if (index_.Alive(i) && index_.radius(i) != ComputeBound(i)) return false;
  }
  if (!index_.VerifyRadii()) return false;

  if (config_.adaptive) {
    // vpost_ must be exactly the reverse of every list's ranks 1..vk.
    std::vector<std::vector<size_t>> vwant(n_);
    for (size_t j = 0; j < n_; ++j) {
      if (!index_.Alive(j)) continue;
      size_t judged = std::min(config_.vk + 1, orders_[j].size());
      for (size_t e = 1; e < judged; ++e) {
        vwant[orders_[j][e].index].push_back(j);  // ascending in j
      }
    }
    for (size_t s = 0; s < n_; ++s) {
      std::vector<size_t> got = vpost_[s];
      std::sort(got.begin(), got.end());
      if (got != vwant[s]) return false;
    }
  }
  return true;
}

Status OrderCore::Load(const std::vector<double>& features,
                       const std::vector<double>& targets,
                       const std::vector<uint64_t>& seqs, ThreadPool* pool) {
  if (n_ != 0) {
    return Status::FailedPrecondition(
        "OrderCore: bulk loads go into an empty core only");
  }
  const size_t n = seqs.size();
  assert(features.size() == n * q_ && targets.size() == n);
  RETURN_IF_ERROR(index_.Load(features));
  for (size_t i = 1; i < n; ++i) assert(seqs[i - 1] < seqs[i]);

  // Every live tuple's nearest others, in one pass over the built tree.
  // Excluding the tuple itself is the same set Arrive's pre-append query
  // sees. No list can hold more than the n - 1 others, however large l
  // is.
  size_t k = std::min(cap_ - 1, n > 0 ? n - 1 : 0);
  std::vector<std::vector<neighbors::Neighbor>> nearest =
      index_.NearestOthers(k, pool);
#ifndef NDEBUG
  for (size_t i = 0; i < n; ++i) {
    std::vector<neighbors::Neighbor> all =
        index_.QueryAll(data::RowView(features.data() + i * q_, q_), i);
    assert(nearest[i].size() == std::min(k, all.size()));
    for (size_t e = 0; e < nearest[i].size(); ++e) {
      assert(nearest[i][e].index == all[e].index &&
             nearest[i][e].distance == all[e].distance);
    }
  }
#endif

  // Each list is the tuple itself, then its cap_ - 1 nearest, built at
  // its final length, so it keeps no spare capacity; each neighbor list
  // is released once copied.
  orders_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<neighbors::Neighbor>& near = nearest[i];
    orders_[i].reserve(near.size() + 1);
    orders_[i].push_back(neighbors::Neighbor{i, 0.0});
    orders_[i].insert(orders_[i].end(), near.begin(), near.end());
    std::vector<neighbors::Neighbor>().swap(nearest[i]);
  }
  // The postings are sized before they are filled: a tuple holds about
  // cap_ - 1 others, so growing each list push by push would reallocate
  // it log2(cap_) times. When adaptive, ranks 1..vk also name the judges.
  const size_t vk = config_.adaptive ? config_.vk : 0;
  if (config_.adaptive) {
    vpost_.resize(n);
    cost_.resize(n);
    chosen_ell_.assign(n, 0);
  }
  std::vector<size_t> holders(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t e = 1; e < orders_[i].size(); ++e) {
      ++holders[orders_[i][e].index];
    }
    counters_.postings_edges += orders_[i].size() - 1;
  }
  postings_.resize(n);
  for (size_t s = 0; s < n; ++s) postings_[s].reserve(holders[s]);
  for (size_t i = 0; i < n; ++i) {
    for (size_t e = 1; e < orders_[i].size(); ++e) {
      postings_[orders_[i][e].index].push_back(i);
      if (e <= vk) vpost_[orders_[i][e].index].push_back(i);
    }
  }

  models_.resize(n);
  dirty_.assign(n, 1);
  targets_ = targets;
  seq_of_slot_ = seqs;
  n_ = n;
  live_ = n;
  for (size_t i = 0; i < n; ++i) RefreshBound(i);
  assert(VerifyPostings());
  return Status::OK();
}

}  // namespace iim::stream
