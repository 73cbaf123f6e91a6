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
      cap_(config.adaptive ? std::max<size_t>(config.max_ell, 1)
                           : std::max<size_t>(config.ell, 1)),
      index_(IdentityCols(config.q)),
      fold_(config.q) {}

double OrderCore::ComputeBound(size_t i) const {
  // Below capacity every arrival enters at the end (the fast-path
  // append), so the radius is unbounded; at capacity only an arrival
  // closer than the worst kept neighbor can displace. An arrival exactly
  // AT the bound is a no-op (the newcomer has the largest slot and loses
  // the tie), but it is still admitted as a candidate — visiting it
  // changes nothing, and including ties keeps the filter conservative.
  double b = orders_[i].size() < cap_
                 ? std::numeric_limits<double>::infinity()
                 : orders_[i].back().distance;
  if (config_.adaptive) {
    double vb = vorders_[i].size() < config_.vk
                    ? std::numeric_limits<double>::infinity()
                    : vorders_[i].back().distance;
    if (vb > b) b = vb;
  }
  return b;
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

  // One kNN lookup serves the newcomer's learning order (cap_ - 1
  // nearest), in adaptive mode its validation order (vk nearest), and a
  // peek (peek_k nearest): the longest prefix is queried once and sliced
  // — a sorted top-k's prefix IS the smaller query's result, bit for
  // bit. The index does not contain `id` yet, so no exclusion is needed
  // (same set LearningOrder retrieves with exclude = id).
  size_t order_k = cap_ > 1 ? std::min(cap_ - 1, live_) : 0;
  size_t vorder_k = config_.adaptive ? std::min(config_.vk, live_) : 0;
  neighbors::QueryOptions nopt;
  nopt.k = std::max(order_k, vorder_k);
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

  // How the arrival lands in each admitted tuple's learning order. The new
  // point carries the largest slot, so it loses every distance tie — the
  // insertion point is after all entries with distance <= d. Every tuple
  // that adopts the arrival is also recorded as a holder in the new
  // slot's reverse-neighbor postings. When adaptive, the same distance
  // decides whether the arrival enters i's VALIDATION order — i then
  // judges the newcomer, and the judge i stops granting (the displaced
  // w) has a stale judge set, so w's candidate sweep is dirtied.
  std::vector<size_t> holders_of_new;
  std::vector<size_t> judges_of_new;
  for (const neighbors::Neighbor& nb : admitters) {
    const size_t i = nb.index;
    const double d = nb.distance;
    bool changed = false;
    std::vector<neighbors::Neighbor>& order = orders_[i];
    auto pos =
        std::upper_bound(order.begin(), order.end(), d, DistanceBefore);
    if (pos == order.end()) {
      if (order.size() < cap_) {
        // The order grows at its end; the model re-solves on next use.
        order.push_back(neighbors::Neighbor{id, d});
        holders_of_new.push_back(i);
        DirtyMark(i);
        ++counters_.fast_path_appends;
        changed = true;
      }
      // else: strictly farther than the current worst — unaffected.
    } else {
      order.insert(pos, neighbors::Neighbor{id, d});
      holders_of_new.push_back(i);
      if (order.size() > cap_) {
        // The displaced worst neighbor leaves i's order — and i leaves
        // its postings.
        PostingsRemove(order.back().index, i);
        order.pop_back();
      }
      DirtyMark(i);
      ++counters_.models_invalidated;
      changed = true;
    }
    if (config_.adaptive) {
      std::vector<neighbors::Neighbor>& vorder = vorders_[i];
      auto vpos =
          std::upper_bound(vorder.begin(), vorder.end(), d, DistanceBefore);
      if (vpos == vorder.end()) {
        if (vorder.size() < config_.vk) {
          vorder.push_back(neighbors::Neighbor{id, d});
          judges_of_new.push_back(i);
          changed = true;
        }
      } else {
        vorder.insert(vpos, neighbors::Neighbor{id, d});
        judges_of_new.push_back(i);
        if (vorder.size() > config_.vk) {
          size_t w = vorder.back().index;
          vorder.pop_back();
          VPostRemove(w, i);
          DirtyMark(w);
        }
        changed = true;
      }
    }
    if (changed) RefreshBound(i);
  }
  counters_.orders_scanned += admitters.size();
  counters_.orders_admitted += holders_of_new.size();
  counters_.admission_skips += live_ - admitters.size();

  // The new tuple's own order: itself first, then up to cap_ - 1 nearest
  // live tuples.
  std::vector<neighbors::Neighbor> order_new;
  order_new.reserve(order_k + 1);
  order_new.push_back(neighbors::Neighbor{id, 0.0});
  for (size_t t = 0; t < order_k; ++t) order_new.push_back(nearest[t]);

  // The newcomer's own validation order: the vk models IT judges. Each
  // member gains a judge, so its candidate sweep is stale.
  std::vector<neighbors::Neighbor> vorder_new;
  if (vorder_k > 0) {
    vorder_new.assign(nearest.begin(),
                      nearest.begin() + static_cast<long>(vorder_k));
    for (const neighbors::Neighbor& nb : vorder_new) {
      VPostAdd(nb.index, id);
      DirtyMark(nb.index);
    }
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
    vorders_.push_back(std::move(vorder_new));
    vpost_.push_back(std::move(judges_of_new));
    cost_.emplace_back();
    chosen_ell_.push_back(0);
    orphan_.push_back(0);
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
  for (const neighbors::Neighbor& nb : orders_[gone]) {
    if (nb.index != gone) PostingsRemove(nb.index, gone);
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

  // Repair each affected learning order — the arrival-displacement logic
  // in reverse. The cut dirties the survivor's model, which refolds on
  // next use, as after a displacement. The survivor's order then grew a
  // vacancy: the next nearest live tuple enters at the end (it ranked
  // behind every remaining entry in (distance, slot) order, or it would
  // already be a member), as an arrival below capacity does. After the
  // cut the order holds exactly the live neighbors ranked up to
  // order.back(), so a single vacancy is filled by that entry's successor
  // — bit for bit the entrant a full k = want - 1 query would keep. The
  // full query stays for the cases with no such anchor: a one-entry
  // order, or several vacancies.
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
    DirtyMark(i);
    // The cut (and any backfill) moved i's worst kept distance — or left
    // the order below capacity, unbounding it.
    RefreshBound(i);
  }

  if (config_.adaptive) {
    // The departed tuple stops judging: every model it validated has a
    // smaller judge set now.
    for (const neighbors::Neighbor& nb : vorders_[gone]) {
      VPostRemove(nb.index, gone);
      DirtyMark(nb.index);
    }
    vorders_[gone].clear();
    vorders_[gone].shrink_to_fit();
    cost_[gone].clear();
    cost_[gone].shrink_to_fit();
    chosen_ell_[gone] = 0;
    orphan_[gone] = 0;

    // The judges of the departed tuple each grew a vacancy in their
    // validation order: the next nearest live tuple enters at the end
    // and gains that judge.
    std::vector<size_t> vaffected = std::move(vpost_[gone]);
    vpost_[gone] = std::vector<size_t>();
    std::sort(vaffected.begin(), vaffected.end());
    for (size_t j : vaffected) {
      std::vector<neighbors::Neighbor>& vorder = vorders_[j];
      size_t p = 0;
      while (p < vorder.size() && vorder[p].index != gone) ++p;
      if (p == vorder.size()) continue;  // unreachable under the invariant
      vorder.erase(vorder.begin() + static_cast<long>(p));
      size_t want = std::min(config_.vk, live_ - 1);  // self excluded
      neighbors::Neighbor entrant{0, 0.0};
      if (vorder.size() + 1 == want && !vorder.empty()) {
        // One vacancy behind a kept entry: its successor (see above).
        if (NextNeighbor(j, vorder.back(), vorder.size(), &entrant)) {
          vorder.push_back(entrant);
          VPostAdd(entrant.index, j);
          DirtyMark(entrant.index);
        }
      } else if (vorder.size() < want) {
        neighbors::QueryOptions qopt;
        qopt.k = want;
        qopt.exclude = j;
        std::vector<neighbors::Neighbor> nn =
            index_.Query(data::RowView(index_.Point(j), q_), qopt);
        for (size_t e = vorder.size(); e < nn.size(); ++e) {
          vorder.push_back(nn[e]);
          VPostAdd(nn[e].index, j);
          DirtyMark(nn[e].index);
        }
      }
      RefreshBound(j);
    }
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
  std::vector<std::vector<neighbors::Neighbor>> vorders(adaptive_n);
  std::vector<std::vector<size_t>> vpost(adaptive_n);
  std::vector<std::vector<double>> cost(adaptive_n);
  std::vector<size_t> chosen(adaptive_n);
  std::vector<uint8_t> orphan(adaptive_n);

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
      vorders[slot] = std::move(vorders_[old]);
      for (neighbors::Neighbor& nb : vorders[slot]) {
        nb.index = remap[nb.index];
      }
      vpost[slot] = std::move(vpost_[old]);
      for (size_t& h : vpost[slot]) h = remap[h];
      cost[slot] = std::move(cost_[old]);
      chosen[slot] = chosen_ell_[old];
      orphan[slot] = orphan_[old];
    }
  }

  orders_ = std::move(orders);
  postings_ = std::move(postings);
  models_ = std::move(models);
  dirty_ = std::move(dirty);
  targets_ = std::move(targets);
  seq_of_slot_ = std::move(seq_of_slot);
  if (config_.adaptive) {
    vorders_ = std::move(vorders);
    vpost_ = std::move(vpost);
    cost_ = std::move(cost);
    chosen_ell_ = std::move(chosen);
    orphan_ = std::move(orphan);
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
    orphan_[i] = 1;
    return Status::OK();
  }

  assert(!ells_.empty() && orders_[i].size() == ells_.back());
  size_t best = 0;
  RETURN_IF_ERROR(core::SweepCandidates(*this, orders_[i], ells_, judges,
                                        config_.alpha, /*incremental=*/true,
                                        &fold_, &cost_[i], &best,
                                        &models_[i]));
  size_t best_ell = ells_[best];
  if (chosen_ell_[i] != 0 && chosen_ell_[i] != best_ell) {
    ++counters_.adaptive_l_changes;
  }
  chosen_ell_[i] = best_ell;
  orphan_[i] = 0;
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
    // vpost_ must be exactly the reverse of the validation orders.
    std::vector<std::vector<size_t>> vwant(n_);
    for (size_t j = 0; j < n_; ++j) {
      if (!index_.Alive(j)) continue;
      for (const neighbors::Neighbor& nb : vorders_[j]) {
        vwant[nb.index].push_back(j);  // ascending in j
      }
    }
    for (size_t s = 0; s < n_; ++s) {
      if (!index_.Alive(s) && (!vpost_[s].empty() || !vorders_[s].empty())) {
        return false;
      }
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
  // One sorted top-k serves both orders (its prefix IS the shorter
  // query's result, as in Arrive), and excluding the tuple itself is the
  // same set Arrive's pre-append query sees. No order can hold more than
  // the n - 1 others, however large l is.
  size_t k = std::max(cap_ - 1, config_.adaptive ? config_.vk : size_t{0});
  k = std::min(k, n > 0 ? n - 1 : 0);
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

  // Each learning order is the tuple itself, then its cap_ - 1 nearest;
  // each validation order is its vk nearest. Both are built at their
  // final length, so neither keeps spare capacity, and each neighbor
  // list is released once copied.
  orders_.resize(n);
  if (config_.adaptive) {
    vorders_.resize(n);
    vpost_.resize(n);
    cost_.resize(n);
    chosen_ell_.assign(n, 0);
    orphan_.assign(n, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const std::vector<neighbors::Neighbor>& near = nearest[i];
    auto take = static_cast<long>(std::min(cap_ - 1, near.size()));
    orders_[i].reserve(static_cast<size_t>(take) + 1);
    orders_[i].push_back(neighbors::Neighbor{i, 0.0});
    orders_[i].insert(orders_[i].end(), near.begin(), near.begin() + take);
    if (config_.adaptive) {
      auto vtake = static_cast<long>(std::min(config_.vk, near.size()));
      vorders_[i].assign(near.begin(), near.begin() + vtake);
      for (const neighbors::Neighbor& nb : vorders_[i]) {
        vpost_[nb.index].push_back(i);
      }
    }
    std::vector<neighbors::Neighbor>().swap(nearest[i]);
  }
  // The postings are sized before they are filled: a tuple holds about
  // cap_ - 1 others, so growing each list push by push would reallocate
  // it log2(cap_) times.
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
