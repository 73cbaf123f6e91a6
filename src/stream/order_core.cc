#include "stream/order_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/individual_models.h"
#include "data/table.h"
#include "neighbors/distance.h"

namespace iim::stream {

namespace {

// The core indexes its own gathered rows, so the index's column gather is
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
  c.admission_bound = options.admission_bound;
  c.index.background_rebuild = options.background_rebuild;
  if (options.index_kdtree_threshold > 0) {
    c.index.kdtree_threshold = options.index_kdtree_threshold;
  }
  if (options.index_min_compact_tombstones > 0) {
    c.index.min_compact_tombstones = options.index_min_compact_tombstones;
  }
  return c;
}

OrderCore::OrderCore(const Config& config)
    : config_(config),
      q_(config.q),
      cap_(config.adaptive ? std::max<size_t>(config.max_ell, 1)
                           : std::max<size_t>(config.ell, 1)),
      index_(IdentityCols(config.q), config.index),
      fb_(config.q) {}

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
  data::RowView point(fb_.Features(i), q_);
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

size_t OrderCore::Arrive(const double* f, double y, uint64_t seq) {
  size_t id = n_;

  // How the arrival lands in each live tuple's learning order. The new
  // point carries the largest slot, so it loses every distance tie — the
  // insertion point is after all entries with distance <= d. Every tuple
  // that adopts the arrival is also recorded as a holder in the new
  // slot's reverse-neighbor postings. When adaptive, the same distance
  // decides whether the arrival enters i's VALIDATION order — i then
  // judges the newcomer, and the judge i stops granting (the displaced
  // w) has a stale judge set, so w's candidate sweep is dirtied.
  std::vector<size_t> holders_of_new;
  std::vector<size_t> judges_of_new;
  size_t scanned = 0;
  auto visit = [&](size_t i, double d) {
    ++scanned;
    bool changed = false;
    std::vector<neighbors::Neighbor>& order = orders_[i];
    auto pos =
        std::upper_bound(order.begin(), order.end(), d, DistanceBefore);
    if (pos == order.end()) {
      if (order.size() < cap_) {
        // Prefix grows at the end: the accumulated fold stays valid and
        // the new row is caught up lazily (Proposition 3).
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
      // The fold's summation sequence changed; a rank-1 update cannot
      // remove the displaced row, so restream from scratch on next use.
      accums_[i].Reset();
      consumed_[i] = 0;
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
  };

  // One kNN lookup serves both the newcomer's learning order (cap_ - 1
  // nearest) and, in adaptive mode, its validation order (vk nearest):
  // the longer prefix is queried once and sliced below — a sorted
  // top-k's prefix IS the smaller query's result, bit for bit. The
  // index does not contain `id` yet, so no exclusion is needed (same
  // set LearningOrder retrieves with exclude = id), and the insertion
  // visits touch only order/postings state, so querying before them
  // sees the identical index.
  size_t order_k = cap_ > 1 ? std::min(cap_ - 1, live_) : 0;
  size_t vorder_k = config_.adaptive ? std::min(config_.vk, live_) : 0;
  neighbors::QueryOptions nopt;
  nopt.k = std::max(order_k, vorder_k);
  data::RowView point(f, q_);
  std::vector<neighbors::Neighbor> nearest;

  if (config_.admission_bound && live_ > 0) {
    // One index walk answers both lookups: the newcomer's kNN and the
    // orders it could enter — every live slot whose distance is within
    // its own admission bound (the index holds each order's bound as the
    // slot's radius), ties included, ascending by slot: the full scan's
    // visit order. A candidate exactly at its bound is a no-op in the
    // insertion body, so the pruned scan leaves state and every
    // maintenance counter that counts real work bit-identical to the full
    // one. The distances come back from the same kernel the scan would
    // run ((a-b)^2 == (b-a)^2 bitwise), so they are reused as-is.
    std::vector<neighbors::Neighbor> admitters;
    index_.QueryAdmitters(point, nopt, &nearest, &admitters);
#ifndef NDEBUG
    {
      // Differential check against the full-scan filter: exactly the live
      // orders whose bound the arrival's distance meets, same bits.
      std::vector<neighbors::Neighbor> scan;
      for (size_t i = 0; i < n_; ++i) {
        if (alive_[i] == 0) continue;
        double d = neighbors::NormalizedEuclidean(fb_.Features(i), f, q_);
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
    for (const neighbors::Neighbor& nb : admitters) {
      visit(nb.index, nb.distance);
    }
  } else if (live_ > 0) {
    // The differential oracle: every live order runs the insertion test.
    if (nopt.k > 0) nearest = index_.Query(point, nopt);
    for (size_t i = 0; i < n_; ++i) {
      if (alive_[i] == 0) continue;
      visit(i, neighbors::NormalizedEuclidean(fb_.Features(i), f, q_));
    }
  }
  counters_.orders_scanned += scanned;
  counters_.orders_admitted += holders_of_new.size();
  counters_.admission_skips += live_ - scanned;

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

  fb_.Append(f, y);
  // The new tuple holds its own neighbors; its holders were collected in
  // the arrival loop above.
  for (const neighbors::Neighbor& nb : order_new) {
    if (nb.index != id) PostingsAdd(nb.index, id);
  }
  counters_.postings_edges += holders_of_new.size();
  postings_.push_back(std::move(holders_of_new));
  orders_.push_back(std::move(order_new));
  accums_.emplace_back(q_);
  consumed_.push_back(0);
  models_.emplace_back();
  dirty_.push_back(1);
  alive_.push_back(1);
  seq_of_slot_.push_back(seq);
  slot_of_seq_.emplace(seq, id);
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
  // The index learns the new slot last, together with its admission
  // bound; nothing above queries it.
  index_.Append(point, ComputeBound(id));
  ++n_;
  ++live_;
  return id;
}

size_t OrderCore::OldestLiveSlot() {
  while (oldest_cursor_ < n_ && alive_[oldest_cursor_] == 0) {
    ++oldest_cursor_;
  }
  return oldest_cursor_;
}

void OrderCore::EvictSlot(size_t gone) {
  // Detach the departing tuple: tombstone it everywhere and release its
  // own model state (the slot lingers until compaction, its payload need
  // not). It also stops holding its own neighbors.
  alive_[gone] = 0;
  slot_of_seq_.erase(seq_of_slot_[gone]);
  index_.Remove(gone);
  --live_;
  ++counters_.evicted;
  for (const neighbors::Neighbor& nb : orders_[gone]) {
    if (nb.index != gone) PostingsRemove(nb.index, gone);
  }
  orders_[gone].clear();
  orders_[gone].shrink_to_fit();
  accums_[gone].Reset();
  consumed_[gone] = 0;
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
      if (alive_[i] == 0) continue;
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
  // in reverse. Cutting an entry out of the folded prefix changes the
  // fold's summation sequence, so the accumulator restreams the new
  // prefix on next use, as after a displacement. The survivor's order
  // then grew a vacancy: the next nearest live tuple enters at the
  // end (it ranked behind every remaining entry in (distance, slot)
  // order, or it would already be a member), which is the same fast-path
  // append an arrival takes. After the cut the order holds exactly the
  // live neighbors ranked up to order.back(), so a single vacancy is
  // filled by that entry's successor — bit for bit the entrant a full
  // k = want - 1 query would keep. The full query stays for the cases
  // with no such anchor: a one-entry order, or several vacancies.
  for (size_t i : affected) {
    std::vector<neighbors::Neighbor>& order = orders_[i];
    size_t p = 0;
    while (p < order.size() && order[p].index != gone) ++p;
    if (p == order.size()) continue;  // unreachable under the invariant
    order.erase(order.begin() + static_cast<long>(p));
    if (p < consumed_[i]) {
      accums_[i].Reset();
      consumed_[i] = 0;
    }
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
          index_.Query(data::RowView(fb_.Features(i), q_), qopt);
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
            index_.Query(data::RowView(fb_.Features(j), q_), qopt);
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
  std::vector<regress::IncrementalRidge> accums;
  accums.reserve(live_);
  std::vector<size_t> consumed(live_);
  std::vector<regress::LinearModel> models(live_);
  std::vector<uint8_t> dirty(live_);
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
    // push_back lands accums[slot]: remap is ascending over live slots.
    accums.push_back(std::move(accums_[old]));
    consumed[slot] = consumed_[old];
    models[slot] = std::move(models_[old]);
    dirty[slot] = dirty_[old];
    seq_of_slot[slot] = seq_of_slot_[old];
    slot_of_seq_[seq_of_slot_[old]] = slot;
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

  fb_.Compact(remap, DynamicIndex::kGone);
  orders_ = std::move(orders);
  postings_ = std::move(postings);
  accums_ = std::move(accums);
  consumed_ = std::move(consumed);
  models_ = std::move(models);
  dirty_ = std::move(dirty);
  alive_.assign(live_, 1);
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
  const std::vector<neighbors::Neighbor>& order = orders_[i];
  if (order.size() == 1) {
    // Single-neighbor rule (Section III-A2): constant model of the
    // tuple's own value — matches FitOverPrefix at ell == 1.
    models_[i] = regress::LinearModel::Constant(fb_.Target(i), q_);
    dirty_[i] = 0;
    ++counters_.models_solved;
    return Status::OK();
  }
  // Catch the accumulator up with the prefix rows it has not folded yet
  // (all of them after an invalidation). Rows enter in order[0..s)
  // sequence, the exact summation order of a batch FitRidge over the same
  // prefix — that is what makes the solved model bit-identical.
  while (consumed_[i] < order.size()) {
    size_t r = order[consumed_[i]].index;
    accums_[i].AddRow(fb_.Features(r), fb_.Target(r));
    ++consumed_[i];
  }
  ASSIGN_OR_RETURN(models_[i], accums_[i].Solve(config_.alpha));
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
      if (alive_[i] != 0) DirtyMark(i);
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
  cost_[i].assign(ells_.size(), 0.0);
  if (judges.empty()) {
    // Nobody validates t_i: its model comes from the global criterion,
    // which shifts with the window — never cache it (dirty stays set).
    orphan_[i] = 1;
    return Status::OK();
  }

  const std::vector<neighbors::Neighbor>& order = orders_[i];
  assert(!ells_.empty() && order.size() == ells_.back());
  regress::IncrementalRidge accum(q_);
  size_t consumed = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best_ell = ells_.front();
  regress::LinearModel best_model;

  for (size_t e = 0; e < ells_.size(); ++e) {
    size_t ell = ells_[e];
    regress::LinearModel model;
    // Proposition 3: fold in only the new neighbors since the previous
    // candidate (the batch learner's incremental path, restreamed fresh
    // per evaluation).
    while (consumed < ell) {
      size_t r = order[consumed].index;
      accum.AddRow(fb_.Features(r), fb_.Target(r));
      ++consumed;
    }
    if (ell == 1) {
      model = regress::LinearModel::Constant(fb_.Target(order[0].index), q_);
    } else {
      ASSIGN_OR_RETURN(model, accum.Solve(config_.alpha));
    }
    double cost = 0.0;
    for (size_t j : judges) {
      double err = fb_.Target(j) - model.Predict(fb_.Features(j), q_);
      cost += err * err;
    }
    cost_[i][e] = cost;
    if (cost < best_cost) {
      best_cost = cost;
      best_ell = ell;
      best_model = model;
    }
  }

  models_[i] = std::move(best_model);
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
    if (alive_[j] != 0 && dirty_[j] != 0) {
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
    if (alive_[j] == 0) continue;
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
  // l — and the batch learner fits that model from scratch (FitOverPrefix,
  // not the incremental fold), which this must reproduce bitwise.
  RETURN_IF_ERROR(EnsureGlobalCost());
  const std::vector<neighbors::Neighbor>& order = orders_[i];
  assert(fallback_ell_ <= order.size());
  std::vector<size_t> prefix;
  prefix.reserve(fallback_ell_);
  for (size_t e = 0; e < fallback_ell_; ++e) prefix.push_back(order[e].index);
  ASSIGN_OR_RETURN(models_[i], core::FitOverPrefix(fb_, prefix, fallback_ell_,
                                                   config_.alpha));
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
    if (alive_[i] == 0) continue;
    for (const neighbors::Neighbor& nb : orders_[i]) {
      if (nb.index != i) want[nb.index].push_back(i);  // ascending in i
    }
  }
  size_t edges = 0;
  for (size_t s = 0; s < n_; ++s) {
    if (alive_[s] == 0 && !postings_[s].empty()) return false;
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
    if (alive_[i] != 0 && index_.radius(i) != ComputeBound(i)) return false;
  }
  if (!index_.VerifyRadii()) return false;

  if (config_.adaptive) {
    // vpost_ must be exactly the reverse of the validation orders.
    std::vector<std::vector<size_t>> vwant(n_);
    for (size_t j = 0; j < n_; ++j) {
      if (alive_[j] == 0) continue;
      for (const neighbors::Neighbor& nb : vorders_[j]) {
        vwant[nb.index].push_back(j);  // ascending in j
      }
    }
    for (size_t s = 0; s < n_; ++s) {
      if (alive_[s] == 0 && (!vpost_[s].empty() || !vorders_[s].empty())) {
        return false;
      }
      std::vector<size_t> got = vpost_[s];
      std::sort(got.begin(), got.end());
      if (got != vwant[s]) return false;
    }
  }
  return true;
}

void OrderCore::SerializeInto(persist::SnapshotBuilder* b) const {
  // The index's points are byte-for-byte derivable from the gathered
  // rows, so only the rows go into the image, plus the radii (the
  // admission bounds, held only by the index). SnapshotState is the one
  // timed reader-lock hold of the checkpoint path (the stat the index
  // surfaces), and debug builds cross-check it against the feature block
  // to catch index/block divergence.
  std::vector<double> bounds;
  {
    std::vector<double> pts;
    std::vector<uint8_t> alive;
    index_.SnapshotState(&pts, &alive, &bounds);
#ifndef NDEBUG
    assert(alive.size() == n_ && pts.size() == n_ * q_);
    for (size_t i = 0; i < n_; ++i) {
      assert(alive[i] == alive_[i]);
      assert(std::memcmp(pts.data() + i * q_, fb_.Features(i),
                         q_ * sizeof(double)) == 0);
    }
#endif
  }

  b->BeginSection(persist::kSecCoreMeta);
  b->PutU32(3);  // core layout version within the container
  b->PutU64(q_);
  b->PutU64(n_);
  b->PutU64(live_);
  b->PutU64(oldest_cursor_);
  b->PutU64(counters_.evicted);
  b->PutU64(counters_.fast_path_appends);
  b->PutU64(counters_.models_invalidated);
  b->PutU64(counters_.models_solved);
  b->PutU64(counters_.models_reused);
  b->PutU64(counters_.backfills);
  b->PutU64(counters_.compactions);
  b->PutU64(counters_.postings_edges);
  b->PutU64(counters_.holders_invalidated);
  b->PutU64(counters_.adaptive_l_changes);
  b->PutU64(counters_.orders_scanned);
  b->PutU64(counters_.orders_admitted);
  b->PutU64(counters_.admission_skips);
  b->PutU8(config_.adaptive ? 1 : 0);
  if (config_.adaptive) {
    b->PutU64(ells_live_);
    b->PutU32(static_cast<uint32_t>(ells_.size()));
    for (size_t e : ells_) b->PutU64(e);
    b->PutU8(global_cost_valid_ ? 1 : 0);
    b->PutU64(fallback_ell_);
    b->PutU32(static_cast<uint32_t>(global_cost_.size()));
    b->PutDoubles(global_cost_.data(), global_cost_.size());
  }

  // Gathered rows over ALL slots (tombstones keep their payload until
  // compaction, and the restored index needs the same slot geometry).
  b->BeginSection(persist::kSecCoreRows);
  for (size_t i = 0; i < n_; ++i) b->PutU8(alive_[i]);
  for (size_t i = 0; i < n_; ++i) b->PutU64(seq_of_slot_[i]);
  // Admission bounds ride along even though they are derivable from the
  // orders: RestoreFrom recomputes them and hard-fails on any
  // disagreement — a cheap end-to-end consistency check on the whole
  // (orders, bounds) image. Dead slots carry kDeadBound.
  for (size_t i = 0; i < n_; ++i) {
    if (alive_[i] == 0) bounds[i] = kDeadBound;
  }
  b->PutDoubles(bounds.data(), n_);
  for (size_t i = 0; i < n_; ++i) {
    b->PutDoubles(fb_.Features(i), q_);
    b->PutF64(fb_.Target(i));
  }

  b->BeginSection(persist::kSecCoreOrders);
  auto put_orders = [&](const std::vector<std::vector<neighbors::Neighbor>>&
                            orders) {
    for (size_t i = 0; i < n_; ++i) {
      const std::vector<neighbors::Neighbor>& order = orders[i];
      b->PutU32(static_cast<uint32_t>(order.size()));
      for (const neighbors::Neighbor& nb : order) {
        b->PutU64(nb.index);
        b->PutF64(nb.distance);
      }
    }
  };
  put_orders(orders_);
  if (config_.adaptive) put_orders(vorders_);  // vpost_ is derivable

  // Fold cursors and solved models; RestoreFrom refolds the ridge
  // accumulators from them. The adaptive caches (costs, chosen l) ride
  // along so a restored core reuses models exactly where the writer
  // would have.
  b->BeginSection(persist::kSecCoreModels);
  for (size_t i = 0; i < n_; ++i) {
    b->PutU64(consumed_[i]);
    b->PutU8(dirty_[i]);
    b->PutU32(static_cast<uint32_t>(models_[i].phi.size()));
    b->PutDoubles(models_[i].phi.data(), models_[i].phi.size());
    if (config_.adaptive) {
      b->PutU64(chosen_ell_[i]);
      b->PutU8(orphan_[i]);
      b->PutU32(static_cast<uint32_t>(cost_[i].size()));
      b->PutDoubles(cost_[i].data(), cost_[i].size());
    }
  }
}

Status OrderCore::RestoreFrom(const persist::SnapshotView& view) {
  if (n_ != 0) {
    return Status::FailedPrecondition(
        "OrderCore: snapshots restore into an empty core only");
  }
  ASSIGN_OR_RETURN(persist::SectionReader meta,
                   view.Section(persist::kSecCoreMeta));
  if (meta.U32() != 3) {
    return Status::InvalidArgument(
        "OrderCore: snapshot was written under a different core layout "
        "version");
  }
  if (meta.U64() != q_) {
    return Status::InvalidArgument(
        "OrderCore: snapshot was written under a different feature arity");
  }
  size_t n = meta.U64();
  size_t live = meta.U64();
  size_t oldest = meta.U64();
  Counters ct;
  ct.evicted = meta.U64();
  ct.fast_path_appends = meta.U64();
  ct.models_invalidated = meta.U64();
  ct.models_solved = meta.U64();
  ct.models_reused = meta.U64();
  ct.backfills = meta.U64();
  ct.compactions = meta.U64();
  ct.postings_edges = meta.U64();
  ct.holders_invalidated = meta.U64();
  ct.adaptive_l_changes = meta.U64();
  ct.orders_scanned = meta.U64();
  ct.orders_admitted = meta.U64();
  ct.admission_skips = meta.U64();
  bool adaptive = meta.U8() != 0;
  if (adaptive != config_.adaptive) {
    return Status::InvalidArgument(
        "OrderCore: snapshot was written under a different adaptive mode");
  }
  std::vector<size_t> ells;
  size_t ells_live = kNoSlot;
  bool gc_valid = false;
  size_t fallback = 1;
  std::vector<double> gcost;
  if (adaptive) {
    ells_live = meta.U64();
    uint32_t elen = meta.U32();
    if (!meta.ok() || elen > n + 1 || elen > meta.remaining() / 8) {
      return Status::IoError("OrderCore: snapshot candidate block overruns");
    }
    ells.resize(elen);
    for (uint32_t e = 0; e < elen; ++e) ells[e] = meta.U64();
    gc_valid = meta.U8() != 0;
    fallback = meta.U64();
    uint32_t glen = meta.U32();
    if (!meta.ok() || glen > elen) {
      return Status::IoError("OrderCore: snapshot candidate block overruns");
    }
    gcost.resize(glen);
    meta.Doubles(gcost.data(), glen);
  }
  RETURN_IF_ERROR(meta.status());
  if (live > n || oldest > n) {
    return Status::IoError("OrderCore: snapshot counters are inconsistent");
  }

  // Every per-slot array below is sized from n, so n must first fit the
  // payloads that back it (bytes per slot: alive + arrival + bound +
  // q features + target; at least an order length; the cursors and the
  // model length) — a forged count is an error, never an allocation.
  ASSIGN_OR_RETURN(persist::SectionReader rows,
                   view.Section(persist::kSecCoreRows));
  ASSIGN_OR_RETURN(persist::SectionReader ords,
                   view.Section(persist::kSecCoreOrders));
  ASSIGN_OR_RETURN(persist::SectionReader mods,
                   view.Section(persist::kSecCoreModels));
  const size_t p1 = q_ + 1;
  const size_t row_bytes = 1 + 8 + 8 + 8 * q_ + 8;
  const size_t order_bytes = adaptive ? 8 : 4;
  const size_t model_bytes = 8 + 1 + 4 + (adaptive ? 8 + 1 + 4 : 0);
  if (n > rows.remaining() / row_bytes ||
      n > ords.remaining() / order_bytes ||
      n > mods.remaining() / model_bytes) {
    return Status::IoError("OrderCore: snapshot slot count overruns its "
                           "sections");
  }
  std::vector<uint8_t> alive(n);
  std::vector<uint64_t> seqs(n);
  for (size_t i = 0; i < n; ++i) alive[i] = rows.U8();
  for (size_t i = 0; i < n; ++i) seqs[i] = rows.U64();
  std::vector<double> bounds(n);
  rows.Doubles(bounds.data(), n);
  std::vector<double> pts(n * q_);
  std::vector<double> targets(n);
  for (size_t i = 0; i < n; ++i) {
    rows.Doubles(pts.data() + i * q_, q_);
    targets[i] = rows.F64();
  }
  RETURN_IF_ERROR(rows.status());

  auto read_orders =
      [&](std::vector<std::vector<neighbors::Neighbor>>* out) -> Status {
    out->assign(n, {});
    for (size_t i = 0; i < n; ++i) {
      uint32_t len = ords.U32();
      if (!ords.ok() || len > n || len > ords.remaining() / 16) {
        return Status::IoError("OrderCore: snapshot order block overruns");
      }
      (*out)[i].resize(len);
      for (uint32_t e = 0; e < len; ++e) {
        (*out)[i][e].index = ords.U64();
        (*out)[i][e].distance = ords.F64();
        if ((*out)[i][e].index >= n) {
          return Status::IoError("OrderCore: snapshot order block overruns");
        }
      }
    }
    return Status::OK();
  };
  std::vector<std::vector<neighbors::Neighbor>> orders;
  RETURN_IF_ERROR(read_orders(&orders));
  std::vector<std::vector<neighbors::Neighbor>> vorders;
  if (adaptive) RETURN_IF_ERROR(read_orders(&vorders));
  RETURN_IF_ERROR(ords.status());

  // The admission bounds are derivable from the orders just decoded;
  // rebuilding them here and insisting on bitwise agreement with the
  // persisted array turns the redundancy into an end-to-end check over
  // the whole (orders, bounds) image.
  for (size_t i = 0; i < n; ++i) {
    double want;
    if (alive[i] == 0) {
      want = kDeadBound;
    } else {
      want = orders[i].size() < cap_
                 ? std::numeric_limits<double>::infinity()
                 : orders[i].back().distance;
      if (adaptive) {
        double vb = vorders[i].size() < config_.vk
                        ? std::numeric_limits<double>::infinity()
                        : vorders[i].back().distance;
        if (vb > want) want = vb;
      }
    }
    if (bounds[i] != want) {
      return Status::IoError(
          "OrderCore: snapshot admission bounds disagree with a rebuild "
          "from the restored orders");
    }
  }

  std::vector<size_t> consumed(n);
  std::vector<regress::LinearModel> models(n);
  std::vector<uint8_t> dirty(n);
  std::vector<size_t> chosen(adaptive ? n : 0);
  std::vector<uint8_t> orphan(adaptive ? n : 0);
  std::vector<std::vector<double>> cost(adaptive ? n : 0);
  for (size_t i = 0; i < n; ++i) {
    consumed[i] = mods.U64();
    dirty[i] = mods.U8();
    uint32_t philen = mods.U32();
    if (!mods.ok() || philen > p1) {
      return Status::IoError("OrderCore: snapshot model block overruns");
    }
    models[i].phi.resize(philen);
    mods.Doubles(models[i].phi.data(), philen);
    if (consumed[i] > orders[i].size()) {
      return Status::IoError("OrderCore: snapshot counters are inconsistent");
    }
    if (adaptive) {
      chosen[i] = mods.U64();
      orphan[i] = mods.U8();
      uint32_t clen = mods.U32();
      if (!mods.ok() || clen > ells.size()) {
        return Status::IoError("OrderCore: snapshot model block overruns");
      }
      cost[i].resize(clen);
      mods.Doubles(cost[i].data(), clen);
    }
  }
  RETURN_IF_ERROR(mods.status());

  // Everything decoded and validated: install. The feature block and
  // index are rebuilt from the gathered row bytes — byte-identical to the
  // structures the writer held.
  fb_ = data::FeatureBlock(q_);
  for (size_t i = 0; i < n; ++i) {
    fb_.Append(pts.data() + i * q_, targets[i]);
  }
  // Refolding each consumed prefix reproduces the writer's U/V bit for
  // bit (adaptive cores never fold: consumed stays 0).
  std::vector<regress::IncrementalRidge> accums(n,
                                                regress::IncrementalRidge(q_));
  for (size_t i = 0; i < n; ++i) {
    for (size_t e = 0; e < consumed[i]; ++e) {
      size_t r = orders[i][e].index;
      accums[i].AddRow(fb_.Features(r), fb_.Target(r));
    }
  }
  RETURN_IF_ERROR(
      index_.RestoreState(std::move(pts), alive, std::move(bounds)));

  // Reverse postings are derivable: holder i lists every non-self entry
  // of its order. Ascending i reproduces the ascending-holder layout a
  // fresh core maintains; the recomputed edge count must agree with the
  // serialized gauge.
  postings_.assign(n, {});
  size_t edges = 0;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i] == 0) continue;
    for (const neighbors::Neighbor& nb : orders[i]) {
      if (nb.index != i) {
        postings_[nb.index].push_back(i);
        ++edges;
      }
    }
  }
  if (edges != ct.postings_edges) {
    return Status::IoError("OrderCore: snapshot counters are inconsistent");
  }
  if (adaptive) {
    vpost_.assign(n, {});
    for (size_t j = 0; j < n; ++j) {
      if (alive[j] == 0) continue;
      for (const neighbors::Neighbor& nb : vorders[j]) {
        vpost_[nb.index].push_back(j);
      }
    }
  }

  orders_ = std::move(orders);
  accums_ = std::move(accums);
  consumed_ = std::move(consumed);
  models_ = std::move(models);
  dirty_ = std::move(dirty);
  alive_ = std::move(alive);
  seq_of_slot_ = std::move(seqs);
  slot_of_seq_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (alive_[i] != 0) slot_of_seq_.emplace(seq_of_slot_[i], i);
  }
  if (adaptive) {
    vorders_ = std::move(vorders);
    cost_ = std::move(cost);
    chosen_ell_ = std::move(chosen);
    orphan_ = std::move(orphan);
    ells_ = std::move(ells);
    ells_live_ = ells_live;
    global_cost_ = std::move(gcost);
    fallback_ell_ = fallback;
    global_cost_valid_ = gc_valid;
  }
  n_ = n;
  live_ = live;
  oldest_cursor_ = oldest;
  counters_ = ct;
  assert(VerifyPostings());
  return Status::OK();
}

}  // namespace iim::stream
