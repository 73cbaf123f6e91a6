// OrderCore: the per-arrival order-maintenance machinery of the streaming
// engine (OnlineIim).
//
// The paper's central object — the learning order NN(t_i, F, l) backing
// each individual model — is maintained incrementally here, one core per
// engine, with slots addressing the engine's own arrivals. An arrival
// invalidates only the holders whose learning order it actually enters,
// so a query-time model is usually a cache hit (models_reused) instead of
// a fresh fold. The engine layers the schema-facing concerns (full rows,
// validation, Algorithm 2 aggregation, durability) on top.
//
// The core keeps each fact about a live tuple once. Its gathered feature
// row lives only in the DynamicIndex, which indexes identity columns
// {0..q-1} of those rows (bit-identical to the engine's former full-row
// index on cols = features: both gather the same q doubles into the same
// kernel); Features reads it back through DynamicIndex::Point, and its
// liveness is the index's tombstone bitmap (DynamicIndex::Alive). Its
// target and arrival number sit in slot-indexed vectors, and the arrival
// numbers ascend with the slots, so SlotOf is a binary search.
//
// Per tuple the core maintains: one neighbor list (itself first, then
// live neighbors ascending by (distance, slot)) whose prefix is its
// learning order, reverse-neighbor postings (postings_[s] = holders of s,
// making eviction O(l)), its solved
// model and a dirty flag cleared by EnsureModel. Arrivals insert/displace,
// evictions cut + backfill, compaction replays the index remap. A dirty
// model is refolded from scratch into one scratch IncrementalRidge by
// core::FitPrefix, the batch learner's own prefix fit: the core is its row
// source (Features, Target), so the two fit the same rows the same way.
//
// All of that is a function of the live window alone (the orders are the
// window's exact neighbor lists; postings and radii follow from them), so
// a snapshot holds only the window's rows and Load rebuilds the rest in
// one pass.
//
// Arrival cost scales with the AFFECTED orders, not n: each order carries an
// admission bound — the worst kept distance, infinite below capacity — held
// by the index as its slot's radius, and an arrival finds the orders it could
// enter with one admitters walk (DynamicIndex::QueryAdmitters) that also
// returns its own kNN: exactly the live slots within their own bound. Ties
// are included: a candidate AT its bound is visited so the (distance, slot)
// tie-break resolves exactly as an insertion test over every live order would
// — visiting a no-op order changes no state, so skipping the rest changes
// nothing. Debug builds check every arrival's admitters against that
// full-scan filter. An eviction that leaves one vacancy in an order fills it
// with one successor query (the next live neighbor after the order's last
// entry) instead of a full l - 1 neighbor query.
//
// Adaptive per-tuple l (Algorithm 3, config.adaptive): t_j judges the
// models of its vk nearest live tuples, and those are ranks 1..vk of its
// own list — both are prefixes of one (distance, slot) ranking of the
// window. So the core keeps one list per tuple, max(max_ell, vk + 1)
// entries long: its first min(max_ell, live) entries are the learning
// order, its ranks 1..vk the tuples it judges. The reverse lists
// vpost_[i] = the judges of t_i follow list positions: an arrival landing
// at rank <= vk of j's list gains judge j and pushes rank vk's entry out
// of j's judgement; an eviction cut at rank <= vk hands judge j to the
// entry the repair moves up to rank vk. EnsureModel then runs
// core::SweepCandidates, the sweep LearnAdaptive runs, on the tuple's
// learning order and its judges sorted ascending (the batch validator
// order): fold the order incrementally, solve at every candidate l,
// charge each candidate the squared validation error over the judges, and
// keep the first strict minimum.
// Tuples nobody judges fall back to the globally-best l, which requires
// the candidate costs of EVERY live tuple — those are cached per tuple and
// the global sum is assembled in the batch learner's blocked-16 merge
// order; the fallback model is core::FitPrefix at that l, as in batch, so
// even the orphan fallback matches LearnAdaptive bitwise.
//
// Thread-safety: externally synchronized, like the engines that own it.

#ifndef IIM_STREAM_ORDER_CORE_H_
#define IIM_STREAM_ORDER_CORE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/iim_options.h"
#include "regress/incremental_ridge.h"
#include "regress/ridge.h"
#include "stream/dynamic_index.h"

namespace iim::stream {

class OrderCore {
 public:
  struct Config {
    size_t q = 0;          // |F|: gathered feature arity
    double alpha = 1e-6;   // ridge regularization
    size_t ell = 1;        // fixed-l prefix length (>= 1); unused when
                           // adaptive
    bool adaptive = false;
    size_t max_ell = 0;    // adaptive: candidate-l cap, > 0 required (the
                           // cap bounds per-tuple maintenance on a stream)
    size_t step_h = 1;     // adaptive: candidate-l stride
    size_t vk = 1;         // adaptive: resolved validation fan-out, in
                           // [1, core::kMaxValidationK]
  };

  struct Counters {
    size_t evicted = 0;
    // Arrivals that entered a list below capacity at its end, behind
    // every kept neighbor.
    size_t fast_path_appends = 0;
    // Arrivals that entered a list ahead of its last entry (and displaced
    // that entry when the list was at capacity).
    size_t models_invalidated = 0;
    // Lazy model (re)solves actually performed.
    size_t models_solved = 0;
    // EnsureModel calls answered by a still-clean cached model (the
    // refit-vs-reuse gauge of the query path).
    size_t models_reused = 0;
    // Always 0 (evictions only restream); perfbench/layers.cc reads them.
    size_t downdates = 0;
    size_t downdate_fallbacks = 0;
    // Next-nearest live tuples pulled into a shrunken list.
    size_t backfills = 0;
    // Physical compactions (tombstoned slots dropped, index rebuilt).
    size_t compactions = 0;
    // Live reverse-neighbor postings entries (one per (holder, neighbor)
    // edge, self-edges excluded); a gauge, the bound EvictSlot's O(l)
    // repair rides on.
    size_t postings_edges = 0;
    // Clean holders flipped dirty by an arrival entering their learning
    // order, a change of their judges, or an eviction cutting their
    // learning order (0 -> 1 transitions only; a tuple already pending a
    // re-solve is not recounted).
    size_t holders_invalidated = 0;
    // Adaptive re-evaluations whose chosen l differs from the tuple's
    // previously chosen l.
    size_t adaptive_l_changes = 0;
    // Live orders actually run through an arrival's insertion test: the
    // admitters walk's candidates, each within its own admission bound.
    size_t orders_scanned = 0;
    // Scanned orders the arrival actually entered (the list adopted it) —
    // the "affected orders" an arrival's cost scales with.
    size_t orders_admitted = 0;
    // Live orders an arrival never visited because the admission bound
    // proved it could not enter them (live - scanned, accumulated).
    size_t admission_skips = 0;
  };

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  explicit OrderCore(const Config& config);

  OrderCore(const OrderCore&) = delete;
  OrderCore& operator=(const OrderCore&) = delete;

  // --- Per-arrival maintenance (callers keep operations serialized) ----

  // Sees an arrival's pre-arrival neighborhood; see Arrive.
  using Peek = std::function<void(const std::vector<neighbors::Neighbor>&)>;

  // One arrival: f points at q gathered feature values, y is the target, seq
  // the caller's stable address (arrival number), which must exceed every
  // seq passed before (debug builds assert it). Runs the insertion test on
  // every live list the admitters walk returns, computes the newcomer's
  // own list from the index BEFORE appending it
  // (the same neighbor set an exclude-self query would return), and appends
  // the new slot, which is returned. A set `peek` runs after the index walk
  // and before any order changes. It gets the newcomer's nearest live tuples
  // ascending by (distance, slot), at least min(peek_k, live) of them: the
  // prefix a kNN query on the pre-arrival window returns, bit for bit, from
  // the walk's own query. It may ensure models (OnlineIim's masking-one-out
  // probe does), since no order has changed yet.
  size_t Arrive(const double* f, double y, uint64_t seq, size_t peek_k = 0,
                const Peek& peek = nullptr);

  // Tombstones slot `gone` and repairs the surviving lists that contained
  // it, found in O(l) from the reverse postings. Callers follow up with
  // MaybeCompact().
  void EvictSlot(size_t gone);

  // First live slot (the oldest live tuple); n() when empty. Amortized
  // O(1) via a forward-only cursor.
  size_t OldestLiveSlot();

  // Replays the index's compaction remap over every slot-indexed
  // structure once tombstones pass a quarter of the live rows
  // (DynamicIndex::NeedsCompaction).
  // Returns true (and the old-slot -> new-slot map, kGone for evicted
  // slots, when remap != nullptr) if a compaction ran — the owner replays
  // it over its own slot-aligned state (e.g. the full-row table).
  bool MaybeCompact(std::vector<size_t>* remap);

  // --- Models ----------------------------------------------------------

  // Re-solves slot i's model if a past arrival, eviction or change of
  // its judges dirtied it. Fixed-l mode: fold the learning
  // order from scratch and solve. Adaptive mode: the per-tuple candidate
  // sweep described above. Touches only slot i, except an adaptive orphan
  // fallback, which refreshes the cached candidate costs of every dirty
  // live tuple to recompute the global criterion.
  Status EnsureModel(size_t i);
  const regress::LinearModel& model(size_t i) const { return models_[i]; }
  // Adaptive: the l chosen at the slot's last evaluation (0 before the
  // first). Fixed-l mode: the configured l.
  size_t chosen_ell(size_t i) const;

  // --- Addressing ------------------------------------------------------

  size_t n() const { return n_; }        // slots, including tombstones
  size_t live() const { return live_; }  // live tuples
  bool IsLive(uint64_t seq) const { return SlotOf(seq) != kNoSlot; }
  // The live slot of arrival `seq`, kNoSlot if none: a binary search over
  // the ascending arrival numbers. O(log n).
  size_t SlotOf(uint64_t seq) const;
  uint64_t SeqOf(size_t slot) const { return seq_of_slot_[slot]; }
  // Whether `slot` is live: the index's tombstone bitmap, the only record
  // of liveness. The core's own thread only, like Features.
  bool SlotAlive(size_t slot) const { return index_.Alive(slot); }
  // The slot's q gathered values, read from the index. Valid until the
  // next Arrive or compaction; the core's own thread only.
  const double* Features(size_t slot) const { return index_.Point(slot); }
  double Target(size_t slot) const { return targets_[slot]; }
  // The slot's kept list: itself, then its nearest live others ascending
  // by (distance, slot). Its first min(l, live) entries are the learning
  // order (l = max_ell when adaptive); an adaptive list runs past it when
  // max_ell <= vk.
  const std::vector<neighbors::Neighbor>& Order(size_t slot) const {
    return orders_[slot];
  }

  // --- Queries (q-dim gathered points; read-only) ----------------------

  const DynamicIndex& index() const { return index_; }
  void WaitForIndexRebuild() { index_.WaitForRebuild(); }

  // --- Diagnostics -----------------------------------------------------

  const Config& config() const { return config_; }
  const Counters& counters() const { return counters_; }

  // Verifies the reverse-neighbor postings, the admission radii and, when
  // adaptive, the judges (vpost_) against a full recomputation from the
  // lists. O(n·l); debug builds assert it at the end of Load, tests call
  // it directly through the owning engines. (EvictSlot's own debug check
  // covers only the departed slot's holders.)
  bool VerifyPostings() const;

  // --- Bulk load (snapshot restore) -------------------------------------

  // Installs a window into this EMPTY core: row r has the q gathered
  // values features[r*q .. r*q+q), target targets[r] and arrival number
  // seqs[r], with seqs strictly ascending (the slot order every core
  // keeps). Loads the index with one tree build, computes every list from
  // one bulk exclude-self neighbor pass over `pool`
  // (DynamicIndex::NearestOthers), derives the postings, judges and
  // admission radii from those lists, and leaves every model dirty for
  // the lazy solve, like a fresh arrival's.
  // Lists are sized from the window, never from l. The lists, and so
  // every later model and imputation, are bitwise those of any core whose
  // live window is these rows; the counters start from zero.
  Status Load(const std::vector<double>& features,
              const std::vector<double>& targets,
              const std::vector<uint64_t>& seqs, ThreadPool* pool);

 private:
  // Slot i's admission radius from its current list: the distance an
  // arrival must beat-or-tie to change it. Infinite while the list is
  // below capacity (every arrival enters), else the worst kept distance.
  double ComputeBound(size_t i) const;
  // Hands slot i's recomputed bound to the index after its orders
  // changed (the index keeps it as the slot's radius, which Arrive's
  // admitters walk prunes on).
  void RefreshBound(size_t i);
  // The live neighbor of slot i ranked right after `after` (i excluded):
  // the entry a full query would return at position `rank`. False when
  // there is none. Debug builds check it against that full query.
  bool NextNeighbor(size_t i, const neighbors::Neighbor& after, size_t rank,
                    neighbors::Neighbor* out) const;

  // The kept ranks a model folds: max_ell when adaptive (a list runs
  // past it when max_ell <= vk), the whole list (cap_) at fixed l. A
  // change at a rank at or past it leaves the holder's model clean.
  size_t LearningLength() const;
  // Flips a live holder dirty, counting only clean -> dirty transitions,
  // and invalidates the adaptive global-cost cache.
  void DirtyMark(size_t i);
  void PostingsAdd(size_t s, size_t holder);
  void PostingsRemove(size_t s, size_t holder);
  void VPostAdd(size_t s, size_t judge);
  void VPostRemove(size_t s, size_t judge);

  // Fixed-l EnsureModel body (core::FitPrefix over the whole order).
  Status EnsureModelFixed(size_t i);
  // Adaptive EnsureModel body (candidate sweep / orphan fallback).
  Status EnsureModelAdaptive(size_t i);
  // Recomputes the candidate-l sequence when the live count changed; an
  // actual sequence change dirties every live tuple (their candidate
  // sweeps are stale).
  void RefreshElls();
  // One tuple's candidate sweep: fills cost_[i] and, when the tuple has
  // judges, models_[i]/chosen_ell_[i] (clearing dirty). A judgeless
  // (orphan) tuple stays dirty (its model depends on the global
  // criterion, which shifts with every arrival).
  Status EvaluateSlot(size_t i);
  // Refreshes every dirty live tuple's cost vector and re-assembles the
  // global candidate costs in the batch learner's blocked-16 merge order.
  Status EnsureGlobalCost();

  Config config_;
  size_t q_;
  // Kept list length bound: ell (fixed), or max(max_ell, vk + 1) when
  // adaptive, so every list holds both the learning order and ranks 1..vk.
  size_t cap_;

  // The only store of the gathered feature rows: identity cols over them.
  DynamicIndex index_;
  // The one ridge accumulator every solve folds into, reset per fit.
  regress::IncrementalRidge fold_;
  // The candidate sweep's lane scratch (adaptive EnsureModel).
  regress::RidgeLanes lanes_;

  // Slot-indexed state. Between compactions slots include tombstones
  // (!index_.Alive(i)); seq_of_slot_ ascends over every slot, tombstones
  // included.
  std::vector<std::vector<neighbors::Neighbor>> orders_;
  std::vector<std::vector<size_t>> postings_;
  std::vector<regress::LinearModel> models_;
  std::vector<uint8_t> dirty_;
  std::vector<double> targets_;
  std::vector<uint64_t> seq_of_slot_;
  size_t n_ = 0;
  size_t live_ = 0;
  size_t oldest_cursor_ = 0;

  // --- Adaptive state (empty vectors in fixed-l mode) ------------------
  // vpost_[i]: the judges of t_i, the j whose list holds i at a rank in
  // 1..vk (unordered; sorted ascending at evaluation, reproducing the
  // batch learner's validator order).
  std::vector<std::vector<size_t>> vpost_;
  // Cached per-slot candidate sweep results: the validation cost at every
  // candidate l (zeros for an orphan — the value its empty judge set
  // contributes to the batch global sum) and the chosen l.
  std::vector<std::vector<double>> cost_;
  std::vector<size_t> chosen_ell_;
  // Candidate-l sequence for the current live count (recomputed lazily;
  // kNoSlot sentinel = never computed).
  std::vector<size_t> ells_;
  size_t ells_live_ = kNoSlot;
  // Global candidate costs (the orphan-fallback criterion), valid until
  // any cost vector or the live set changes.
  std::vector<double> global_cost_;
  size_t fallback_ell_ = 1;
  bool global_cost_valid_ = false;

  Counters counters_;
};

// The core configuration an engine derives from its IimOptions.
OrderCore::Config MakeOrderCoreConfig(const core::IimOptions& options,
                                      size_t q);

}  // namespace iim::stream

#endif  // IIM_STREAM_ORDER_CORE_H_
