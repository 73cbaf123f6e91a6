// DynamicIndex: an appendable exact nearest-neighbor index for streaming
// ingestion with sliding-window eviction.
//
// Points live in one flat contiguous row-major buffer with amortized
// growth. A FlatKdTree covers the immutable prefix that existed at the
// last rebuild; arrivals since then sit in an unindexed tail that queries
// scan brute-force. The tree is rebuilt over everything as soon as the
// tail has cost as much as the rebuild would: every Query,
// QueryAdmitters and Successor adds the tail slots it scanned to a
// counter, and Append launches a rebuild once the scans since the last
// launch reach the build's own n·⌈log2 n⌉ slot visits. Those builds
// never cost more than the scans that paid for them, and a stream
// issuing q tail-scanning queries per append keeps its tail near
// sqrt(2·n·log2 n / q) rows instead of letting it grow with n. Appends
// no query reads never advance the counter, so a ceiling catches them:
// a tail of a quarter of the tree also triggers a rebuild, which keeps
// query-free bursts at amortized O(log n) rebuilds. Both rules hold from
// the first append (an empty tree's ceiling is zero), so a window of any
// size gets its tree.
//
// Besides plain kNN, the index answers the two questions the streaming
// order maintenance asks:
//   - QueryAdmitters: the newcomer's kNN plus every live slot whose
//     distance to it is <= that slot's own radius (ties included). Each
//     slot carries one radius (SetRadius; the owner's admission bound),
//     the tree keeps each subtree's max radius, and the walk skips any
//     subtree whose box lies beyond that max — the subtree-max pruning of
//     the RdNN-tree (Yang & Lin, ICDE 2001). A raised radius lifts the
//     maxima on its leaf-to-root path at once; a lowered one leaves them
//     stale-high (extra visits only) until the next tree install
//     recomputes them. An infinite radius simply disables pruning above
//     its slot.
//   - Successor: the nearest live slot ranked strictly after a given
//     (distance, slot) pair — one k = 1 style walk where a full query
//     would fetch every neighbor up to it.
// Every scan, tree leaf and tail alike, tests SquaredL2 against a
// conservatively widened squared threshold and takes the square root only
// for rows that pass (neighbors/distance.h).
//
// Rebuilds happen OFF the ingest path: the replacement tree is built
// double-buffered on a ThreadPool task — a brief shared-lock pass copies
// the prefix and its radii, the O(n log n) build runs with no lock held —
// while arrivals keep landing in the brute-force tail and queries keep
// hitting old-tree + tail. Writers record the build and its future under
// the lock but hand the task to the builder only after releasing it, so a
// preempted launcher never holds the lock. The next writer operation
// installs the finished tree with a pointer swap, replaying the radius
// raises that landed during the build, and the tail shrinks to the
// arrivals that came in meanwhile. A compaction racing the build bumps the
// prefix epoch, and the stale result is discarded at install time.
// Per-arrival cost is thereby bounded: the worst Append does an O(1) push
// plus a swap, never an O(n log n) build under the writer lock.
//
// Eviction is two-phase. Remove(slot) *tombstones* the row: it stays in
// the buffer (slot ids of the survivors are untouched) but every query
// skips it — the tail scan checks the bitmap, the tree search takes it as
// an alive-filter. Once tombstones pile up past a quarter of the live
// rows (NeedsCompaction), the owner calls Compact(): dead rows are
// physically dropped, survivors slide onto a dense prefix in their
// original relative order (radii with them), a rebuild over the survivors
// is launched through the same background machinery (queries scan
// brute-force until it lands), and the old-slot -> new-slot map is
// returned so the owner can remap its own slot-indexed state.
//
// Coordinates, of stored points and of queries alike, must be finite: a
// tree walk from an infinite coordinate can return a different neighbor
// than a brute-force scan (its box and split distances can turn NaN on
// inf - inf). OnlineIim refuses non-finite features at Ingest, at every
// impute request and in a restored snapshot, so none reach the index.
//
// Results are bit-identical to a BruteForceIndex over the live points for
// every append/remove/compact interleaving AND every rebuild timing: tree
// and tail use the same Formula 1 distance and the same (distance, slot)
// tie order, the tree/tail boundary never changes which neighbors win,
// and compaction preserves relative slot order so ties keep breaking the
// same way.
//
// Concurrency: appends, removals, radius updates and compaction take the
// writer side of a shared_mutex, queries the reader side for their whole
// duration, so an in-flight query always sees a consistent snapshot — it
// can never observe a half-appended point, a buffer mid-reallocation, or
// a half-compacted slot mapping. The background builder reads only its
// own prefix copy (taken under a reader lock), so it races with nothing.
// Point and Alive are the unlocked reads: the writer reads its own stored
// rows and tombstones, which nothing but that same thread ever changes
// (Compact already relies on it being the only mutator), so other threads
// hold at most reader locks while it reads.

#ifndef IIM_STREAM_DYNAMIC_INDEX_H_
#define IIM_STREAM_DYNAMIC_INDEX_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "neighbors/kdtree.h"

namespace iim::stream {

class DynamicIndex final : public neighbors::NeighborIndex {
 public:
  // One coherent snapshot of every counter, taken under a single lock
  // acquisition, so a background swap cannot land between two fields.
  struct Stats {
    size_t live = 0;        // non-tombstoned rows
    size_t slots = 0;       // including tombstones
    size_t tombstones = 0;
    size_t tree_size = 0;   // points covered by the installed tree
    size_t tail_size = 0;   // slots - tree_size: brute-force scanned
    size_t rebuilds = 0;    // trees installed (Load builds + swaps)
    size_t launches = 0;    // background builds launched
    size_t swaps = 0;       // background builds installed
    size_t discarded = 0;   // background builds dropped (compaction raced)
    size_t compactions = 0;
    bool rebuild_in_flight = false;
    // Lifetime searches: one per Query, QueryAdmitters and Successor
    // call, one per row of NearestOthers. QueryAll scans everything and
    // does not count, nor does a call that returns before searching (no
    // live row, or k == 0).
    uint64_t queries = 0;
    // Lifetime brute-tail slots those searches visited (tombstones
    // included). The work rule launches a rebuild once this advances by
    // one build's cost.
    uint64_t tail_rows_scanned = 0;
    // Longest writer-lock hold inside one Append — the ingest critical
    // section that bounds both arrival latency and how long concurrent
    // queries can be blocked: the O(1) push plus, at most, a tree swap
    // and a build launch, never the O(n log n) build itself. (Wall-clock
    // per-arrival percentiles can hide a long hold on single-core
    // machines, where the builder competes for the CPU; this cannot.)
    double max_append_hold_seconds = 0.0;
    // Same for Compact: the buffer swap and the rebuild launch (the
    // survivor slide is staged under the reader lock).
    double max_compact_hold_seconds = 0.0;
  };

  // Compact()'s remap value for evicted slots.
  static constexpr size_t kGone = static_cast<size_t>(-1);
  // NeedsCompaction()'s tombstone share of the live rows.
  static constexpr double kMaxTombstoneFraction = 0.25;
  // The radius of a slot that admits nothing: every slot's radius until
  // set, and a tombstoned slot's from Remove on.
  static constexpr double kNoRadius = -std::numeric_limits<double>::infinity();

  // Indexes attribute subset `cols` of rows appended later; `cols` must be
  // non-empty. Starts empty.
  explicit DynamicIndex(std::vector<int> cols);
  ~DynamicIndex() override;

  // Appends one full-arity row (its `cols` values are gathered, matching
  // the BruteForceIndex constructor) with its admission radius, growing
  // the buffer amortized-O(1); the new row's slot id is the current
  // stats().slots count. May launch (or install) a background rebuild per
  // the tail policy — but never blocks on one.
  void Append(const data::RowView& row, double radius = kNoRadius);

  // Sets one live slot's radius (a no-op for an out-of-range or dead
  // slot). Raising it lifts the tree's subtree maxima on the slot's path.
  void SetRadius(size_t slot, double radius);
  double radius(size_t slot) const;

  // Tombstones one slot: it disappears from every subsequent query (its
  // radius drops to kNoRadius) but keeps occupying its slot until
  // Compact(). Returns false (a no-op) for an out-of-range or already-dead
  // slot.
  bool Remove(size_t slot);

  // True once the tombstone pile is worth a physical compaction.
  bool NeedsCompaction() const;

  // Drops tombstoned rows, slides survivors onto a dense prefix (relative
  // order preserved), Clear()s the tree and schedules a rebuild over the
  // survivors, if any (queries are brute-force and still exact until the
  // new tree lands), and returns the old-slot -> new-slot map (kGone for
  // evicted slots) for the owner's own remapping.
  //
  // The O(n·d) survivor slide is STAGED: it packs into a side buffer
  // under a reader lock (the caller is the engine's single writer, so
  // slot state is stable for the whole call and only queries / the
  // background builder share the index), and the writer lock is taken
  // only for the O(1) buffer swap + rebuild launch — the same
  // double-buffer install discipline the background rebuild uses, so a
  // compaction never blocks concurrent queries for the slide. With no
  // tombstones it early-outs with the identity map, leaving the tree,
  // the prefix epoch and any in-flight build untouched.
  std::vector<size_t> Compact();

  // The arrival hot path under ONE shared lock and one brute-tail pass:
  // `nearest` gets exactly Query(query, options), and `admitters` every
  // live slot whose Formula 1 distance to `query` is <= radius(slot)
  // (ties INCLUDED), ascending by slot with exact distances attached —
  // the (value, order) a full scan filtering each slot by its own radius
  // would produce. options.k == 0 leaves `nearest` empty.
  void QueryAdmitters(const data::RowView& query,
                      const neighbors::QueryOptions& options,
                      std::vector<neighbors::Neighbor>* nearest,
                      std::vector<neighbors::Neighbor>* admitters) const;

  // The live slot other than `exclude` nearest to `query` among those
  // ranked strictly after `after` in NeighborLess order, into *out.
  // Returns false when there is none. If a caller holds exactly the live
  // slots ranked up to `after`, this is the next entry a longer Query
  // would return, bit for bit.
  bool Successor(const data::RowView& query, const neighbors::Neighbor& after,
                 size_t exclude, neighbors::Neighbor* out) const;

  // Blocks until no background build is in flight, installing (or
  // discarding) the result. Queries never need this — results are exact
  // at every moment — it is a determinism barrier for tests, benches and
  // idle streams that want the tree fresh before a read-heavy phase.
  void WaitForRebuild();

  // The k nearest live slots to each live slot, itself excluded: entry i
  // is bit for bit what Query(row i, {k, exclude = i}) returns (empty for
  // a dead slot; k above live - 1 returns every other live slot). The
  // bulk load's neighbor lists: one reader lock for the whole pass, the
  // searches fanned out over `pool` (nullptr runs serially), one
  // candidate buffer per pool block and each list copied out at its
  // final length.
  std::vector<std::vector<neighbors::Neighbor>> NearestOthers(
      size_t k, ThreadPool* pool) const;

  // Bulk-loads gathered points (row-major, cols().size() values per row)
  // into an EMPTY index as live slots 0, 1, ... with radius kNoRadius
  // (the owner sets radii once it knows them), and builds the tree over
  // them in place rather than on the builder: a load is followed by one
  // query per row, so the tree must land first.
  Status Load(std::vector<double> points);

  std::vector<neighbors::Neighbor> Query(
      const data::RowView& query,
      const neighbors::QueryOptions& options) const override;
  std::vector<neighbors::Neighbor> QueryAll(const data::RowView& query,
                                            size_t exclude) const override;
  // Live (non-tombstoned) rows.
  size_t size() const override;

  const std::vector<int>& cols() const { return cols_; }

  // The stored point of `slot` (cols().size() gathered values, tombstoned
  // slots included until Compact), read without the lock: the index's
  // single writer only. Valid until that writer's next Append, Compact or
  // Load.
  const double* Point(size_t slot) const {
    return points_.data() + slot * cols_.size();
  }
  // Whether `slot` is live (not tombstoned), read without the lock under
  // Point's contract: the index's single writer only.
  bool Alive(size_t slot) const { return alive_[slot] != 0; }

  Stats stats() const;

  // True when the installed tree's subtree maxima cover every slot's
  // radius — the invariant QueryAdmitters prunes on. O(n).
  bool VerifyRadii() const;

 private:
  // One double-buffered tree build. The task owns a copy of the prefix it
  // covers and of its radii (taken under a reader lock once the task
  // starts), builds with no lock held, then publishes through `done` and
  // `finished`; writers install the tree if the prefix epoch still
  // matches. Shared-ptr'd so an abandoning index (Compact, destruction)
  // can just drop its reference.
  struct PendingBuild {
    size_t n = 0;           // prefix rows the build will cover
    uint64_t epoch = 0;     // prefix_epoch_ at launch
    std::vector<double> snapshot;
    std::vector<double> radii;
    neighbors::FlatKdTree tree;
    // Set by the task when the build died short of a usable tree (the
    // "index.rebuild" fail point): installed as a discard, never a swap.
    std::atomic<bool> abandoned{false};
    std::atomic<bool> done{false};
    // Resolved by the task on every exit path; its future is created
    // under the writer lock at launch, before the task is submitted.
    std::promise<void> finished;
  };

  // Counts one search and the current tail it scans (reader or writer
  // lock held by caller): every tail-scanning query calls it once.
  void CountSearch() const;
  // The scans' tombstone filter: null while every slot is live.
  const uint8_t* AliveFilter() const {
    return dead_ > 0 ? alive_.data() : nullptr;
  }
  // Adopts a finished background build (writer lock held by caller).
  void InstallLocked();
  // Builds the tree over the current slots in place and restarts the
  // work rule's count (writer lock held by caller): Load's build.
  void BuildLocked();
  // Starts a rebuild over the current slots and restarts the work rule's
  // count (writer lock held by caller; no build may be pending): records
  // the pending build and its future and returns it for Launch, which the
  // caller runs after releasing the lock.
  std::shared_ptr<PendingBuild> RebuildLocked();
  // Applies the tail policy after an append (writer lock held by caller);
  // returns RebuildLocked's build to launch, or null.
  std::shared_ptr<PendingBuild> MaybeRebuildLocked();
  // Submits a recorded build to the builder (no lock held; null is a
  // no-op).
  void Launch(std::shared_ptr<PendingBuild> p);

  std::vector<int> cols_;

  mutable std::shared_mutex mu_;
  std::vector<double> points_;  // row-major n_ x cols_.size()
  std::vector<uint8_t> alive_;  // n_ entries; 0 = tombstoned
  std::vector<double> radius_;  // n_ entries; kNoRadius when tombstoned
  size_t n_ = 0;                // slots, including tombstones
  size_t dead_ = 0;             // tombstoned slots
  neighbors::FlatKdTree tree_;  // covers points [0, tree_.size())
  // Bumped whenever prefix values move (Compact): a pending build whose
  // epoch no longer matches is discarded instead of installed.
  uint64_t prefix_epoch_ = 0;
  std::shared_ptr<PendingBuild> pending_;  // non-null while a build runs
  // Slots whose radius rose while pending_ was in flight: its radius copy
  // may predate them, so the install replays them onto the new tree.
  std::vector<size_t> raised_;
  // shared_future so concurrent WaitForRebuild callers can all block on
  // the same build instead of one consuming the handle.
  std::shared_future<void> build_future_;
  size_t rebuilds_ = 0;
  size_t launches_ = 0;
  size_t swaps_ = 0;
  size_t discarded_ = 0;
  size_t compactions_ = 0;
  // Lifetime searches and tail slots scanned (Stats::queries,
  // Stats::tail_rows_scanned). Queries bump them under the READER lock,
  // concurrently with each other, hence the relaxed atomics (counts,
  // ordering nothing else).
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> tail_scanned_{0};
  // tail_scanned_ when the last rebuild started (writer lock).
  uint64_t scanned_at_launch_ = 0;
  double max_append_hold_seconds_ = 0.0;
  double max_compact_hold_seconds_ = 0.0;

  // Created (worker prestarted) at construction, so no Append ever pays
  // thread creation; declared last so its destructor (which drains any
  // in-flight build task) runs before the members the task reads are
  // torn down.
  std::unique_ptr<ThreadPool> builder_;

  // Fault-injection hook: lets the regression test for the
  // pending-without-future hang manufacture that broken state.
  friend struct DynamicIndexTestPeer;
};

}  // namespace iim::stream

#endif  // IIM_STREAM_DYNAMIC_INDEX_H_
