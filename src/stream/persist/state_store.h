// StateStore: one engine's durable home directory (src/stream/persist).
//
// Directory layout (one directory per engine):
//
//   snap-<P>.snap   full engine snapshot covering ops [0, P)
//   wal-<P>.log     arrival-log segment starting at op P
//   *.tmp           in-flight atomic writes (deleted on open)
//
// "Op" counts the engine's logged mutations (explicit ingests + explicit
// evictions) since birth. Invariants the layout maintains:
//
//   * The active segment is the one with the largest start; it was
//     created by the most recent StartLogging or rotation.
//   * Rotation (BeginSnapshot at op P) syncs and closes the old segment,
//     opens wal-<P>.log, and only then hands snap-<P> to the background
//     writer. A crash at any point leaves either timeline recoverable.
//   * Recovery = newest snapshot that validates end-to-end (invalid ones
//     are deleted — they are dead timelines) + the contiguous chain of
//     segments from its op count, each contributing its longest valid
//     record prefix; the chain stops at the first gap, torn tail, or
//     unreadable segment. No valid snapshot at all degrades to a cold
//     engine + replay from wal-0 (graceful degradation, never an error).
//   * StartLogging(P) deletes segments starting past P (orphans of a
//     dead timeline) and truncates/creates wal-<P>.log, so repeated
//     crash/recover cycles keep converging on one self-consistent
//     timeline.
//   * Retention after each completed snapshot keeps the newest
//     `keep_snapshots` snapshots plus every segment still needed to
//     replay from the OLDEST kept one — so a corrupted newest snapshot
//     always has a fallback with full log coverage.
//
// Snapshot writes never block the ingest path: the serialized bytes are
// handed to a lazily-started 1-thread ThreadPool task that writes
// tmp -> fsync -> rename -> fsync dir; the engine thread harvests the
// result (and runs retention) on a later call. Thread-safety: externally
// synchronized like the engines; only the background task runs
// concurrently, and it touches nothing but its own PendingWrite.

#ifndef IIM_STREAM_PERSIST_STATE_STORE_H_
#define IIM_STREAM_PERSIST_STATE_STORE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "stream/persist/wal.h"

namespace iim::stream::persist {

struct StoreOptions {
  std::string dir;
  // Trigger a background snapshot once this many ops were logged since
  // the last one (0 = only explicit SaveSnapshot calls).
  size_t snapshot_every = 0;
  // WalWriter fsync policy (see WalWriter::Open).
  size_t wal_fsync_every = 0;
  // Snapshots retained by GC (min 1).
  size_t keep_snapshots = 2;
};

class StateStore {
 public:
  // Opens (creating if needed) the directory and computes the recovery
  // plan: the newest valid snapshot and the segment chain behind it.
  static Result<std::unique_ptr<StateStore>> Open(const StoreOptions& opt);

  // Waits for any in-flight snapshot write, then syncs and closes the
  // active segment.
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  // --- Recovery plan (valid between Open and StartLogging) -------------
  bool has_snapshot() const { return has_snapshot_; }
  const std::string& snapshot_bytes() const { return snapshot_bytes_; }
  uint64_t snapshot_ops() const { return snapshot_ops_; }
  // Reads the contiguous record chain following the recovered snapshot.
  std::vector<WalRecord> ReplayTail() const;

  // Call once, after replay: `ops` = snapshot_ops() + records actually
  // applied. Prunes dead-timeline segments and opens the active segment.
  // Also releases the recovery plan's snapshot buffer.
  Status StartLogging(uint64_t ops);

  // --- Logging (log-then-apply: call BEFORE applying the op; on error
  // the op must be rejected unapplied) ----------------------------------
  Status LogIngest(const double* row, size_t ncols);
  Status LogEvict(uint64_t arrival);
  // Ops durably logged across the store's whole history (snapshot base +
  // replayed + logged since).
  uint64_t ops_logged() const { return ops_; }
  // Folds `delta` ops that were applied WITHOUT logging (degraded-mode
  // non-durable accepts) into the op count. Only meaningful immediately
  // before a blocking snapshot that covers the engine's current state —
  // the snapshot's op count then matches what it actually contains, and
  // the rotated segment continues from there.
  void AdvanceOps(uint64_t delta) { ops_ += delta; }

  // --- Checkpointing ----------------------------------------------------
  // True once snapshot_every ops accumulated since the last checkpoint
  // and no background write is still in flight.
  bool snapshot_due() const;
  // Rotates the WAL at the current op count and hands `bytes` (a
  // snapshot covering exactly ops_logged() ops) to the background
  // writer. The serialize itself — the only part that reads engine state
  // — already happened on the calling thread.
  Status BeginSnapshot(std::string bytes);
  // Synchronous variant (explicit SaveSnapshot, shutdown): waits for any
  // in-flight write first, then rotates, writes and runs retention
  // before returning.
  Status WriteSnapshotBlocking(std::string bytes);
  // Collects finished background writes since the last call: adds 1 to
  // *written or *failed per completed write (at most one can be pending)
  // and runs retention after a success.
  void Harvest(size_t* written, size_t* failed);
  // Waits out any in-flight snapshot write and syncs the active segment.
  Status Flush();

 private:
  struct PendingWrite {
    std::string path;
    std::string bytes;
    std::atomic<bool> done{false};
    Status status;
  };

  explicit StateStore(const StoreOptions& opt);

  std::string SnapPath(uint64_t ops) const;
  std::string WalPath(uint64_t start_op) const;
  // Scans the directory into sorted snapshot-op and segment-start lists.
  Status ScanDir(std::vector<uint64_t>* snap_ops,
                 std::vector<uint64_t>* wal_starts) const;
  // Retention: prune old snapshots and fully-covered segments.
  void CollectGarbage();

  StoreOptions opt_;

  // Recovery plan.
  bool has_snapshot_ = false;
  std::string snapshot_bytes_;
  uint64_t snapshot_ops_ = 0;
  std::vector<uint64_t> replay_starts_;  // contiguity re-checked at read

  std::unique_ptr<WalWriter> wal_;
  uint64_t ops_ = 0;
  uint64_t last_checkpoint_ops_ = 0;

  std::shared_ptr<PendingWrite> pending_;
  std::future<void> pending_future_;
  // Lazy single worker: engines that never checkpoint never spawn it.
  // Declared last so its destructor (draining the in-flight write task)
  // runs before the members the task could touch are gone.
  ThreadPool writer_pool_{1};
};

}  // namespace iim::stream::persist

#endif  // IIM_STREAM_PERSIST_STATE_STORE_H_
