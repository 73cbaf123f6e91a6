#include "stream/persist/state_store.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/failpoint.h"
#include "stream/persist/snapshot.h"

namespace iim::stream::persist {

namespace {

// Matches "<prefix><decimal digits><suffix>" exactly.
bool ParseNumberedName(const std::string& name, const std::string& prefix,
                       const std::string& suffix, uint64_t* num) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
      0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *num = v;
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

StateStore::StateStore(const StoreOptions& opt) : opt_(opt) {
  if (opt_.keep_snapshots == 0) opt_.keep_snapshots = 1;
}

std::string StateStore::SnapPath(uint64_t ops) const {
  return opt_.dir + "/snap-" + std::to_string(ops) + ".snap";
}

std::string StateStore::WalPath(uint64_t start_op) const {
  return opt_.dir + "/wal-" + std::to_string(start_op) + ".log";
}

Status StateStore::ScanDir(std::vector<uint64_t>* snap_ops,
                           std::vector<uint64_t>* wal_starts) const {
  Result<std::vector<std::string>> names = ListDir(opt_.dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    uint64_t num;
    if (ParseNumberedName(name, "snap-", ".snap", &num)) {
      snap_ops->push_back(num);
    } else if (ParseNumberedName(name, "wal-", ".log", &num)) {
      wal_starts->push_back(num);
    }
  }
  std::sort(snap_ops->begin(), snap_ops->end());
  std::sort(wal_starts->begin(), wal_starts->end());
  return Status::OK();
}

Result<std::unique_ptr<StateStore>> StateStore::Open(const StoreOptions& opt) {
  if (opt.dir.empty()) {
    return Status::InvalidArgument("StateStore: empty directory");
  }
  RETURN_IF_ERROR(EnsureDir(opt.dir));
  std::unique_ptr<StateStore> store(new StateStore(opt));

  // Sweep in-flight atomic writes a crash left behind; they were never
  // published (the rename is the publication).
  Result<std::vector<std::string>> names = ListDir(opt.dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    if (EndsWith(name, ".tmp")) {
      (void)RemoveFile(opt.dir + "/" + name);
    }
  }

  std::vector<uint64_t> snap_ops, wal_starts;
  RETURN_IF_ERROR(store->ScanDir(&snap_ops, &wal_starts));

  // Newest snapshot that validates end-to-end wins; invalid ones are
  // dead timelines — deleted so retention and later recoveries never
  // count them again.
  for (auto it = snap_ops.rbegin(); it != snap_ops.rend(); ++it) {
    std::string path = store->SnapPath(*it);
    Result<std::string> bytes = ReadFileToString(path);
    if (bytes.ok()) {
      Result<SnapshotView> view = SnapshotView::Parse(bytes.value());
      if (view.ok() && view.value().ops_covered() == *it) {
        store->has_snapshot_ = true;
        store->snapshot_bytes_ = std::move(bytes).value();
        store->snapshot_ops_ = *it;
        break;
      }
    }
    (void)RemoveFile(path);
  }
  store->replay_starts_ = std::move(wal_starts);
  return store;
}

StateStore::~StateStore() {
  if (pending_future_.valid()) pending_future_.wait();
  if (wal_ != nullptr) (void)wal_->Close();
}

std::vector<WalRecord> StateStore::ReplayTail() const {
  std::vector<WalRecord> out;
  uint64_t current = snapshot_ops_;
  for (uint64_t start : replay_starts_) {
    if (start < snapshot_ops_) continue;  // covered by the snapshot
    if (start != current) break;          // gap: the timeline ends here
    Result<WalSegment> seg = ReadWalSegment(WalPath(start));
    if (!seg.ok()) break;
    for (WalRecord& rec : seg.value().records) {
      out.push_back(std::move(rec));
      ++current;
    }
    // A torn tail does NOT end the chain by itself: segments are only
    // created by StartLogging/rotation at exactly their start op, so a
    // later segment aligned with `current` is a legitimate continuation
    // (a prior recovery replayed this same prefix and logged onward; the
    // torn suffix is dead bytes). A misaligned successor — the only way
    // records were really lost — fails the start != current check above.
  }
  return out;
}

Status StateStore::StartLogging(uint64_t ops) {
  assert(wal_ == nullptr && "StartLogging must be called exactly once");
  // Orphan segments past the recovered point are dead timelines; a
  // future recovery must not chain into them.
  for (uint64_t start : replay_starts_) {
    if (start > ops) (void)RemoveFile(WalPath(start));
  }
  replay_starts_.clear();
  snapshot_bytes_.clear();
  snapshot_bytes_.shrink_to_fit();

  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::Open(WalPath(ops), ops, opt_.wal_fsync_every);
  if (!w.ok()) return w.status();
  wal_ = std::move(w).value();
  ops_ = ops;
  last_checkpoint_ops_ = ops;
  return SyncDir(opt_.dir);
}

Status StateStore::LogIngest(const double* row, size_t ncols) {
  if (wal_ == nullptr) {
    return Status::IoError("StateStore: no active write-ahead segment");
  }
  IIM_FAIL_POINT("wal.append");
  RETURN_IF_ERROR(wal_->AppendIngest(row, ncols));
  ++ops_;
  return Status::OK();
}

Status StateStore::LogEvict(uint64_t arrival) {
  if (wal_ == nullptr) {
    return Status::IoError("StateStore: no active write-ahead segment");
  }
  IIM_FAIL_POINT("wal.append");
  RETURN_IF_ERROR(wal_->AppendEvict(arrival));
  ++ops_;
  return Status::OK();
}

bool StateStore::snapshot_due() const {
  return opt_.snapshot_every > 0 && pending_ == nullptr &&
         ops_ - last_checkpoint_ops_ >= opt_.snapshot_every;
}

Status StateStore::BeginSnapshot(std::string bytes) {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "StateStore: a snapshot write is already in flight");
  }
  // Rotate first: the snapshot covers ops [0, ops_), the fresh segment
  // logs [ops_, ...). A crash before the background write lands falls
  // back to the previous snapshot and replays BOTH segments.
  Status close_st;
  if (wal_ != nullptr) {
    close_st = wal_->Close();
    wal_.reset();
  }
  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::Open(WalPath(ops_), ops_, opt_.wal_fsync_every);
  if (!w.ok()) return w.status();  // wal_ stays null: further ops refused
  wal_ = std::move(w).value();
  RETURN_IF_ERROR(SyncDir(opt_.dir));
  last_checkpoint_ops_ = ops_;

  pending_ = std::make_shared<PendingWrite>();
  pending_->path = SnapPath(ops_);
  pending_->bytes = std::move(bytes);
  std::shared_ptr<PendingWrite> p = pending_;
  pending_future_ = writer_pool_.Submit([p] {
    p->status = AtomicWriteFile(p->path, p->bytes);
    p->bytes.clear();
    p->bytes.shrink_to_fit();
    p->done.store(true, std::memory_order_release);
  });
  return close_st;
}

Status StateStore::WriteSnapshotBlocking(std::string bytes) {
  if (pending_ != nullptr) {
    return Status::FailedPrecondition(
        "StateStore: harvest the in-flight snapshot write first");
  }
  Status close_st;
  if (wal_ != nullptr) {
    close_st = wal_->Close();
    wal_.reset();
  }
  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::Open(WalPath(ops_), ops_, opt_.wal_fsync_every);
  if (!w.ok()) return w.status();
  wal_ = std::move(w).value();
  RETURN_IF_ERROR(SyncDir(opt_.dir));
  last_checkpoint_ops_ = ops_;
  RETURN_IF_ERROR(close_st);
  RETURN_IF_ERROR(AtomicWriteFile(SnapPath(ops_), bytes));
  CollectGarbage();
  return Status::OK();
}

void StateStore::Harvest(size_t* written, size_t* failed) {
  if (pending_ == nullptr ||
      !pending_->done.load(std::memory_order_acquire)) {
    return;
  }
  if (pending_->status.ok()) {
    ++*written;
    CollectGarbage();
  } else {
    ++*failed;
  }
  pending_.reset();
  pending_future_ = std::future<void>();
}

Status StateStore::Flush() {
  if (pending_future_.valid()) pending_future_.wait();
  if (wal_ != nullptr) return wal_->Sync();
  return Status::OK();
}

void StateStore::CollectGarbage() {
  std::vector<uint64_t> snap_ops, wal_starts;
  if (!ScanDir(&snap_ops, &wal_starts).ok()) return;
  if (snap_ops.empty()) return;
  size_t keep = std::min(opt_.keep_snapshots, snap_ops.size());
  uint64_t oldest_kept = snap_ops[snap_ops.size() - keep];
  for (size_t i = 0; i + keep < snap_ops.size(); ++i) {
    (void)RemoveFile(SnapPath(snap_ops[i]));
  }
  // A segment is disposable once the NEXT segment starts at or before
  // the oldest kept snapshot — every op it holds is then covered. The
  // active segment (largest start) is never a candidate.
  for (size_t i = 0; i + 1 < wal_starts.size(); ++i) {
    if (wal_starts[i + 1] <= oldest_kept) {
      (void)RemoveFile(WalPath(wal_starts[i]));
    }
  }
}

}  // namespace iim::stream::persist
