#include "stream/dynamic_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "neighbors/distance.h"

namespace iim::stream {

namespace {

// Slot visits one KD-tree build over n points costs: n·⌈log2 n⌉ (each
// point is partitioned once per tree level).
uint64_t BuildCost(size_t n) {
  uint64_t levels = 0;
  while (levels < 64 && (uint64_t{1} << levels) < n) ++levels;
  return static_cast<uint64_t>(n) * levels;
}

// NearestOthers rows per pool block.
constexpr size_t kBulkGrain = 64;

}  // namespace

DynamicIndex::DynamicIndex(std::vector<int> cols)
    : cols_(std::move(cols)), builder_(std::make_unique<ThreadPool>(1)) {
  // Bring the builder worker up now, outside any lock: its OS
  // thread-creation cost must not land inside the first launching
  // Append's writer-lock hold (the metric this index exists to bound).
  builder_->Prestart();
}

DynamicIndex::~DynamicIndex() {
  // Joining the builder pool drains any in-flight build task (which reads
  // mu_ and points_) before the rest of the members are destroyed.
  builder_.reset();
}

void DynamicIndex::InstallLocked() {
  if (pending_ == nullptr ||
      !pending_->done.load(std::memory_order_acquire)) {
    return;
  }
  if (pending_->abandoned.load(std::memory_order_acquire)) {
    // The task bailed out (injected rebuild failure) before producing a
    // tree; the live tree stays, and the tail policy relaunches later.
    ++discarded_;
  } else if (pending_->epoch == prefix_epoch_) {
    // The prefix the build covered is bit-unchanged (appends only extend
    // it), so the tree's point ids and split planes are valid against the
    // live buffer. The swap is the only tree mutation queries can ever
    // observe, and it is O(1) plus the radius raises that landed after
    // the task copied the radii (the builder computed the maxima from its
    // copy; lowered radii stay stale-high, which only costs visits).
    tree_ = std::move(pending_->tree);
    for (size_t s : raised_) tree_.RaiseRadius(s, radius_[s]);
    ++rebuilds_;
    ++swaps_;
  } else {
    // Defense in depth: unreachable today, because Compact — the only
    // epoch bump — drops pending_ in the same critical section (and
    // counts the discard there). If a future edit ever bumps the epoch
    // without resetting pending_, this guard keeps the stale tree out.
    ++discarded_;
  }
  pending_.reset();
  raised_.clear();
}

void DynamicIndex::BuildLocked() {
  scanned_at_launch_ = tail_scanned_.load(std::memory_order_relaxed);
  tree_.Build(points_.data(), n_, cols_.size());
  tree_.SetRadii(radius_.data());
  ++rebuilds_;
}

std::shared_ptr<DynamicIndex::PendingBuild> DynamicIndex::RebuildLocked() {
  scanned_at_launch_ = tail_scanned_.load(std::memory_order_relaxed);
  pending_ = std::make_shared<PendingBuild>();
  pending_->n = n_;
  pending_->epoch = prefix_epoch_;
  raised_.clear();
  // The future exists before the lock drops, so WaitForRebuild never sees
  // a pending build without one; the task itself is submitted by Launch.
  build_future_ = pending_->finished.get_future().share();
  ++launches_;
  return pending_;
}

void DynamicIndex::Launch(std::shared_ptr<PendingBuild> p) {
  if (p == nullptr) return;
  // The constructor prestarted the builder, so no Submit spawns a thread.
  builder_->Submit([this, p] {
    size_t d = cols_.size();
    auto finish = [&p] {
      p->done.store(true, std::memory_order_release);
      p->finished.set_value();
    };
    {
      // Brief reader-side pass: copy the prefix and its radii while
      // writers are out. Queries (also readers) proceed concurrently.
      // Rows [0, p->n) are bit-stable until a compaction, which bumps the
      // epoch and turns this build into a discard.
      std::shared_lock<std::shared_mutex> lock(mu_);
      if (p->epoch != prefix_epoch_) {
        finish();
        return;
      }
      p->snapshot.assign(points_.begin(),
                         points_.begin() + static_cast<long>(p->n * d));
      p->radii.assign(radius_.begin(),
                      radius_.begin() + static_cast<long>(p->n));
    }
    // Fault-injection site for the background task itself: an injected
    // error abandons this build (the live tree keeps serving and the
    // tail policy relaunches on a later append); latency stretches the
    // no-lock build window; crash kills the process mid-rebuild.
    if (!iim::fail::Inject("index.rebuild").ok()) {
      p->abandoned.store(true, std::memory_order_release);
      finish();
      return;
    }
    // The O(n log n) build runs with no lock held.
    p->tree.Build(p->snapshot.data(), p->n, d);
    p->tree.SetRadii(p->radii.data());
    p->snapshot.clear();
    p->snapshot.shrink_to_fit();
    p->radii.clear();
    p->radii.shrink_to_fit();
    finish();
  });
}

std::shared_ptr<DynamicIndex::PendingBuild>
DynamicIndex::MaybeRebuildLocked() {
  if (pending_ != nullptr) return nullptr;  // one build in flight at a time
  // Work rule: the tail scans since the last launch cost as much as the
  // build that ends them. Ceiling: a quarter of the tree, for append
  // bursts that no query reads (they never advance the count).
  uint64_t scanned =
      tail_scanned_.load(std::memory_order_relaxed) - scanned_at_launch_;
  if (scanned >= BuildCost(n_) || n_ - tree_.size() >= tree_.size() / 4) {
    return RebuildLocked();
  }
  return nullptr;
}

void DynamicIndex::Append(const data::RowView& row, double radius) {
  std::shared_ptr<PendingBuild> launch;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Stopwatch hold;  // writer-lock hold: the ingest critical section
    size_t d = cols_.size();
    // Plain push_back: capacity doubling keeps appends amortized O(1).
    // (An exact-size reserve here would force a full copy on every
    // arrival.)
    for (size_t j = 0; j < d; ++j) {
      points_.push_back(row[static_cast<size_t>(cols_[j])]);
    }
    alive_.push_back(1);
    radius_.push_back(radius);
    ++n_;
    // Adopt a finished build first: the swap shrinks the tail, which may
    // make the launch below unnecessary.
    InstallLocked();
    launch = MaybeRebuildLocked();
    max_append_hold_seconds_ =
        std::max(max_append_hold_seconds_, hold.ElapsedSeconds());
  }
  Launch(std::move(launch));
}

void DynamicIndex::SetRadius(size_t slot, double radius) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (slot >= n_ || alive_[slot] == 0 || radius_[slot] == radius) return;
  if (radius > radius_[slot]) {
    tree_.RaiseRadius(slot, radius);
    if (pending_ != nullptr && slot < pending_->n) raised_.push_back(slot);
  }
  radius_[slot] = radius;
}

double DynamicIndex::radius(size_t slot) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return slot < n_ ? radius_[slot] : kNoRadius;
}

bool DynamicIndex::Remove(size_t slot) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (slot >= n_ || alive_[slot] == 0) return false;
  alive_[slot] = 0;
  radius_[slot] = kNoRadius;
  ++dead_;
  InstallLocked();  // opportunistic, O(1)
  return true;
}

bool DynamicIndex::NeedsCompaction() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<double>(dead_) >
         kMaxTombstoneFraction * static_cast<double>(n_ - dead_);
}

std::vector<size_t> DynamicIndex::Compact() {
  size_t d = cols_.size();
  // Stage the survivor slide OFF the writer lock. The owning core
  // serializes every mutation, so this thread is the index's only writer
  // for the whole call: n_/alive_/points_ cannot change between the
  // staging pass and the install below. The shared lock makes the read
  // legal against the only concurrent actors — queries and the
  // background builder, both readers.
  std::vector<size_t> remap;
  std::vector<double> packed;
  std::vector<uint8_t> alive;
  std::vector<double> radii;
  size_t live = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (dead_ == 0) {
      // Nothing to drop. Hand back the identity map and leave the tree,
      // the prefix epoch and any in-flight build untouched — a spurious
      // Compact must never discard a build or force a rebuild.
      remap.resize(n_);
      for (size_t i = 0; i < n_; ++i) remap[i] = i;
      return remap;
    }
    live = n_ - dead_;
    remap.assign(n_, kGone);
    packed.reserve(live * d);
    radii.reserve(live);
    size_t next = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (alive_[i] == 0) continue;
      remap[i] = next++;
      packed.insert(packed.end(),
                    points_.begin() + static_cast<long>(i * d),
                    points_.begin() + static_cast<long>((i + 1) * d));
      radii.push_back(radius_[i]);
    }
    alive.assign(live, 1);
  }

  // Install: the writer lock holds only for the O(1) buffer swap and the
  // rebuild record — the same install discipline as a background-build
  // swap, so concurrent queries are never blocked behind the O(n·d)
  // slide above. The build itself is submitted after the lock drops.
  std::shared_ptr<PendingBuild> launch;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Stopwatch hold;
    points_.swap(packed);
    alive_.swap(alive);
    radius_.swap(radii);
    n_ = live;
    dead_ = 0;
    ++compactions_;
    // The prefix moved: any in-flight build is now stale. Bumping the epoch
    // makes the builder abandon (if it has not copied yet) or the installer
    // discard (if it has); dropping our pending_ reference frees the slot
    // for the post-compaction build. The orphaned task only touches its own
    // snapshot.
    ++prefix_epoch_;
    if (pending_ != nullptr) {
      ++discarded_;
      pending_.reset();
      raised_.clear();
    }
    tree_.Clear();
    // Same double-buffered machinery as Append: queries scan the whole (now
    // dense) buffer brute-force — still exact — until the replacement tree
    // lands.
    if (n_ > 0) launch = RebuildLocked();
    max_compact_hold_seconds_ =
        std::max(max_compact_hold_seconds_, hold.ElapsedSeconds());
  }
  Launch(std::move(launch));
  return remap;
}

void DynamicIndex::WaitForRebuild() {
  while (true) {
    std::shared_future<void> f;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      InstallLocked();
      if (pending_ == nullptr) return;
      f = build_future_;  // copy: concurrent waiters share the handle
      if (!f.valid()) {
        // A pending build with no future can never be waited on; looping
        // on it would re-acquire the lock forever. Launches create the
        // future under the lock, so only a corrupted state gets here:
        // treat the stale pending_ as "no build" and clear it.
        pending_.reset();
        raised_.clear();
        return;
      }
    }
    // Wait with no lock held (the builder needs the reader side).
    f.wait();
  }
}

std::vector<std::vector<neighbors::Neighbor>> DynamicIndex::NearestOthers(
    size_t k, ThreadPool* pool) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::vector<neighbors::Neighbor>> out(n_);
  size_t live = n_ - dead_;
  k = std::min(k, live > 0 ? live - 1 : 0);
  if (k == 0) return out;
  const size_t d = cols_.size();
  auto run = [&](size_t begin, size_t end) {
    // One candidate buffer per block; each list is copied out at its
    // final length, so no list keeps the scan's 2k capacity.
    std::vector<neighbors::Neighbor> buf;
    neighbors::QueryOptions options;
    options.k = k;
    for (size_t i = begin; i < end; ++i) {
      if (alive_[i] == 0) continue;
      buf.clear();
      options.exclude = i;
      neighbors::KnnScan scan(points_.data(), points_.data() + i * d, d,
                              options, &buf, AliveFilter());
      CountSearch();
      tree_.Walk(&scan);
      for (size_t t = tree_.size(); t < n_; ++t) scan.Visit(t);
      scan.Finish();
      out[i].assign(buf.begin(), buf.end());
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n_, kBulkGrain, run);
  } else {
    run(0, n_);
  }
  return out;
}

Status DynamicIndex::Load(std::vector<double> points) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t d = cols_.size();
  if (points.size() % d != 0) {
    return Status::InvalidArgument(
        "DynamicIndex::Load: point buffer is not a whole number of rows");
  }
  if (n_ != 0) {
    return Status::FailedPrecondition("DynamicIndex::Load: index is not empty");
  }
  points_ = std::move(points);
  n_ = points_.size() / d;
  alive_.assign(n_, 1);
  radius_.assign(n_, kNoRadius);
  // In place, not on the builder: the caller's next step queries every
  // row, so the tree must land first.
  BuildLocked();
  return Status::OK();
}

void DynamicIndex::CountSearch() const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  size_t tail = n_ - tree_.size();
  if (tail > 0) tail_scanned_.fetch_add(tail, std::memory_order_relaxed);
}

std::vector<neighbors::Neighbor> DynamicIndex::Query(
    const data::RowView& query,
    const neighbors::QueryOptions& options) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<neighbors::Neighbor> out;
  if (options.k == 0 || n_ - dead_ == 0) return out;
  std::vector<double> q = query.Gather(cols_);
  // The tree first: its near-first walk tightens the k-th distance
  // quickly, so most tail points then fail one squared-sum comparison
  // without a square root. The kept set is the k smallest in the
  // (distance, slot) total order whichever side a neighbor came from, so
  // every downstream result is unchanged bit for bit. The same holds for
  // the scans below.
  neighbors::KnnScan scan(points_.data(), q.data(), cols_.size(), options,
                          &out, AliveFilter());
  CountSearch();
  tree_.Walk(&scan);
  for (size_t i = tree_.size(); i < n_; ++i) scan.Visit(i);
  scan.Finish();
  return out;
}

void DynamicIndex::QueryAdmitters(
    const data::RowView& query, const neighbors::QueryOptions& options,
    std::vector<neighbors::Neighbor>* nearest,
    std::vector<neighbors::Neighbor>* admitters) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  nearest->clear();
  admitters->clear();
  if (n_ - dead_ == 0) return;
  std::vector<double> q = query.Gather(cols_);
  // One scan object serves the tail and the tree: each row's squared sum
  // is computed once and tested against both the kNN ceiling and the
  // row's own radius, and the walk enters a subtree if either test could
  // pass there.
  neighbors::AdmitScan scan(points_.data(), q.data(), cols_.size(), options,
                            nearest, AliveFilter(), radius_.data(),
                            admitters);
  CountSearch();
  tree_.Walk(&scan);
  for (size_t i = tree_.size(); i < n_; ++i) scan.Visit(i);
  scan.Finish();
  // Tree hits come out in walk order, followed by tail hits; ascending
  // slot order is what callers replaying a scan need.
  std::sort(admitters->begin(), admitters->end(),
            [](const neighbors::Neighbor& a, const neighbors::Neighbor& b) {
              return a.index < b.index;
            });
}

bool DynamicIndex::Successor(const data::RowView& query,
                             const neighbors::Neighbor& after, size_t exclude,
                             neighbors::Neighbor* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (n_ - dead_ == 0) return false;
  std::vector<double> q = query.Gather(cols_);
  neighbors::SuccessorScan scan(points_.data(), q.data(), cols_.size(), after,
                                exclude, AliveFilter());
  CountSearch();
  tree_.Walk(&scan);
  for (size_t i = tree_.size(); i < n_; ++i) scan.Visit(i);
  if (scan.found()) *out = scan.best();
  return scan.found();
}

std::vector<neighbors::Neighbor> DynamicIndex::QueryAll(
    const data::RowView& query, size_t exclude) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t d = cols_.size();
  std::vector<double> q = query.Gather(cols_);
  std::vector<neighbors::Neighbor> out;
  out.reserve(n_ - dead_);
  for (size_t i = 0; i < n_; ++i) {
    if (i == exclude || alive_[i] == 0) continue;
    out.push_back(neighbors::Neighbor{
        i, neighbors::NormalizedEuclidean(q.data(), points_.data() + i * d,
                                          d)});
  }
  std::sort(out.begin(), out.end(), neighbors::NeighborLess);
  return out;
}

size_t DynamicIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return n_ - dead_;
}

DynamicIndex::Stats DynamicIndex::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Stats s;
  s.live = n_ - dead_;
  s.slots = n_;
  s.tombstones = dead_;
  s.tree_size = tree_.size();
  s.tail_size = n_ - tree_.size();
  s.rebuilds = rebuilds_;
  s.launches = launches_;
  s.swaps = swaps_;
  s.discarded = discarded_;
  s.compactions = compactions_;
  s.rebuild_in_flight = pending_ != nullptr;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.tail_rows_scanned = tail_scanned_.load(std::memory_order_relaxed);
  s.max_append_hold_seconds = max_append_hold_seconds_;
  s.max_compact_hold_seconds = max_compact_hold_seconds_;
  return s;
}

bool DynamicIndex::VerifyRadii() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (radius_.size() != n_) return false;
  for (size_t i = 0; i < n_; ++i) {
    if (alive_[i] == 0 && radius_[i] != kNoRadius) return false;
  }
  return tree_.RadiiCovered(radius_.data());
}

}  // namespace iim::stream
