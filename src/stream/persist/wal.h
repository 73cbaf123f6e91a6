// Append-only write-ahead arrival log (src/stream/persist).
//
// One segment file covers the engine ops [start_op, next segment's
// start): every explicit Ingest and Evict is logged BEFORE it is applied,
// so recovery — latest valid snapshot + replay of the contiguous segment
// tail through the normal Ingest/Evict path — reconstructs exactly the
// acknowledged state. Window auto-evictions and compactions are never
// logged: they are deterministic consequences of the logged ops and
// replay re-derives them.
//
// Segment layout:
//
//   header  "IIMWAL01" | u64 start_op | u32 crc(preceding 16 bytes)
//   record  u32 len | u32 crc(payload) | payload[len]            (x many)
//   payload u8 kind; kind 1 (ingest): u32 ncols | ncols f64 (the full row)
//                    kind 2 (evict):  u64 arrival
//
// Readers take the longest valid prefix: the first short, oversized or
// CRC-failing record ends the segment (a torn tail from a crash mid-
// append loses at most the unacknowledged op being written). Writers
// enforce the same invariant from their side: a failed append (disk
// full, short write) is truncated back to the previous record boundary,
// so one failed op never poisons the records behind or after it.

#ifndef IIM_STREAM_PERSIST_WAL_H_
#define IIM_STREAM_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stream/persist/io.h"

namespace iim::stream::persist {

struct WalRecord {
  enum Kind : uint8_t { kIngest = 1, kEvict = 2 };
  Kind kind = kIngest;
  std::vector<double> row;  // ingest: the full-arity tuple
  uint64_t arrival = 0;     // evict: the victim's arrival number
};

// A parsed segment: its starting op number and the longest valid record
// prefix.
struct WalSegment {
  uint64_t start_op = 0;
  std::vector<WalRecord> records;
};

// Reads and validates one segment. An unreadable or header-corrupt file
// is an error (the caller treats the timeline as ending before it);
// record-level corruption is NOT an error — it just ends the prefix.
Result<WalSegment> ReadWalSegment(const std::string& path);

// Appends records to one fresh segment file. Not thread-safe.
class WalWriter {
 public:
  // Creates/truncates `path` and writes the segment header.
  // fsync_every: 0 = sync only on Sync()/Close() (rotation, shutdown —
  // fastest, a crash can lose the OS-buffered tail); N = additionally
  // fsync after every Nth record (N = 1 is classic synchronous WAL:
  // nothing acknowledged is ever lost).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t start_op,
                                                 size_t fsync_every);

  // Log-then-apply primitives. On error NOTHING was durably appended
  // (the torn suffix is truncated away) — the caller must reject the op
  // without applying it, which keeps recovered state == acknowledged
  // state even on a full disk.
  Status AppendIngest(const double* row, size_t ncols);
  Status AppendEvict(uint64_t arrival);

  Status Sync();
  // Sync + close; the destructor closes without syncing (crash path).
  Status Close();

  uint64_t records() const { return records_; }

 private:
  WalWriter(std::unique_ptr<Writer> out, size_t fsync_every)
      : out_(std::move(out)), fsync_every_(fsync_every) {}

  Status AppendRecord(const std::string& payload);

  std::unique_ptr<Writer> out_;
  size_t fsync_every_;
  uint64_t records_ = 0;
  // Set when a failed append could not be truncated away: the file may
  // end in garbage, so further appends (which would land after it and be
  // unreachable to the prefix reader) are refused.
  bool broken_ = false;
};

}  // namespace iim::stream::persist

#endif  // IIM_STREAM_PERSIST_WAL_H_
