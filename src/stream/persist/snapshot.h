// Versioned, checksummed, sectioned snapshot container for full engine
// state (src/stream/persist).
//
// Layout (all integers little-endian, the only byte order this library
// targets; doubles are raw IEEE-754 bits, which is what makes a restored
// engine BIT-identical to the one that wrote the snapshot):
//
//   header   "IIMSNP01" | u32 version | u64 ops_covered | u32 nsections
//            | u32 crc(preceding 24 bytes)
//   section  u32 tag | u64 len | payload[len] | u32 crc(payload)   (xN)
//   footer   u32 crc(every byte before the footer) | "IIMSNPFT"
//
// Parse validates everything — magic, header CRC, section bounds and
// CRCs, footer CRC — before a single payload byte is interpreted, so a
// truncated or bit-flipped snapshot file is rejected as a whole and
// recovery falls back to an older one (or a cold engine) instead of
// restoring half a relation. Within a section, payloads are columnar:
// whole arrays of like-typed values, written with PutU64s/PutDoubles.

#ifndef IIM_STREAM_PERSIST_SNAPSHOT_H_
#define IIM_STREAM_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace iim::stream::persist {

// Section tags. An OnlineIim writes kSecMeta, kSecEngine and kSecRows —
// only the live window: its order-maintenance state is a function of the
// window and is rebuilt at restore (src/stream/order_core.h) — and a
// monitored engine adds kSecQuality.
constexpr uint32_t kSecMeta = 1;    // config fingerprint
constexpr uint32_t kSecEngine = 2;  // ingest and impute cursors
constexpr uint32_t kSecRows = 3;    // live rows, columnar, + arrival numbers
// Quality monitor (src/stream/quality.h): the target's decayed error
// estimates, error rings, champion and probe counters. Written only by
// engines with moo_sample_rate > 0; the challenger fits themselves are
// rebuilt from the restored window instead of being serialized.
constexpr uint32_t kSecQuality = 48;

constexpr uint32_t kSnapshotVersion = 1;

// Serializes one snapshot: begin a section, put values, repeat, Finish.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(uint64_t ops_covered) : ops_(ops_covered) {}

  // Starts a new section; every Put lands in the most recent one.
  void BeginSection(uint32_t tag);

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF64(double v);
  void PutDoubles(const double* p, size_t n);

  // Seals the snapshot (header + sections + footer). The builder is
  // spent afterwards.
  std::string Finish();

 private:
  uint64_t ops_;
  std::vector<std::pair<uint32_t, std::string>> sections_;
};

// Bounds-checked sequential decoder over one section's payload. Reads
// past the end return zeros and latch an error instead of touching
// out-of-range memory — callers decode the whole section, then check
// status() once, which also refuses a section with bytes left unread.
class SectionReader {
 public:
  SectionReader() = default;
  SectionReader(const char* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  double F64();
  // Reads n doubles into out (which must hold n).
  void Doubles(double* out, size_t n);

  size_t remaining() const { return len_ - pos_; }
  bool ok() const { return !failed_; }
  // The end-of-section verdict: OutOfRange once any read overran the
  // payload, IoError while bytes remain unread, OK once exactly every
  // byte was read.
  Status status() const;

 private:
  bool Take(void* out, size_t n);

  const char* data_ = nullptr;
  size_t len_ = 0;
  size_t pos_ = 0;
  bool failed_ = false;
};

// A parsed, fully checksum-validated snapshot. Borrows the byte buffer
// passed to Parse — keep it alive while reading sections.
class SnapshotView {
 public:
  // Validates the whole container; any structural or checksum defect is
  // an error (the caller treats the file as absent).
  static Result<SnapshotView> Parse(const std::string& bytes);

  uint64_t ops_covered() const { return ops_; }

  // Reader over the unique section with `tag`; NotFound if absent.
  Result<SectionReader> Section(uint32_t tag) const;

 private:
  struct Span {
    uint32_t tag;
    const char* data;
    size_t len;
  };
  uint64_t ops_ = 0;
  std::vector<Span> spans_;
};

}  // namespace iim::stream::persist

#endif  // IIM_STREAM_PERSIST_SNAPSHOT_H_
