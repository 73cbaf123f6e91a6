#include "stream/persist/wal.h"

#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace iim::stream::persist {

namespace {

constexpr char kMagic[8] = {'I', 'I', 'M', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderLen = 8 + 8 + 4;
constexpr size_t kRecordOverhead = 4 + 4;  // len | crc
// Sanity bound on one record: a full-arity row of even an absurdly wide
// relation stays far below this, so a corrupted length field cannot make
// the reader swallow the rest of the file as one "record".
constexpr uint32_t kMaxRecordLen = 1u << 26;

template <typename T>
void AppendScalar(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t start_op,
                                                   size_t fsync_every) {
  Result<std::unique_ptr<Writer>> out = OpenWriter(path);
  if (!out.ok()) return out.status();
  std::string header;
  header.reserve(kHeaderLen);
  header.append(kMagic, sizeof(kMagic));
  AppendScalar<uint64_t>(&header, start_op);
  AppendScalar<uint32_t>(&header, Crc32(header.data(), header.size()));
  std::unique_ptr<WalWriter> w(
      new WalWriter(std::move(out).value(), fsync_every));
  RETURN_IF_ERROR(w->out_->Append(header.data(), header.size()));
  return w;
}

Status WalWriter::AppendRecord(const std::string& payload) {
  if (broken_) {
    return Status::IoError(
        "write-ahead log: a previous failed append could not be rolled "
        "back; the segment is closed to further records");
  }
  uint64_t before = out_->size();
  std::string rec;
  rec.reserve(kRecordOverhead + payload.size());
  AppendScalar<uint32_t>(&rec, static_cast<uint32_t>(payload.size()));
  AppendScalar<uint32_t>(&rec, Crc32(payload.data(), payload.size()));
  rec.append(payload);
  Status st = out_->Append(rec.data(), rec.size());
  if (st.ok()) {
    ++records_;
    if (fsync_every_ > 0 && records_ % fsync_every_ == 0) {
      st = iim::fail::Inject("wal.fsync");
      if (st.ok()) st = out_->Sync();
      if (!st.ok()) {
        // The record reached the file but may not be durable: roll it
        // back so the acknowledged and recovered timelines stay equal.
        --records_;
        if (!out_->Truncate(before).ok()) broken_ = true;
        return st;
      }
    }
    return Status::OK();
  }
  // Short write: cut the torn suffix so the NEXT record (or the prefix
  // reader) starts at a clean boundary.
  if (!out_->Truncate(before).ok()) broken_ = true;
  return st;
}

Status WalWriter::AppendIngest(const double* row, size_t ncols) {
  std::string payload;
  payload.reserve(1 + 4 + ncols * sizeof(double));
  payload.push_back(static_cast<char>(WalRecord::kIngest));
  AppendScalar<uint32_t>(&payload, static_cast<uint32_t>(ncols));
  payload.append(reinterpret_cast<const char*>(row), ncols * sizeof(double));
  return AppendRecord(payload);
}

Status WalWriter::AppendEvict(uint64_t arrival) {
  std::string payload;
  payload.reserve(1 + 8);
  payload.push_back(static_cast<char>(WalRecord::kEvict));
  AppendScalar<uint64_t>(&payload, arrival);
  return AppendRecord(payload);
}

Status WalWriter::Sync() { return out_->Sync(); }

Status WalWriter::Close() { return out_->Close(); }

Result<WalSegment> ReadWalSegment(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& b = bytes.value();
  if (b.size() < kHeaderLen ||
      std::memcmp(b.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("write-ahead segment rejected: bad header");
  }
  uint32_t header_crc;
  std::memcpy(&header_crc, b.data() + 16, 4);
  if (header_crc != Crc32(b.data(), kHeaderLen - 4)) {
    return Status::IoError("write-ahead segment rejected: header CRC");
  }
  WalSegment seg;
  std::memcpy(&seg.start_op, b.data() + 8, 8);

  size_t pos = kHeaderLen;
  while (b.size() - pos >= kRecordOverhead) {
    uint32_t len, crc;
    std::memcpy(&len, b.data() + pos, 4);
    std::memcpy(&crc, b.data() + pos + 4, 4);
    if (len > kMaxRecordLen || len > b.size() - pos - kRecordOverhead) break;
    const char* payload = b.data() + pos + kRecordOverhead;
    if (crc != Crc32(payload, len)) break;

    WalRecord rec;
    if (len >= 1 && payload[0] == WalRecord::kIngest) {
      if (len < 5) break;
      uint32_t ncols;
      std::memcpy(&ncols, payload + 1, 4);
      if (len != 5 + static_cast<uint64_t>(ncols) * sizeof(double)) break;
      rec.kind = WalRecord::kIngest;
      rec.row.resize(ncols);
      std::memcpy(rec.row.data(), payload + 5, ncols * sizeof(double));
    } else if (len == 9 && payload[0] == WalRecord::kEvict) {
      rec.kind = WalRecord::kEvict;
      std::memcpy(&rec.arrival, payload + 1, 8);
    } else {
      break;  // unknown kind or malformed payload: prefix ends here
    }
    seg.records.push_back(std::move(rec));
    pos += kRecordOverhead + len;
  }
  return seg;
}

}  // namespace iim::stream::persist
