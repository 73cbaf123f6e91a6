#include "stream/persist/snapshot.h"

#include <cassert>
#include <cstring>
#include <string>

#include "common/crc32.h"

namespace iim::stream::persist {

namespace {

constexpr char kMagic[8] = {'I', 'I', 'M', 'S', 'N', 'P', '0', '1'};
constexpr char kFooterMagic[8] = {'I', 'I', 'M', 'S', 'N', 'P', 'F', 'T'};
constexpr size_t kHeaderLen = 8 + 4 + 8 + 4 + 4;
constexpr size_t kFooterLen = 4 + 8;
constexpr size_t kSectionOverhead = 4 + 8 + 4;  // tag | len | ... | crc

void AppendRaw(std::string* out, const void* p, size_t n) {
  if (n == 0) return;  // p may be null (an empty vector's data())
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void AppendScalar(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

}  // namespace

void SnapshotBuilder::BeginSection(uint32_t tag) {
  sections_.emplace_back(tag, std::string());
}

void SnapshotBuilder::PutU8(uint8_t v) {
  AppendScalar(&sections_.back().second, v);
}

void SnapshotBuilder::PutU32(uint32_t v) {
  AppendScalar(&sections_.back().second, v);
}

void SnapshotBuilder::PutU64(uint64_t v) {
  AppendScalar(&sections_.back().second, v);
}

void SnapshotBuilder::PutF64(double v) {
  AppendScalar(&sections_.back().second, v);
}

void SnapshotBuilder::PutDoubles(const double* p, size_t n) {
  AppendRaw(&sections_.back().second, p, n * sizeof(double));
}

std::string SnapshotBuilder::Finish() {
  std::string out;
  size_t total = kHeaderLen + kFooterLen;
  for (const auto& s : sections_) total += kSectionOverhead + s.second.size();
  out.reserve(total);

  AppendRaw(&out, kMagic, sizeof(kMagic));
  AppendScalar<uint32_t>(&out, kSnapshotVersion);
  AppendScalar<uint64_t>(&out, ops_);
  AppendScalar<uint32_t>(&out, static_cast<uint32_t>(sections_.size()));
  AppendScalar<uint32_t>(&out, Crc32(out.data(), out.size()));

  for (const auto& s : sections_) {
    AppendScalar<uint32_t>(&out, s.first);
    AppendScalar<uint64_t>(&out, static_cast<uint64_t>(s.second.size()));
    out.append(s.second);
    AppendScalar<uint32_t>(&out, Crc32(s.second.data(), s.second.size()));
  }

  AppendScalar<uint32_t>(&out, Crc32(out.data(), out.size()));
  AppendRaw(&out, kFooterMagic, sizeof(kFooterMagic));
  return out;
}

bool SectionReader::Take(void* out, size_t n) {
  if (failed_ || len_ - pos_ < n) {
    failed_ = true;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

uint8_t SectionReader::U8() {
  uint8_t v;
  Take(&v, sizeof(v));
  return v;
}

uint32_t SectionReader::U32() {
  uint32_t v;
  Take(&v, sizeof(v));
  return v;
}

uint64_t SectionReader::U64() {
  uint64_t v;
  Take(&v, sizeof(v));
  return v;
}

double SectionReader::F64() {
  double v;
  Take(&v, sizeof(v));
  return v;
}

void SectionReader::Doubles(double* out, size_t n) {
  if (n == 0) return;  // out may be null (an empty vector's data())
  if (failed_ || len_ - pos_ < n * sizeof(double)) {
    failed_ = true;
    std::memset(out, 0, n * sizeof(double));
    return;
  }
  std::memcpy(out, data_ + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
}

Status SectionReader::status() const {
  if (failed_) {
    return Status::OutOfRange("snapshot section payload exhausted mid-decode");
  }
  if (pos_ != len_) {
    return Status::IoError("snapshot section holds " +
                           std::to_string(len_ - pos_) + " unread bytes");
  }
  return Status::OK();
}

Result<SnapshotView> SnapshotView::Parse(const std::string& bytes) {
  auto corrupt = [](const char* what) {
    return Status::IoError(std::string("snapshot rejected: ") + what);
  };
  if (bytes.size() < kHeaderLen + kFooterLen) return corrupt("truncated");
  const char* p = bytes.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic");
  }
  uint32_t version, nsections, header_crc;
  uint64_t ops;
  std::memcpy(&version, p + 8, 4);
  std::memcpy(&ops, p + 12, 8);
  std::memcpy(&nsections, p + 20, 4);
  std::memcpy(&header_crc, p + 24, 4);
  if (header_crc != Crc32(p, kHeaderLen - 4)) return corrupt("header CRC");
  if (version != kSnapshotVersion) return corrupt("unknown version");

  // Whole-file CRC next: it covers every section, so a single pass
  // decides validity before any per-section work.
  size_t footer_at = bytes.size() - kFooterLen;
  if (std::memcmp(p + footer_at + 4, kFooterMagic, sizeof(kFooterMagic)) !=
      0) {
    return corrupt("bad footer magic");
  }
  uint32_t file_crc;
  std::memcpy(&file_crc, p + footer_at, 4);
  if (file_crc != Crc32(p, footer_at)) return corrupt("file CRC");

  SnapshotView view;
  view.ops_ = ops;
  size_t pos = kHeaderLen;
  for (uint32_t s = 0; s < nsections; ++s) {
    if (footer_at - pos < kSectionOverhead) return corrupt("section bounds");
    uint32_t tag, crc;
    uint64_t len;
    std::memcpy(&tag, p + pos, 4);
    std::memcpy(&len, p + pos + 4, 8);
    if (len > footer_at - pos - kSectionOverhead) {
      return corrupt("section length");
    }
    const char* payload = p + pos + 12;
    std::memcpy(&crc, payload + len, 4);
    if (crc != Crc32(payload, static_cast<size_t>(len))) {
      return corrupt("section CRC");
    }
    view.spans_.push_back(Span{tag, payload, static_cast<size_t>(len)});
    pos += kSectionOverhead + static_cast<size_t>(len);
  }
  if (pos != footer_at) return corrupt("trailing bytes");
  return view;
}

Result<SectionReader> SnapshotView::Section(uint32_t tag) const {
  for (const Span& s : spans_) {
    if (s.tag == tag) return SectionReader(s.data, s.len);
  }
  return Status::NotFound("snapshot has no section with the requested tag");
}

}  // namespace iim::stream::persist
