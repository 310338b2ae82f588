#include "src/storage/log_segment.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/checksum.h"

namespace publishing {

namespace {
constexpr char kMagic[kSegmentMagicBytes] = {'P', 'U', 'B', 'W', 'A', 'L', '0', '1'};

Status IoError(const char* what, const std::string& path) {
  return Status(StatusCode::kInternal,
                std::string(what) + " " + path + ": " + std::strerror(errno));
}
}  // namespace

Bytes EncodeSegmentHeader(uint64_t seq) {
  Writer w;
  w.WriteRaw(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(kMagic),
                                      kSegmentMagicBytes));
  w.WriteU32(kSegmentFormatVersion);
  w.WriteU64(seq);
  return w.TakeBytes();
}

Result<uint64_t> DecodeSegmentHeader(std::span<const uint8_t> data) {
  if (data.size() < kSegmentHeaderBytes) {
    return Status(StatusCode::kCorrupt, "segment shorter than its header");
  }
  if (std::memcmp(data.data(), kMagic, kSegmentMagicBytes) != 0) {
    return Status(StatusCode::kCorrupt, "bad segment magic");
  }
  Reader r(data.subspan(kSegmentMagicBytes));
  auto version = r.ReadU32();
  if (!version.ok() || *version != kSegmentFormatVersion) {
    return Status(StatusCode::kCorrupt, "unsupported segment format version");
  }
  return r.ReadU64();
}

void AppendRecordFrame(Bytes& out, std::span<const uint8_t> payload) {
  Writer w;
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteU32(Crc32(payload));
  const Bytes& header = w.bytes();
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameDecodeResult DecodeRecordFrame(std::span<const uint8_t> data, size_t offset) {
  FrameDecodeResult result;
  result.next_offset = offset;
  if (offset >= data.size()) {
    result.parse = FrameParse::kEnd;
    return result;
  }
  if (data.size() - offset < kRecordFrameOverhead) {
    result.parse = FrameParse::kTorn;  // Partial frame header.
    return result;
  }
  Reader r(data.subspan(offset, kRecordFrameOverhead));
  const uint32_t len = *r.ReadU32();
  const uint32_t crc = *r.ReadU32();
  if (len > kMaxRecordBytes) {
    result.parse = FrameParse::kCorrupt;
    return result;
  }
  if (data.size() - offset - kRecordFrameOverhead < len) {
    result.parse = FrameParse::kTorn;  // Payload extends past end-of-file.
    return result;
  }
  std::span<const uint8_t> payload = data.subspan(offset + kRecordFrameOverhead, len);
  if (Crc32(payload) != crc) {
    result.parse = FrameParse::kCorrupt;
    return result;
  }
  result.parse = FrameParse::kOk;
  result.payload = payload;
  result.next_offset = offset + kRecordFrameOverhead + len;
  return result;
}

SegmentWriter::~SegmentWriter() { Close(); }

Status SegmentWriter::Open(const std::string& path, uint64_t seq) {
  Close();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return IoError("cannot create segment", path);
  }
  path_ = path;
  seq_ = seq;
  bytes_ = 0;
  Bytes header = EncodeSegmentHeader(seq);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    return IoError("cannot write segment header", path_);
  }
  bytes_ = header.size();
  return Status::Ok();
}

Status SegmentWriter::Append(uint64_t lsn, std::span<const uint8_t> record) {
  if (file_ == nullptr) {
    return Status(StatusCode::kInternal, "segment writer is closed");
  }
  // Frame header and LSN go out as one small write, the record as another;
  // the CRC chains over LSN and record as if they were one payload.
  uint8_t head[kRecordFrameOverhead + kLsnPrefixBytes] = {};
  std::span<const uint8_t> lsn_bytes(head + kRecordFrameOverhead, kLsnPrefixBytes);
  for (size_t i = 0; i < kLsnPrefixBytes; ++i) {
    head[kRecordFrameOverhead + i] = static_cast<uint8_t>(lsn >> (8 * i));
  }
  const size_t payload_len = kLsnPrefixBytes + record.size();
  const uint32_t crc = Crc32Final(Crc32Update(Crc32Update(Crc32Init(), lsn_bytes), record));
  for (size_t i = 0; i < 4; ++i) {
    head[i] = static_cast<uint8_t>(payload_len >> (8 * i));
    head[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  if (std::fwrite(head, 1, sizeof(head), file_) != sizeof(head) ||
      (!record.empty() &&
       std::fwrite(record.data(), 1, record.size(), file_) != record.size())) {
    return IoError("cannot append to segment", path_);
  }
  bytes_ += kRecordFrameOverhead + payload_len;
  return Status::Ok();
}

Status SegmentWriter::Sync() {
  if (file_ == nullptr) {
    return Status(StatusCode::kInternal, "segment writer is closed");
  }
  if (std::fflush(file_) != 0) {
    return IoError("cannot flush segment", path_);
  }
  if (::fsync(::fileno(file_)) != 0) {
    return IoError("cannot fsync segment", path_);
  }
  return Status::Ok();
}

void SegmentWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<SegmentScan> ScanSegment(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoError("cannot open segment", path);
  }
  Bytes data;
  uint8_t chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return IoError("cannot read segment", path);
  }

  auto seq = DecodeSegmentHeader(data);
  if (!seq.ok()) {
    return seq.status();
  }
  SegmentScan scan;
  scan.seq = *seq;
  size_t offset = kSegmentHeaderBytes;
  for (;;) {
    FrameDecodeResult frame = DecodeRecordFrame(data, offset);
    if (frame.parse != FrameParse::kOk) {
      scan.tail = frame.parse;
      scan.clean = frame.parse == FrameParse::kEnd;
      break;
    }
    offset = frame.next_offset;
    if (frame.payload.size() < kLsnPrefixBytes) {
      ++scan.short_records;
      continue;
    }
    LsnRecord& entry = scan.records.emplace_back();
    for (size_t i = 0; i < kLsnPrefixBytes; ++i) {
      entry.lsn |= static_cast<uint64_t>(frame.payload[i]) << (8 * i);
    }
    entry.record.assign(frame.payload.begin() + kLsnPrefixBytes, frame.payload.end());
  }
  scan.valid_bytes = offset;
  scan.dropped_bytes = data.size() - offset;
  return scan;
}

}  // namespace publishing
