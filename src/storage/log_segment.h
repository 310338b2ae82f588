// CRC32-framed append-only segment files — the on-disk unit of the
// recorder's durable log (§4.5: "it is possible to rebuild the data base
// from the disk").
//
// A segment is a header followed by length-prefixed records:
//
//   +--------------------------------------------+
//   | magic "PUBWAL01" (8) | version u32 | seq u64|   20-byte header
//   +--------------------------------------------+
//   | len u32 | crc32(payload) u32 | payload ... |   record frame
//   | len u32 | crc32(payload) u32 | payload ... |
//   | ...                                        |
//
// Every payload is LSN u64 ‖ record: the 8-byte global log sequence number
// lets recovery merge the WAL's stripes back into one total order.  There is
// one format version; a header naming any other is rejected, because a
// segment file is outside input.
//
// All integers are little-endian (the Writer/Reader convention).  A crash
// mid-append leaves a *torn tail*: a record whose length field points past
// end-of-file, a partial frame header, or a payload whose CRC does not
// match.  ScanSegment() stops at the first such frame and reports the valid
// prefix, so recovery drops exactly the unacknowledged tail and nothing
// else.

#ifndef SRC_STORAGE_LOG_SEGMENT_H_
#define SRC_STORAGE_LOG_SEGMENT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serialization.h"
#include "src/common/status.h"

namespace publishing {

inline constexpr uint32_t kSegmentFormatVersion = 2;
inline constexpr size_t kLsnPrefixBytes = 8;
inline constexpr size_t kSegmentMagicBytes = 8;
inline constexpr size_t kSegmentHeaderBytes = kSegmentMagicBytes + 4 + 8;
inline constexpr size_t kRecordFrameOverhead = 8;  // len + crc.
// Upper bound on a single record; a length field above this is corruption,
// not a huge record (the biggest legitimate record is a node checkpoint
// image, far below this).
inline constexpr uint32_t kMaxRecordBytes = 64u << 20;

// Returns the 20-byte segment header for segment `seq`.
Bytes EncodeSegmentHeader(uint64_t seq);
// Validates a header; returns the segment sequence number.
Result<uint64_t> DecodeSegmentHeader(std::span<const uint8_t> data);

// Appends one framed record to `out`.  SegmentWriter::Append(lsn, record)
// writes the bytes of AppendRecordFrame(out, lsn ‖ record) without staging
// them; this is the reference encoder for tests.
void AppendRecordFrame(Bytes& out, std::span<const uint8_t> payload);

enum class FrameParse {
  kOk,       // A complete, CRC-valid record.
  kEnd,      // Exactly at end of data: clean end.
  kTorn,     // Frame extends past end of data (crash mid-write).
  kCorrupt,  // CRC mismatch or absurd length (bit rot / damage).
};

struct FrameDecodeResult {
  FrameParse parse = FrameParse::kEnd;
  std::span<const uint8_t> payload;  // Valid only when parse == kOk.
  size_t next_offset = 0;            // Offset just past this frame.
};

// Decodes the frame starting at `offset`.  Never throws, never reads out of
// bounds; garbage input yields kTorn/kCorrupt, not a crash.
FrameDecodeResult DecodeRecordFrame(std::span<const uint8_t> data, size_t offset);

// Buffered writer for one segment file.  Append() stages bytes in the stdio
// buffer; Sync() makes everything appended so far durable (fflush + fsync).
// Append builds no framed copy: the CRC is chained over LSN and record, and
// the frame header, LSN and record go to stdio as they are.
class SegmentWriter {
 public:
  SegmentWriter() = default;
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;
  SegmentWriter(SegmentWriter&& other) noexcept { *this = std::move(other); }
  SegmentWriter& operator=(SegmentWriter&& other) noexcept {
    if (this != &other) {
      Close();
      file_ = other.file_;
      path_ = std::move(other.path_);
      seq_ = other.seq_;
      bytes_ = other.bytes_;
      other.file_ = nullptr;
      other.seq_ = 0;
      other.bytes_ = 0;
    }
    return *this;
  }

  // Creates `path` (truncating any old file) and writes the header.
  Status Open(const std::string& path, uint64_t seq);
  // Appends one frame whose payload is `lsn` (kLsnPrefixBytes, little-
  // endian) followed by `record`.
  Status Append(uint64_t lsn, std::span<const uint8_t> record);
  Status Sync();
  void Close();

  bool is_open() const { return file_ != nullptr; }
  // Bytes written so far, header included (staged bytes count).
  size_t bytes() const { return bytes_; }
  uint64_t seq() const { return seq_; }
  const std::string& path() const { return path_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t seq_ = 0;
  size_t bytes_ = 0;
};

struct LsnRecord {
  uint64_t lsn = 0;
  Bytes record;  // The payload past its LSN.
};

struct SegmentScan {
  uint64_t seq = 0;
  std::vector<LsnRecord> records;  // In append order.
  // CRC-valid frames too short to carry an LSN; skipped, not fatal.
  size_t short_records = 0;
  bool clean = true;          // False when a torn/corrupt tail was dropped.
  FrameParse tail = FrameParse::kEnd;
  size_t valid_bytes = 0;     // Length of the parseable prefix.
  size_t dropped_bytes = 0;   // Bytes past the valid prefix.
};

// Reads a whole segment file, stopping at the first torn or corrupt frame.
// Only an unreadable file or a bad header is an error; a damaged tail is
// reported via `clean`/`tail`, because that is the expected shape of a
// crash.
Result<SegmentScan> ScanSegment(const std::string& path);

}  // namespace publishing

#endif  // SRC_STORAGE_LOG_SEGMENT_H_
