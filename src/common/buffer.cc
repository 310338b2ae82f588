#include "src/common/buffer.h"

namespace publishing {

namespace {
// Process-wide copy/share accounting (GetBufferStats) plus the optional sink.
BufferStats g_stats;
BufferStatsSink* g_sink = nullptr;

void NoteCopy(uint64_t bytes) {
  g_stats.bytes_copied += bytes;
  ++g_stats.copies;
  if (g_sink != nullptr) {
    g_sink->OnBufferCopy(bytes);
  }
}

void NoteShare(uint64_t bytes) {
  g_stats.bytes_shared += bytes;
  ++g_stats.shares;
  if (g_sink != nullptr) {
    g_sink->OnBufferShare(bytes);
  }
}
}  // namespace

BufferStats GetBufferStats() { return g_stats; }

void ResetBufferStats() { g_stats = BufferStats{}; }

void CountLinkCrc() { ++g_stats.link_crcs; }

void SetBufferStatsSink(BufferStatsSink* sink) { g_sink = sink; }

BufferStatsSink* GetBufferStatsSink() { return g_sink; }

Buffer::Buffer(Bytes&& bytes) : Buffer(std::move(bytes), /*sealed=*/false) {}

Buffer::Buffer(Bytes&& bytes, bool sealed)
    : storage_(std::make_shared<const Storage>(Storage{std::move(bytes), sealed})),
      offset_(0),
      length_(storage_->bytes.size()) {}

Buffer Buffer::CopyOf(std::span<const uint8_t> bytes) {
  NoteCopy(bytes.size());
  return Buffer(Bytes(bytes.begin(), bytes.end()));
}

Buffer::Buffer(const Buffer& other)
    : storage_(other.storage_), offset_(other.offset_), length_(other.length_) {
  if (storage_) {
    NoteShare(length_);
  }
}

Buffer& Buffer::operator=(const Buffer& other) {
  if (this != &other) {
    storage_ = other.storage_;
    offset_ = other.offset_;
    length_ = other.length_;
    if (storage_) {
      NoteShare(length_);
    }
  }
  return *this;
}

Buffer Buffer::Slice(size_t offset, size_t length) const {
  if (offset > length_) {
    offset = length_;
  }
  if (length > length_ - offset) {
    length = length_ - offset;
  }
  return Buffer(storage_, offset_ + offset, length);
}

Bytes Buffer::CopyOut() const {
  NoteCopy(length_);
  return Bytes(begin(), end());
}

}  // namespace publishing
