// Byte-oriented serialization used for message bodies, checkpoints, and the
// recorder's on-disk log pages.
//
// Checkpoints must survive a node crash and be reloaded on a possibly
// different node (§3.3.3), so process state is serialized through these
// explicit little-endian writers/readers rather than memcpy'd structs.

#ifndef SRC_COMMON_SERIALIZATION_H_
#define SRC_COMMON_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace publishing {

using Bytes = std::vector<uint8_t>;

// Encoded sizes of the fixed-width fields below, for encoders that reserve
// their exact length.
inline constexpr size_t kNodeIdBytes = 4;
inline constexpr size_t kProcessIdBytes = kNodeIdBytes + 4;
inline constexpr size_t kMessageIdBytes = kProcessIdBytes + 8;
inline constexpr size_t kLengthPrefixBytes = 4;  // WriteBytes / WriteString.

// Appends primitive values to a growing byte buffer in little-endian order.
class Writer {
 public:
  Writer() = default;

  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU16(uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(uint64_t v) { WriteLittleEndian(v); }
  void WriteI64(int64_t v) { WriteLittleEndian(static_cast<uint64_t>(v)); }
  void WriteDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  // Length-prefixed byte string.
  void WriteBytes(std::span<const uint8_t> data) {
    bytes_.reserve(bytes_.size() + sizeof(uint32_t) + data.size());
    WriteU32(static_cast<uint32_t>(data.size()));
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void WriteString(const std::string& s) {
    WriteBytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }

  void WriteNodeId(NodeId id) { WriteU32(id.value); }
  void WriteProcessId(const ProcessId& id) {
    WriteNodeId(id.origin);
    WriteU32(id.local);
  }
  void WriteMessageId(const MessageId& id) {
    WriteProcessId(id.sender);
    WriteU64(id.sequence);
  }

  // Raw append with no length prefix (for framing layers that know sizes).
  void WriteRaw(std::span<const uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  // Pre-sizes the buffer for encoders that know their total length, so the
  // writes that follow never reallocate.
  void Reserve(size_t bytes) { bytes_.reserve(bytes); }

  const Bytes& bytes() const { return bytes_; }
  Bytes TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  template <typename T>
  void WriteLittleEndian(T v) {
    const size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  Bytes bytes_;
};

// Bounds-checked reader over a byte span.  All Read* methods return a
// kCorrupt status on underrun so corrupted frames/pages are rejected rather
// than crashing the recorder (§4.5 rebuilds its database from disk pages).
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) {
      return Underrun("u8");
    }
    return data_[pos_++];
  }
  Result<uint16_t> ReadU16() { return ReadLittleEndian<uint16_t>(); }
  Result<uint32_t> ReadU32() { return ReadLittleEndian<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadLittleEndian<uint64_t>(); }
  Result<int64_t> ReadI64() {
    auto v = ReadLittleEndian<uint64_t>();
    if (!v.ok()) {
      return v.status();
    }
    return static_cast<int64_t>(*v);
  }
  Result<double> ReadDouble() {
    auto bits = ReadU64();
    if (!bits.ok()) {
      return bits.status();
    }
    double v;
    std::memcpy(&v, &bits.value(), sizeof(v));
    return v;
  }
  Result<bool> ReadBool() {
    auto v = ReadU8();
    if (!v.ok()) {
      return v.status();
    }
    return *v != 0;
  }

  Result<Bytes> ReadBytes() {
    auto view = ReadBytesView();
    if (!view.ok()) {
      return view.status();
    }
    return Bytes(view->begin(), view->end());
  }
  // Length-prefixed byte string as a view of the input: no copy.
  Result<std::span<const uint8_t>> ReadBytesView() {
    auto len = ReadU32();
    if (!len.ok()) {
      return len.status();
    }
    if (remaining() < *len) {
      return Underrun("bytes body");
    }
    std::span<const uint8_t> out = data_.subspan(pos_, *len);
    pos_ += *len;
    return out;
  }
  Result<std::string> ReadString() {
    auto raw = ReadBytes();
    if (!raw.ok()) {
      return raw.status();
    }
    return std::string(raw->begin(), raw->end());
  }

  Result<NodeId> ReadNodeId() {
    auto v = ReadU32();
    if (!v.ok()) {
      return v.status();
    }
    return NodeId{*v};
  }
  Result<ProcessId> ReadProcessId() {
    auto origin = ReadNodeId();
    if (!origin.ok()) {
      return origin.status();
    }
    auto local = ReadU32();
    if (!local.ok()) {
      return local.status();
    }
    return ProcessId{*origin, *local};
  }
  Result<MessageId> ReadMessageId() {
    auto sender = ReadProcessId();
    if (!sender.ok()) {
      return sender.status();
    }
    auto seq = ReadU64();
    if (!seq.ok()) {
      return seq.status();
    }
    return MessageId{*sender, *seq};
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  template <typename T>
  Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) {
      return Underrun("integer");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  Status Underrun(const char* what) const {
    return Status(StatusCode::kCorrupt, std::string("buffer underrun reading ") + what);
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace publishing

#endif  // SRC_COMMON_SERIALIZATION_H_
