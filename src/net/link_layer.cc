#include "src/net/link_layer.h"

#include <cassert>
#include <utility>

#include "src/common/checksum.h"

namespace publishing {

namespace {
// CRC-32 of `body`, counted in BufferStats::link_crcs.
uint32_t ComputeCrc(std::span<const uint8_t> body) {
  CountLinkCrc();
  return Crc32(body);
}

// The little-endian CRC trailer of a payload at least kLinkTrailerBytes long.
uint32_t StoredCrc(const Buffer& payload) {
  const size_t body_len = payload.size() - kLinkTrailerBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kLinkTrailerBytes; ++i) {
    stored |= static_cast<uint32_t>(payload[body_len + i]) << (8 * i);
  }
  return stored;
}
}  // namespace

Buffer LinkWrap(Bytes body) {
  const uint32_t crc = ComputeCrc(body);
  const size_t body_len = body.size();
  body.resize(body_len + kLinkTrailerBytes);
  for (size_t i = 0; i < kLinkTrailerBytes; ++i) {
    body[body_len + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return Buffer(std::move(body), /*sealed=*/true);
}

Result<Buffer> LinkUnwrap(const Buffer& payload) {
  if (payload.size() < kLinkTrailerBytes) {
    return Status(StatusCode::kCorrupt, "frame shorter than CRC trailer");
  }
  const size_t body_len = payload.size() - kLinkTrailerBytes;
  if (payload.sealed()) {
    // LinkWrap computed this trailer over these very bytes, and frozen
    // storage cannot have changed since.
    assert(Crc32(payload.span().first(body_len)) == StoredCrc(payload));
    return payload.Slice(0, body_len);
  }
  if (StoredCrc(payload) != ComputeCrc(payload.span().first(body_len))) {
    return Status(StatusCode::kCorrupt, "CRC mismatch");
  }
  return payload.Slice(0, body_len);
}

Buffer LinkInvalidate(const Buffer& payload) {
  if (payload.size() < kLinkTrailerBytes) {
    return payload;
  }
  return payload.MutateCopy([](Bytes& bytes) {
    for (size_t i = bytes.size() - kLinkTrailerBytes; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(~bytes[i]);
    }
  });
}

Buffer LinkCorrupt(const Buffer& payload, size_t index) {
  if (payload.empty()) {
    return payload;
  }
  return payload.MutateCopy(
      [index](Bytes& bytes) { bytes[index % bytes.size()] ^= 0x5A; });
}

}  // namespace publishing
