// Link layer: CRC framing (§4.3.3 "wrapping all messages with a rotating
// checksum... messages with an incorrect checksum are discarded").
//
// The CRC is genuinely computed and checked: fault injection damages payload
// bytes in flight and the receiving link layer must catch it.  The token ring
// recorder-veto (§6.1.2) deliberately complements the trailing CRC bytes so
// that "if the recorder could not successfully read it, neither will the
// receiver".
//
// The API is built around the shared immutable Buffer.  Wrapping appends the
// CRC to the serialized body in place (the serializers reserve room for it)
// and freezes the result as a *sealed* storage block: the CRC is computed
// once, here, for the frame's whole life.  Unwrapping returns a zero-copy
// slice; a view of exactly a sealed block is accepted without recomputing
// (nothing can write to frozen storage), and every other view — a Slice, a
// CopyOf, a Buffer(Bytes&&), a damaged clone — is checked in full.  The two
// fault injectors (invalidate, corrupt) are copy-on-write: the only writers
// on the wire path, each paying for exactly one copy, and their clones are
// never sealed.  Builds with asserts on recompute the CRC on the sealed path
// and check that it matches.

#ifndef SRC_NET_LINK_LAYER_H_
#define SRC_NET_LINK_LAYER_H_

#include "src/common/buffer.h"
#include "src/common/serialization.h"
#include "src/common/status.h"

namespace publishing {

// Size of the CRC-32 trailer LinkWrap appends.  Serializers reserve it so
// the append never reallocates.
inline constexpr size_t kLinkTrailerBytes = 4;

// Appends a CRC32 trailer to `body` (in place — takes ownership) and freezes
// the result as the frame's sealed, shared link-layer payload.
Buffer LinkWrap(Bytes body);

// Validates the CRC trailer.  Returns a zero-copy slice of `payload` with
// the trailer stripped, or kCorrupt if the trailer is missing or mismatched.
// A sealed payload (Buffer::sealed) is not recomputed.
Result<Buffer> LinkUnwrap(const Buffer& payload);

// Returns a copy of `payload` with the CRC trailer complemented, guaranteeing
// validation failure (used by the token-ring recorder to invalidate frames it
// missed, §6.1.2).  Copy-on-write: the shared original is untouched.
Buffer LinkInvalidate(const Buffer& payload);

// Returns a copy of `payload` with one byte damaged (fault-injection helper);
// position is chosen by the caller, typically from a seeded Rng.  CoW.
Buffer LinkCorrupt(const Buffer& payload, size_t index);

}  // namespace publishing

#endif  // SRC_NET_LINK_LAYER_H_
