// Transport packets: the routable unit of DEMOS/MP inter-node communication
// (§4.3.3) and the thing the recorder parses off the wire (§4.5).
//
// The header carries everything publishing needs without looking at the
// body: the globally unique message id (sender process + send sequence,
// which drives duplicate suppression and resend suppression during
// recovery), source and destination process, and the link-derived channel
// and code fields the receiver's kernel uses for selective receive.

#ifndef SRC_TRANSPORT_PACKET_H_
#define SRC_TRANSPORT_PACKET_H_

#include <cstdint>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/ids.h"
#include "src/common/serialization.h"
#include "src/common/status.h"

namespace publishing {

// Packet flag bits.
enum PacketFlags : uint8_t {
  kFlagGuaranteed = 1 << 0,      // End-to-end acknowledged (§4.3.3).
  kFlagDeliverToKernel = 1 << 1, // Process-control: intercepted by the
                                 // destination node's kernel process (§4.4.3).
  kFlagReplay = 1 << 2,          // Injected by a recovery process; bypasses
                                 // the duplicate cache (§4.7).
  kFlagControl = 1 << 3,         // Watchdog / recovery-manager traffic that
                                 // the recorder does not publish.
};

struct PacketHeader {
  MessageId id;            // Unique message identifier.
  ProcessId src_process;
  ProcessId dst_process;
  NodeId src_node;
  NodeId dst_node;
  uint16_t channel = 0;    // From the link the message was sent over.
  uint32_t code = 0;       // Ditto (§4.2.2.1).
  uint8_t flags = 0;

  bool guaranteed() const { return (flags & kFlagGuaranteed) != 0; }
  bool deliver_to_kernel() const { return (flags & kFlagDeliverToKernel) != 0; }
  bool replay() const { return (flags & kFlagReplay) != 0; }
  bool control() const { return (flags & kFlagControl) != 0; }

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

struct Packet {
  PacketHeader header;
  // Serialized passed link, empty when the message carries none (§4.2.2.3).
  Bytes link_blob;
  // Uninterpreted message body.
  Bytes body;
  // Scatter/gather sidecar: shared Buffer views riding along with the packet
  // (replay bursts carry the logged packets here, straight out of stable
  // storage).  In-memory only — NOT serialized, so ParsePacket stays the
  // exact inverse of SerializePacket; segment bytes are billed to the wire
  // via Frame::WireBytes instead (gather-DMA model).
  std::vector<Buffer> segments;
};

// Transport acknowledgement: "processor from which the message originates
// expects an acknowledgement from the processor on which the destination
// process resides" (§4.3.3).  The recorder overhears these to learn the
// order in which nodes accepted messages (§4.4.1).
struct AckPacket {
  MessageId acked;
  NodeId from;  // Acknowledging (destination) node.
  NodeId to;    // Original sender node.
};

// Parsers take spans so both owned Bytes and shared Buffer views flow in
// without materializing a copy; ParsePacket is the exact inverse of
// SerializePacket (the recorder relies on this to append the overheard wire
// bytes directly instead of re-serializing).  The serializers reserve their
// exact size plus the link trailer, so LinkWrap never reallocates.
Bytes SerializePacket(const Packet& packet);
Result<Packet> ParsePacket(std::span<const uint8_t> bytes);
// Accepts exactly what ParsePacket accepts — header, both length-prefixed
// strings, no trailing bytes — and returns only the header, copying nothing.
// For readers that never look at the body (the recorder).
Result<PacketHeader> ParsePacketHeader(std::span<const uint8_t> bytes);

Bytes SerializeAck(const AckPacket& ack);
Result<AckPacket> ParseAck(std::span<const uint8_t> bytes);

}  // namespace publishing

#endif  // SRC_TRANSPORT_PACKET_H_
