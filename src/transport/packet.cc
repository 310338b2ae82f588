#include "src/transport/packet.h"

#include "src/net/link_layer.h"

namespace publishing {

namespace {

// Encoded sizes: the header is a MessageId, two ProcessIds, two NodeIds,
// channel, code and flags; an ack is a MessageId and two NodeIds.
constexpr size_t kHeaderBytes =
    kMessageIdBytes + 2 * kProcessIdBytes + 2 * kNodeIdBytes + 2 + 4 + 1;
constexpr size_t kAckBytes = kMessageIdBytes + 2 * kNodeIdBytes;

// The whole packet framing, read once for both parsers: the header fields,
// then the link blob and body as views of `bytes`, then end of input.
Status ReadPacket(std::span<const uint8_t> bytes, PacketHeader& header,
                  std::span<const uint8_t>& link_blob, std::span<const uint8_t>& body) {
  Reader r(bytes);
  auto id = r.ReadMessageId();
  if (!id.ok()) {
    return id.status();
  }
  header.id = *id;
  auto src = r.ReadProcessId();
  if (!src.ok()) {
    return src.status();
  }
  header.src_process = *src;
  auto dst = r.ReadProcessId();
  if (!dst.ok()) {
    return dst.status();
  }
  header.dst_process = *dst;
  auto src_node = r.ReadNodeId();
  if (!src_node.ok()) {
    return src_node.status();
  }
  header.src_node = *src_node;
  auto dst_node = r.ReadNodeId();
  if (!dst_node.ok()) {
    return dst_node.status();
  }
  header.dst_node = *dst_node;
  auto channel = r.ReadU16();
  if (!channel.ok()) {
    return channel.status();
  }
  header.channel = *channel;
  auto code = r.ReadU32();
  if (!code.ok()) {
    return code.status();
  }
  header.code = *code;
  auto flags = r.ReadU8();
  if (!flags.ok()) {
    return flags.status();
  }
  header.flags = *flags;
  auto blob_view = r.ReadBytesView();
  if (!blob_view.ok()) {
    return blob_view.status();
  }
  link_blob = *blob_view;
  auto body_view = r.ReadBytesView();
  if (!body_view.ok()) {
    return body_view.status();
  }
  body = *body_view;
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorrupt, "trailing bytes after packet");
  }
  return Status::Ok();
}

}  // namespace

Bytes SerializePacket(const Packet& packet) {
  Writer w;
  w.Reserve(kHeaderBytes + 2 * kLengthPrefixBytes + packet.link_blob.size() +
            packet.body.size() + kLinkTrailerBytes);
  w.WriteMessageId(packet.header.id);
  w.WriteProcessId(packet.header.src_process);
  w.WriteProcessId(packet.header.dst_process);
  w.WriteNodeId(packet.header.src_node);
  w.WriteNodeId(packet.header.dst_node);
  w.WriteU16(packet.header.channel);
  w.WriteU32(packet.header.code);
  w.WriteU8(packet.header.flags);
  w.WriteBytes(std::span<const uint8_t>(packet.link_blob.data(), packet.link_blob.size()));
  w.WriteBytes(std::span<const uint8_t>(packet.body.data(), packet.body.size()));
  return w.TakeBytes();
}

Result<Packet> ParsePacket(std::span<const uint8_t> bytes) {
  Packet packet;
  std::span<const uint8_t> link_blob;
  std::span<const uint8_t> body;
  Status status = ReadPacket(bytes, packet.header, link_blob, body);
  if (!status.ok()) {
    return status;
  }
  packet.link_blob.assign(link_blob.begin(), link_blob.end());
  packet.body.assign(body.begin(), body.end());
  return packet;
}

Result<PacketHeader> ParsePacketHeader(std::span<const uint8_t> bytes) {
  PacketHeader header;
  std::span<const uint8_t> link_blob;
  std::span<const uint8_t> body;
  Status status = ReadPacket(bytes, header, link_blob, body);
  if (!status.ok()) {
    return status;
  }
  return header;
}

Bytes SerializeAck(const AckPacket& ack) {
  Writer w;
  w.Reserve(kAckBytes + kLinkTrailerBytes);
  w.WriteMessageId(ack.acked);
  w.WriteNodeId(ack.from);
  w.WriteNodeId(ack.to);
  return w.TakeBytes();
}

Result<AckPacket> ParseAck(std::span<const uint8_t> bytes) {
  Reader r(bytes);
  AckPacket ack;
  auto id = r.ReadMessageId();
  if (!id.ok()) {
    return id.status();
  }
  ack.acked = *id;
  auto from = r.ReadNodeId();
  if (!from.ok()) {
    return from.status();
  }
  ack.from = *from;
  auto to = r.ReadNodeId();
  if (!to.ok()) {
    return to.status();
  }
  ack.to = *to;
  if (!r.AtEnd()) {
    return Status(StatusCode::kCorrupt, "trailing bytes after ack");
  }
  return ack;
}

}  // namespace publishing
