// Unit tests for the transport layer: the §4.3.3 guarantees — no
// duplication, guaranteed arrival, per-pair ordering — including under
// injected frame corruption.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/ethernet.h"
#include "src/net/link_layer.h"
#include "src/transport/endpoint.h"

namespace publishing {
namespace {

struct Net {
  explicit Net(MediumFaults faults = {}, TransportOptions transport = {}) {
    EthernetOptions options;
    options.acknowledging = true;
    ether = std::make_unique<Ethernet>(&sim, MediumTimings{}, faults, 11, options);
    for (uint32_t node = 1; node <= 3; ++node) {
      endpoints[node] = std::make_unique<TransportEndpoint>(
          &sim, ether.get(), NodeId{node}, transport, [this, node](const Packet& packet) {
            received[node].push_back(packet);
          });
    }
  }

  Packet MakePacket(uint32_t src, uint32_t dst, uint64_t seq, uint8_t flags = kFlagGuaranteed,
                    size_t bytes = 128) {
    Packet packet;
    packet.header.id = MessageId{ProcessId{NodeId{src}, 9}, seq};
    packet.header.src_process = ProcessId{NodeId{src}, 9};
    packet.header.dst_process = ProcessId{NodeId{dst}, 9};
    packet.header.dst_node = NodeId{dst};
    packet.header.flags = flags;
    packet.body = Bytes(bytes, static_cast<uint8_t>(seq));
    return packet;
  }

  Simulator sim;
  std::unique_ptr<Ethernet> ether;
  std::map<uint32_t, std::unique_ptr<TransportEndpoint>> endpoints;
  std::map<uint32_t, std::vector<Packet>> received;
};

TEST(Transport, PacketSerializationRoundTrip) {
  Packet packet;
  packet.header.id = MessageId{ProcessId{NodeId{1}, 2}, 3};
  packet.header.src_process = ProcessId{NodeId{1}, 2};
  packet.header.dst_process = ProcessId{NodeId{4}, 5};
  packet.header.src_node = NodeId{1};
  packet.header.dst_node = NodeId{4};
  packet.header.channel = 42;
  packet.header.code = 7;
  packet.header.flags = kFlagGuaranteed | kFlagDeliverToKernel;
  packet.link_blob = {9, 8, 7};
  packet.body = {1, 2, 3, 4};

  auto parsed = ParsePacket(SerializePacket(packet));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.id, packet.header.id);
  EXPECT_EQ(parsed->header.dst_process, packet.header.dst_process);
  EXPECT_EQ(parsed->header.channel, 42);
  EXPECT_EQ(parsed->header.code, 7u);
  EXPECT_TRUE(parsed->header.deliver_to_kernel());
  EXPECT_EQ(parsed->link_blob, packet.link_blob);
  EXPECT_EQ(parsed->body, packet.body);
}

TEST(Transport, AckSerializationRoundTrip) {
  AckPacket ack{MessageId{ProcessId{NodeId{1}, 2}, 3}, NodeId{4}, NodeId{5}};
  auto parsed = ParseAck(SerializeAck(ack));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->acked, ack.acked);
  EXPECT_EQ(parsed->from, NodeId{4});
  EXPECT_EQ(parsed->to, NodeId{5});
}

// Serializers reserve the link trailer, so LinkWrap appends it in place:
// one vector and one shared storage block per frame, no reallocation.
TEST(Transport, SerializedPacketLeavesRoomForLinkTrailer) {
  auto expect_room = [](Bytes bytes) {
    EXPECT_GE(bytes.capacity(), bytes.size() + kLinkTrailerBytes)
        << "size " << bytes.size() << ", capacity " << bytes.capacity();
    const uint8_t* data = bytes.data();
    Buffer wire = LinkWrap(std::move(bytes));
    EXPECT_EQ(wire.data(), data) << "LinkWrap reallocated the frame";
  };
  for (size_t body : {0, 8, 100, 1024}) {
    SCOPED_TRACE(testing::Message() << "body " << body);
    Packet packet;
    packet.header.id = MessageId{ProcessId{NodeId{1}, 2}, 3};
    packet.header.flags = kFlagGuaranteed;
    packet.body = Bytes(body, 0x33);
    expect_room(SerializePacket(packet));
  }
  SCOPED_TRACE("ack");
  expect_room(SerializeAck(AckPacket{MessageId{ProcessId{NodeId{1}, 2}, 3}, NodeId{4}, NodeId{1}}));
}

TEST(Transport, GuaranteedDeliveryOnCleanNetwork) {
  Net net;
  for (uint64_t i = 1; i <= 20; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, i));
  }
  net.sim.RunFor(Seconds(10));
  EXPECT_EQ(net.received[2].size(), 20u);
  EXPECT_EQ(net.endpoints[1]->stats().retransmits, 0u);
}

TEST(Transport, OrderingPreservedPerDestination) {
  Net net;
  for (uint64_t i = 1; i <= 50; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, i));
  }
  net.sim.RunFor(Seconds(30));
  ASSERT_EQ(net.received[2].size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(net.received[2][i].header.id.sequence, i + 1);
  }
}

TEST(Transport, ExactlyOnceUnderReceiverCorruption) {
  MediumFaults faults;
  faults.receiver_error_rate = 0.3;  // 30% of copies damaged in flight.
  Net net(faults);
  for (uint64_t i = 1; i <= 40; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, i));
  }
  net.sim.RunFor(Seconds(120));
  ASSERT_EQ(net.received[2].size(), 40u) << "guaranteed messages must all arrive";
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(net.received[2][i].header.id.sequence, i + 1) << "and in order";
  }
  EXPECT_GT(net.endpoints[1]->stats().retransmits, 0u);
  EXPECT_GT(net.endpoints[2]->stats().corrupt_dropped, 0u);
}

TEST(Transport, DuplicatesAreSuppressed) {
  MediumFaults faults;
  faults.receiver_error_rate = 0.3;  // Lost acks force duplicate data sends.
  Net net(faults);
  for (uint64_t i = 1; i <= 30; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, i));
  }
  net.sim.RunFor(Seconds(120));
  EXPECT_EQ(net.received[2].size(), 30u);
  // Duplicates happen exactly when a data frame was resent after its ack was
  // lost; whatever the count, none may surface.
  const TransportStats& stats = net.endpoints[2]->stats();
  EXPECT_EQ(stats.data_delivered, 30u);
}

TEST(Transport, UnguaranteedMessagesAreFireAndForget) {
  MediumFaults faults;
  faults.receiver_error_rate = 1.0;  // Every copy is damaged.
  Net net(faults);
  net.endpoints[1]->Send(net.MakePacket(1, 2, 1, /*flags=*/0));
  net.sim.RunFor(Seconds(5));
  EXPECT_TRUE(net.received[2].empty());
  EXPECT_EQ(net.endpoints[1]->stats().retransmits, 0u) << "no retries for unguaranteed";
}

TEST(Transport, ReplayFlagBypassesDuplicateCache) {
  Net net;
  net.endpoints[1]->Send(net.MakePacket(1, 2, 5));
  net.sim.RunFor(Seconds(2));
  ASSERT_EQ(net.received[2].size(), 1u);
  // The same id again, flagged replay, must be delivered.
  net.endpoints[1]->Send(net.MakePacket(1, 2, 5, kFlagGuaranteed | kFlagReplay));
  net.sim.RunFor(Seconds(2));
  EXPECT_EQ(net.received[2].size(), 2u);
}

TEST(Transport, NoteDeliveredSuppressesLaterLiveCopy) {
  Net net;
  net.endpoints[2]->NoteDelivered(MessageId{ProcessId{NodeId{1}, 9}, 5});
  net.endpoints[1]->Send(net.MakePacket(1, 2, 5));
  net.sim.RunFor(Seconds(2));
  EXPECT_TRUE(net.received[2].empty());
  EXPECT_EQ(net.endpoints[2]->stats().duplicates_suppressed, 1u);
}

TEST(Transport, RenotedIdKeepsOneCacheEntry) {
  // The kernel re-notes every replayed message it accepts, including ones
  // the transport already delivered.  A cache of 4 that has seen only 4
  // distinct ids must still suppress a live copy of the first.
  TransportOptions transport;
  transport.dup_cache_size = 4;
  Net net({}, transport);
  net.endpoints[1]->Send(net.MakePacket(1, 2, 1));
  net.sim.RunFor(Seconds(2));
  net.endpoints[2]->NoteDelivered(MessageId{ProcessId{NodeId{1}, 9}, 1});
  for (uint64_t seq = 2; seq <= 4; ++seq) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, seq));
  }
  net.sim.RunFor(Seconds(2));
  ASSERT_EQ(net.received[2].size(), 4u);
  net.endpoints[1]->Send(net.MakePacket(1, 2, 1));
  net.sim.RunFor(Seconds(2));
  EXPECT_EQ(net.received[2].size(), 4u);
  EXPECT_EQ(net.endpoints[2]->stats().duplicates_suppressed, 1u);
}

TEST(Transport, UnreachableDestinationDoesNotBlockOthers) {
  Net net;
  net.endpoints[3]->set_online(false);
  net.endpoints[1]->Send(net.MakePacket(1, 3, 1));  // Will retransmit forever.
  for (uint64_t i = 1; i <= 10; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, 100 + i));
  }
  net.sim.RunFor(Seconds(5));
  EXPECT_EQ(net.received[2].size(), 10u) << "per-destination windows must not head-of-line block";
  EXPECT_TRUE(net.received[3].empty());
  // When node 3 comes back, the pending message completes.
  net.endpoints[3]->set_online(true);
  net.sim.RunFor(Seconds(10));
  EXPECT_EQ(net.received[3].size(), 1u);
}

TEST(Transport, ResetDropsOutstandingState) {
  Net net;
  net.endpoints[2]->set_online(false);
  net.endpoints[1]->Send(net.MakePacket(1, 2, 1));
  net.sim.RunFor(Seconds(1));
  net.endpoints[1]->Reset();
  net.endpoints[2]->set_online(true);
  net.sim.RunFor(Seconds(10));
  // The reset dropped the in-flight packet; nothing arrives.
  EXPECT_TRUE(net.received[2].empty());
}

class TransportWindowSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TransportWindowSweep, AllWindowSizesPreserveOrderAndDelivery) {
  TransportOptions transport;
  transport.window = GetParam();
  MediumFaults faults;
  faults.receiver_error_rate = 0.1;
  Net net(faults, transport);
  for (uint64_t i = 1; i <= 30; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, 2, i));
  }
  net.sim.RunFor(Seconds(120));
  ASSERT_EQ(net.received[2].size(), 30u);
  if (GetParam() == 1) {
    for (uint64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(net.received[2][i].header.id.sequence, i + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, TransportWindowSweep, ::testing::Values(1, 2, 4, 8));

class TransportInterleavedDestinations : public ::testing::TestWithParam<size_t> {};

// A deep send queue alternating between a reachable and an offline
// destination: each destination's window fills and drains on its own.
TEST_P(TransportInterleavedDestinations, OfflineDestinationDrainsInOrderOnceBack) {
  TransportOptions transport;
  transport.window = GetParam();
  Net net({}, transport);
  net.endpoints[3]->set_online(false);
  for (uint64_t i = 1; i <= 100; ++i) {
    net.endpoints[1]->Send(net.MakePacket(1, i % 2 == 1 ? 2 : 3, i));
  }
  net.sim.RunFor(Seconds(10));
  ASSERT_EQ(net.received[2].size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(net.received[2][i].header.id.sequence, 2 * i + 1);
  }
  EXPECT_TRUE(net.received[3].empty());

  net.endpoints[3]->set_online(true);
  net.sim.RunFor(Seconds(60));
  ASSERT_EQ(net.received[3].size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(net.received[3][i].header.id.sequence, 2 * i + 2);
  }
  const TransportStats& stats = net.endpoints[1]->stats();
  EXPECT_EQ(stats.data_sent - stats.retransmits, 100u);
}

INSTANTIATE_TEST_SUITE_P(Windows, TransportInterleavedDestinations, ::testing::Values(1, 3));

}  // namespace
}  // namespace publishing
