// Unit tests for src/net: link layer, Ethernet (plain and acknowledging),
// star hub, and token ring.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/net/ethernet.h"
#include "src/net/link_layer.h"
#include "src/net/star_hub.h"
#include "src/net/token_ring.h"

namespace publishing {
namespace {

class TestStation : public Station {
 public:
  TestStation(Medium* medium, NodeId node) : medium_(medium), node_(node) {
    medium_->Attach(this);
  }
  ~TestStation() override { medium_->Detach(node_); }

  NodeId Address() const override { return node_; }
  void OnFrame(const Frame& frame) override { frames.push_back(frame); }

  std::vector<Frame> frames;

 private:
  Medium* medium_;
  NodeId node_;
};

class TestListener : public PromiscuousListener {
 public:
  bool OnWireFrame(const Frame& frame) override {
    frames.push_back(frame);
    return record_ok;
  }
  std::vector<Frame> frames;
  bool record_ok = true;
};

Frame MakeFrame(uint32_t src, uint32_t dst, size_t body_bytes = 64) {
  Frame frame;
  frame.src = NodeId{src};
  frame.dst = dst == 0xFFFFFFFF ? kBroadcastNode : NodeId{dst};
  frame.payload = LinkWrap(Bytes(body_bytes, 0x3C));
  return frame;
}

// ---------------------------------------------------------------------------
// Link layer
// ---------------------------------------------------------------------------

TEST(LinkLayer, WrapUnwrapRoundTrip) {
  Bytes body = {1, 2, 3, 4, 5};
  Buffer wire = LinkWrap(body);
  EXPECT_EQ(wire.size(), body.size() + 4);
  auto out = LinkUnwrap(wire);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, body);
}

TEST(LinkLayer, UnwrapIsZeroCopySliceOfWirePayload) {
  Buffer wire = LinkWrap(Bytes(64, 0x42));
  ResetBufferStats();
  auto body = LinkUnwrap(wire);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->data(), wire.data()) << "body must view the wire storage";
  EXPECT_EQ(GetBufferStats().bytes_copied, 0u);
}

TEST(LinkLayer, CorruptionIsRejected) {
  Buffer wire = LinkWrap(Bytes(100, 0x7E));
  wire = LinkCorrupt(wire, 50);
  EXPECT_FALSE(LinkUnwrap(wire).ok());
}

TEST(LinkLayer, CorruptionIsCopyOnWrite) {
  Buffer wire = LinkWrap(Bytes(100, 0x7E));
  ResetBufferStats();
  Buffer damaged = LinkCorrupt(wire, 50);
  EXPECT_TRUE(LinkUnwrap(wire).ok()) << "shared original must stay intact";
  EXPECT_FALSE(LinkUnwrap(damaged).ok());
  EXPECT_EQ(GetBufferStats().bytes_copied, wire.size());

  // The seal never vouches for damaged bytes: after a clean, sealed unwrap
  // of `wire`, a damaged clone of any byte — trailer included — is still
  // checked and rejected, and so is an invalidated one.
  ASSERT_TRUE(wire.sealed());
  ASSERT_TRUE(LinkUnwrap(wire).ok());
  for (size_t i = 0; i < wire.size(); ++i) {
    Buffer corrupt = LinkCorrupt(wire, i);
    EXPECT_FALSE(corrupt.sealed()) << "byte " << i;
    EXPECT_FALSE(LinkUnwrap(corrupt).ok()) << "byte " << i;
  }
  Buffer invalidated = LinkInvalidate(wire);
  EXPECT_FALSE(invalidated.sealed());
  EXPECT_FALSE(LinkUnwrap(invalidated).ok());
  EXPECT_TRUE(LinkUnwrap(wire).ok()) << "shared original must stay intact";
}

TEST(LinkLayer, OnlyAnExactSealedWindowSkipsTheCrc) {
  // The sealed payload's leading bytes are themselves a well-formed frame,
  // so a Slice of them is a frame the CRC accepts — but must still compute.
  Buffer inner = LinkWrap(Bytes(40, 0x5C));
  Bytes outer = inner.ToBytes();
  outer.push_back(0x01);
  Buffer wire = LinkWrap(std::move(outer));
  auto crcs = [] { return GetBufferStats().link_crcs; };

  ASSERT_TRUE(wire.sealed());
  uint64_t before = crcs();
  ASSERT_TRUE(LinkUnwrap(wire).ok());
  EXPECT_EQ(crcs(), before) << "the exact sealed window reuses LinkWrap's CRC";
  Buffer shared = wire;
  EXPECT_TRUE(shared.sealed()) << "a refcount share views the same block";
  EXPECT_TRUE(wire.Slice(0, wire.size()).sealed()) << "a whole-block view is exact";

  Buffer slice = wire.Slice(0, inner.size());
  EXPECT_FALSE(slice.sealed());
  before = crcs();
  EXPECT_TRUE(LinkUnwrap(slice).ok());
  EXPECT_EQ(crcs(), before + 1) << "a Slice is computed";
  EXPECT_FALSE(LinkUnwrap(wire.Slice(1, wire.size() - 1)).ok());

  Buffer copy = Buffer::CopyOf(wire);
  EXPECT_FALSE(copy.sealed());
  before = crcs();
  EXPECT_TRUE(LinkUnwrap(copy).ok());
  EXPECT_EQ(crcs(), before + 1) << "CopyOf is computed";

  Bytes flipped = wire.ToBytes();
  flipped[7] ^= 0x01;
  EXPECT_FALSE(LinkUnwrap(Buffer::CopyOf(flipped)).ok());

  Bytes wrong_trailer = wire.ToBytes();
  wrong_trailer.back() ^= 0xFF;
  Buffer owned(std::move(wrong_trailer));
  EXPECT_FALSE(owned.sealed());
  EXPECT_FALSE(LinkUnwrap(owned).ok());
}

TEST(LinkLayer, InvalidationGuaranteesRejection) {
  // §6.1.2: the recorder complements the checksum so the destination cannot
  // accept a frame the recorder failed to read.
  Buffer wire = LinkWrap(Bytes(32, 0x11));
  wire = LinkInvalidate(wire);
  EXPECT_FALSE(LinkUnwrap(wire).ok());
  // Invalidation is its own inverse (complement twice = original).
  wire = LinkInvalidate(wire);
  EXPECT_TRUE(LinkUnwrap(wire).ok());
}

TEST(LinkLayer, TooShortPayloadRejected) {
  EXPECT_FALSE(LinkUnwrap(Bytes{1, 2, 3}).ok());
}

// ---------------------------------------------------------------------------
// Medium-independent semantics, parameterized over all four media.
// ---------------------------------------------------------------------------

enum class Kind { kEther, kAckEther, kStar, kRing };

std::unique_ptr<Medium> MakeMedium(Simulator* sim, Kind kind) {
  switch (kind) {
    case Kind::kEther: {
      EthernetOptions options;
      options.acknowledging = false;
      return std::make_unique<Ethernet>(sim, MediumTimings{}, MediumFaults{}, 1, options);
    }
    case Kind::kAckEther: {
      EthernetOptions options;
      options.acknowledging = true;
      return std::make_unique<Ethernet>(sim, MediumTimings{}, MediumFaults{}, 1, options);
    }
    case Kind::kStar:
      return std::make_unique<StarHub>(sim, MediumTimings{}, MediumFaults{}, 1);
    case Kind::kRing:
      return std::make_unique<TokenRing>(sim, MediumTimings{}, MediumFaults{}, 1,
                                         TokenRingOptions{});
  }
  return nullptr;
}

class AllMediaTest : public ::testing::TestWithParam<Kind> {};

TEST_P(AllMediaTest, UnicastDeliversExactlyOnceWithValidPayload) {
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  TestStation c(medium.get(), NodeId{3});

  medium->Send(MakeFrame(1, 2));
  sim.RunFor(Seconds(2));

  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(LinkUnwrap(b.frames[0].payload).ok());
  EXPECT_TRUE(a.frames.empty());
  EXPECT_TRUE(c.frames.empty());
}

TEST_P(AllMediaTest, BroadcastReachesAllButSender) {
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  TestStation c(medium.get(), NodeId{3});

  medium->Send(MakeFrame(1, 0xFFFFFFFF));
  sim.RunFor(Seconds(2));

  EXPECT_EQ(a.frames.size(), 0u);
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST_P(AllMediaTest, PromiscuousListenerSeesEveryFrame) {
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  TestListener listener;
  medium->AttachListener(&listener);

  for (int i = 0; i < 5; ++i) {
    medium->Send(MakeFrame(1, 2));
  }
  sim.RunFor(Seconds(5));
  EXPECT_EQ(listener.frames.size(), 5u);
  EXPECT_EQ(b.frames.size(), 5u);
}

TEST_P(AllMediaTest, ListenerMissPreventsCorrectReception) {
  // §4.4.1: "If it incorrectly receives a message ... the recorder can block
  // the transmission, ensuring that no other processor correctly receives
  // it."  On the ring the frame still arrives but with an invalidated
  // checksum; elsewhere it is simply not delivered.
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  TestListener listener;
  listener.record_ok = false;
  medium->AttachListener(&listener);

  medium->Send(MakeFrame(1, 2));
  sim.RunFor(Seconds(2));

  bool correctly_received = false;
  for (const Frame& frame : b.frames) {
    if (!frame.corrupted && LinkUnwrap(frame.payload).ok()) {
      correctly_received = true;
    }
  }
  EXPECT_FALSE(correctly_received);
  EXPECT_EQ(medium->stats().frames_vetoed, 1u);
}

TEST_P(AllMediaTest, ChannelUtilizationIsAccounted) {
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  for (int i = 0; i < 20; ++i) {
    medium->Send(MakeFrame(1, 2, 1024));
  }
  sim.RunFor(Seconds(5));
  medium->mutable_stats().channel.Finish(sim.Now());
  EXPECT_GT(medium->stats().channel.busy_time(), 0);
  EXPECT_EQ(medium->stats().frames_sent, 20u);
}

TEST_P(AllMediaTest, ReattachedAddressGetsOneBroadcastCopyAndKeepsRingSize) {
  Simulator sim;
  auto medium = MakeMedium(&sim, GetParam());
  TestStation a(medium.get(), NodeId{1});
  TestStation b(medium.get(), NodeId{2});
  TestStation c(medium.get(), NodeId{3});
  // On the token ring a broadcast holds the channel for a time that grows
  // with the number of ring positions; on the other media it is fixed.
  auto broadcast_busy_time = [&] {
    const SimDuration before = medium->stats().channel.busy_time();
    medium->Send(MakeFrame(1, 0xFFFFFFFF));
    sim.RunFor(Seconds(2));
    return medium->stats().channel.busy_time() - before;
  };
  const SimDuration busy_before = broadcast_busy_time();

  medium->Detach(NodeId{2});
  TestStation replacement(medium.get(), NodeId{2});
  const SimDuration busy_after = broadcast_busy_time();

  EXPECT_EQ(replacement.frames.size(), 1u);
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(busy_after, busy_before);
}

INSTANTIATE_TEST_SUITE_P(Media, AllMediaTest,
                         ::testing::Values(Kind::kEther, Kind::kAckEther, Kind::kStar,
                                           Kind::kRing),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kEther:
                               return "Ethernet";
                             case Kind::kAckEther:
                               return "AcknowledgingEthernet";
                             case Kind::kStar:
                               return "StarHub";
                             case Kind::kRing:
                               return "TokenRing";
                           }
                           return "?";
                         });

// ---------------------------------------------------------------------------
// Medium-specific behaviour
// ---------------------------------------------------------------------------

TEST(Ethernet, ContentionCausesCollisionsOnlyWithMultipleSenders) {
  Simulator sim;
  EthernetOptions options;
  Ethernet ether(&sim, MediumTimings{}, MediumFaults{}, 7, options);
  TestStation a(&ether, NodeId{1});
  TestStation b(&ether, NodeId{2});
  TestStation c(&ether, NodeId{3});

  // Single sender: no contention possible.
  for (int i = 0; i < 50; ++i) {
    ether.Send(MakeFrame(1, 2));
  }
  sim.RunFor(Seconds(5));
  EXPECT_EQ(ether.stats().collisions, 0u);

  // Two senders queue simultaneously: contention rounds occur.
  for (int i = 0; i < 50; ++i) {
    ether.Send(MakeFrame(1, 3));
    ether.Send(MakeFrame(2, 3));
  }
  sim.RunFor(Seconds(10));
  EXPECT_GT(ether.stats().collisions, 0u);
}

TEST(Ethernet, AckFramesBypassContentionInAcknowledgingMode) {
  Simulator sim;
  EthernetOptions options;
  options.acknowledging = true;
  Ethernet ether(&sim, MediumTimings{}, MediumFaults{}, 7, options);
  TestStation a(&ether, NodeId{1});
  TestStation b(&ether, NodeId{2});

  Frame ack = MakeFrame(2, 1, 8);
  ack.type = FrameType::kAck;
  ether.Send(std::move(ack));
  sim.RunFor(Millis(1));
  ASSERT_EQ(a.frames.size(), 1u);  // Delivered in the reserved slot, fast.
}

TEST(StarHub, DeliveryTakesTwoLegs) {
  Simulator sim;
  StarHub star(&sim, MediumTimings{}, MediumFaults{}, 1);
  TestStation a(&star, NodeId{1});
  TestStation b(&star, NodeId{2});
  Frame frame = MakeFrame(1, 2, 1024);
  const SimDuration one_leg = MediumTimings{}.TransmitTime(frame.WireBytes());
  star.Send(std::move(frame));
  sim.RunFor(one_leg + one_leg / 2);
  EXPECT_TRUE(b.frames.empty()) << "frame must still be on the hub leg";
  sim.RunFor(one_leg);
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(TokenRing, DestinationBeforeRecorderPaysAnExtraRotation) {
  Simulator sim;
  TokenRingOptions options;
  TokenRing ring(&sim, MediumTimings{}, MediumFaults{}, 1, options);
  // Attach order = ring order: 1(recorder position 0), 2, 3, 4.
  TestStation r(&ring, NodeId{1});
  TestStation s(&ring, NodeId{2});
  TestStation before(&ring, NodeId{4});  // Hmm: position 3.
  TestStation after(&ring, NodeId{3});   // Position 2.

  // Sender is node 2 (position 1).  Recorder at position 0 is 3 hops away
  // (1->2->3->0 going forward: positions 2,3,0).  Node 3 (position 2) is 1
  // hop: BEFORE the recorder.  Node 4 (position 3) is 2 hops: also before.
  ring.Send(MakeFrame(2, 3));
  sim.RunFor(Seconds(1));
  EXPECT_EQ(ring.extra_rotations(), 1u);
  EXPECT_EQ(after.frames.size(), 1u);
}

TEST(TokenRing, ReceiverFaultInjectionMarksFramesCorrupted) {
  Simulator sim;
  MediumFaults faults;
  faults.receiver_error_rate = 1.0;
  TokenRing ring(&sim, MediumTimings{}, faults, 1, TokenRingOptions{});
  TestStation a(&ring, NodeId{1});
  TestStation b(&ring, NodeId{2});
  ring.Send(MakeFrame(1, 2));
  sim.RunFor(Seconds(1));
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(b.frames[0].corrupted);
}

}  // namespace
}  // namespace publishing
