// Unit tests for the Recorder itself: what gets logged, what gets vetoed,
// and what the tap ignores.

#include <gtest/gtest.h>

#include "src/core/recorder.h"
#include "src/net/ethernet.h"
#include "src/net/link_layer.h"

namespace publishing {
namespace {

struct RecorderFixture {
  RecorderFixture()
      : ether(&sim, MediumTimings{}, MediumFaults{}, 1, EthernetOptions{}),
        recorder(&sim, &ether, &names, &storage, RecorderOptions{}) {}

  Frame DataFrame(uint32_t src_node, uint64_t seq, uint8_t flags = kFlagGuaranteed) {
    Packet packet;
    packet.header.id = MessageId{ProcessId{NodeId{src_node}, 9}, seq};
    packet.header.src_process = ProcessId{NodeId{src_node}, 9};
    packet.header.dst_process = ProcessId{NodeId{2}, 9};
    packet.header.src_node = NodeId{src_node};
    packet.header.dst_node = NodeId{2};
    packet.header.flags = flags;
    packet.body = Bytes(64, 0x42);
    Frame frame;
    frame.src = NodeId{src_node};
    frame.dst = NodeId{2};
    frame.payload = LinkWrap(SerializePacket(packet));
    return frame;
  }

  Simulator sim;
  NameService names;
  StableStorage storage;
  Ethernet ether;
  Recorder recorder;
};

TEST(Recorder, LogsGuaranteedDataFrames) {
  RecorderFixture f;
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 1)));
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 2)));
  EXPECT_EQ(f.recorder.stats().messages_published, 2u);
  EXPECT_EQ(f.storage.Replay(ProcessId{NodeId{2}, 9}).size(), 2u);
  EXPECT_EQ(f.storage.LastSent(ProcessId{NodeId{1}, 9}), 2u);
}

TEST(Recorder, UnguaranteedFramesAreNotLogged) {
  RecorderFixture f;
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 1, /*flags=*/0)));
  EXPECT_EQ(f.recorder.stats().messages_published, 0u);
  EXPECT_TRUE(f.storage.Replay(ProcessId{NodeId{2}, 9}).empty());
  // But the sender watermark still advanced (restart floors need it).
  EXPECT_EQ(f.storage.LastSent(ProcessId{NodeId{1}, 9}), 1u);
}

TEST(Recorder, ControlFramesAreNotLoggedButWatermarked) {
  RecorderFixture f;
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 7, kFlagGuaranteed | kFlagControl)));
  EXPECT_EQ(f.recorder.stats().messages_published, 0u);
  EXPECT_EQ(f.recorder.stats().control_seen, 1u);
  EXPECT_EQ(f.storage.LastSent(ProcessId{NodeId{1}, 9}), 7u);
}

TEST(Recorder, ReplayFramesAreIgnored) {
  RecorderFixture f;
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 1, kFlagGuaranteed | kFlagReplay)));
  EXPECT_EQ(f.recorder.stats().messages_published, 0u);
  EXPECT_EQ(f.recorder.stats().replay_seen, 1u);
  EXPECT_EQ(f.storage.LastSent(ProcessId{NodeId{1}, 9}), 0u)
      << "replayed ids are old; they must not move the watermark";
}

TEST(Recorder, OwnTransmissionsAreSkipped) {
  RecorderFixture f;
  Frame frame = f.DataFrame(1, 1);
  frame.src = f.recorder.node();
  EXPECT_TRUE(f.recorder.OnWireFrame(frame));
  EXPECT_EQ(f.recorder.stats().messages_published, 0u);
}

TEST(Recorder, CorruptFramesAreVetoed) {
  RecorderFixture f;
  Frame frame = f.DataFrame(1, 1);
  frame.payload = LinkCorrupt(frame.payload, 10);
  EXPECT_FALSE(f.recorder.OnWireFrame(frame))
      << "a frame the recorder cannot read must be vetoed";
  EXPECT_EQ(f.recorder.stats().messages_published, 0u);

  // Accepting a clean frame's sealed payload vouches for nothing else: a
  // damaged copy of that same frame is still checked and vetoed.
  Frame clean = f.DataFrame(1, 2);
  EXPECT_TRUE(f.recorder.OnWireFrame(clean));
  EXPECT_EQ(f.recorder.stats().messages_published, 1u);
  Frame damaged = clean;
  damaged.payload = LinkCorrupt(clean.payload, 10);
  EXPECT_FALSE(f.recorder.OnWireFrame(damaged));
  EXPECT_EQ(f.recorder.stats().messages_published, 1u);
}

TEST(Recorder, DownRecorderVetoesEverything) {
  RecorderFixture f;
  f.recorder.Crash();
  EXPECT_FALSE(f.recorder.OnWireFrame(f.DataFrame(1, 1)));
  f.recorder.Restart();
  EXPECT_TRUE(f.recorder.OnWireFrame(f.DataFrame(1, 2)));
}

TEST(Recorder, RestartBumpsRestartNumberAndFiresHandler) {
  RecorderFixture f;
  uint64_t seen = 0;
  f.recorder.set_restart_handler([&seen](uint64_t n) { seen = n; });
  f.recorder.Crash();
  f.recorder.Restart();
  EXPECT_EQ(seen, 1u);
  f.recorder.Crash();
  f.recorder.Restart();
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(f.storage.restart_number(), 2u);
}

TEST(Recorder, ApplyNoticeIsIdempotent) {
  RecorderFixture f;
  ProcessNotice notice;
  notice.pid = ProcessId{NodeId{2}, 5};
  notice.program = "prog";
  Packet packet;
  packet.header.src_node = NodeId{2};
  packet.body = EncodeProcessNotice(KernelOp::kNoticeCreated, notice);
  EXPECT_TRUE(f.recorder.ApplyNotice(packet));
  EXPECT_TRUE(f.recorder.ApplyNotice(packet));  // Overheard twice: harmless.
  auto info = f.storage.Info(notice.pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->program, "prog");
}

TEST(Recorder, RetransmittedFrameLoggedOnce) {
  RecorderFixture f;
  Frame frame = f.DataFrame(1, 1);
  EXPECT_TRUE(f.recorder.OnWireFrame(frame));
  EXPECT_TRUE(f.recorder.OnWireFrame(frame));  // Lost-ack retransmission.
  EXPECT_EQ(f.storage.Replay(ProcessId{NodeId{2}, 9}).size(), 1u);
}

}  // namespace
}  // namespace publishing
