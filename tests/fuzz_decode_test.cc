// Robustness: every wire decoder must reject arbitrary garbage gracefully —
// the recorder rebuilds its database from disk pages (§4.5) and parses
// everything it overhears, so corrupt inputs must never crash it.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/storage_journal.h"
#include "src/demos/node_image.h"
#include "src/demos/process_image.h"
#include "src/demos/protocol.h"
#include "src/storage/log_segment.h"
#include "src/transport/packet.h"

namespace publishing {
namespace {

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

template <typename Decoder>
void FuzzDecoder(uint64_t seed, Decoder decode) {
  Rng rng(seed);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage = RandomBytes(rng, 512);
    auto result = decode(garbage);
    (void)result;  // Must not crash; error or value are both acceptable.
  }
}

TEST(FuzzDecode, Packet) {
  FuzzDecoder(1, [](const Bytes& b) { return ParsePacket(b).ok(); });
  // The header parser sees the same corpus and accepts exactly what
  // ParsePacket accepts.
  FuzzDecoder(1, [](const Bytes& b) {
    const bool header_ok = ParsePacketHeader(b).ok();
    EXPECT_EQ(header_ok, ParsePacket(b).ok());
    return header_ok;
  });
  // Garbage almost never frames correctly, so also damage every byte of a
  // valid packet: header bytes stay parseable, length prefixes do not, and
  // the two parsers must agree either way.
  Packet packet;
  packet.header.id = MessageId{ProcessId{NodeId{1}, 2}, 3};
  packet.link_blob = Bytes(6, 0xAA);
  packet.body = Bytes(20, 0xBB);
  const Bytes valid = SerializePacket(packet);
  for (size_t i = 0; i < valid.size(); ++i) {
    Bytes mutated = valid;
    mutated[i] ^= 0xFF;
    auto full = ParsePacket(mutated);
    auto header = ParsePacketHeader(mutated);
    ASSERT_EQ(header.ok(), full.ok()) << "byte " << i;
    if (full.ok()) {
      EXPECT_EQ(*header, full->header) << "byte " << i;
    }
  }
}
TEST(FuzzDecode, Ack) {
  FuzzDecoder(2, [](const Bytes& b) { return ParseAck(b).ok(); });
}
TEST(FuzzDecode, CreateProcessRequest) {
  FuzzDecoder(3, [](const Bytes& b) { return DecodeCreateProcessRequest(b).ok(); });
}
TEST(FuzzDecode, ProcessNotice) {
  FuzzDecoder(4, [](const Bytes& b) { return DecodeProcessNotice(b).ok(); });
}
TEST(FuzzDecode, Checkpoint) {
  FuzzDecoder(5, [](const Bytes& b) { return DecodeCheckpoint(b).ok(); });
}
TEST(FuzzDecode, RecreateRequest) {
  FuzzDecoder(6, [](const Bytes& b) { return DecodeRecreateRequest(b).ok(); });
}
TEST(FuzzDecode, StateQueryAndReply) {
  FuzzDecoder(7, [](const Bytes& b) { return DecodeStateQuery(b).ok(); });
  FuzzDecoder(8, [](const Bytes& b) { return DecodeStateReply(b).ok(); });
}
TEST(FuzzDecode, ProcessImage) {
  FuzzDecoder(9, [](const Bytes& b) { return DecodeProcessImage(b).ok(); });
}
TEST(FuzzDecode, NodeImage) {
  FuzzDecoder(10, [](const Bytes& b) { return DecodeNodeImage(b).ok(); });
}
TEST(FuzzDecode, NodeRecoveryPayloads) {
  FuzzDecoder(11, [](const Bytes& b) { return DecodeRestoreNodeRequest(b).ok(); });
  FuzzDecoder(12, [](const Bytes& b) { return DecodeNodeReplayMessage(b).ok(); });
  FuzzDecoder(13, [](const Bytes& b) { return DecodeNodeCheckpoint(b).ok(); });
}

// Truncation sweep: every prefix of a VALID encoding must decode to an error
// (never crash, never silently succeed with partial data).
TEST(FuzzDecode, TruncatedValidPacketAlwaysRejected) {
  Packet packet;
  packet.header.id = MessageId{ProcessId{NodeId{1}, 2}, 3};
  packet.header.src_process = ProcessId{NodeId{1}, 2};
  packet.header.dst_process = ProcessId{NodeId{4}, 5};
  packet.header.flags = kFlagGuaranteed;
  packet.link_blob = Bytes(10, 0xAA);
  packet.body = Bytes(100, 0xBB);
  Bytes full = SerializePacket(packet);
  for (size_t len = 0; len < full.size(); ++len) {
    Bytes prefix(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(ParsePacket(prefix).ok()) << "prefix length " << len;
    EXPECT_FALSE(ParsePacketHeader(prefix).ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(ParsePacket(full).ok());
  auto parsed = ParsePacket(full);
  auto header = ParsePacketHeader(full);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(*header, parsed->header);
  EXPECT_EQ(*header, packet.header);

  Bytes trailing = full;
  trailing.push_back(0);
  EXPECT_FALSE(ParsePacket(trailing).ok());
  EXPECT_FALSE(ParsePacketHeader(trailing).ok());
}

// Bit-flip sweep on a valid node image: decode must not crash, and flips the
// decoder accepts must still produce a structurally sane image.
TEST(FuzzDecode, BitFlippedNodeImageHandled) {
  NodeImage image;
  image.node = NodeId{2};
  image.node_step = 42;
  NodeProcessEntry entry;
  entry.pid = ProcessId{NodeId{2}, 7};
  entry.image.program_name = "prog";
  entry.image.program_state = Bytes(32, 0x11);
  image.processes.push_back(entry);
  Bytes full = EncodeNodeImage(image);

  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = full;
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    auto decoded = DecodeNodeImage(mutated);
    if (decoded.ok()) {
      EXPECT_LE(decoded->processes.size(), 1000u);
    }
  }
}


// --- Storage-engine record framing (src/storage/log_segment.h) ---

// Arbitrary garbage through the frame decoder: any FrameParse outcome is
// fine, crashing or out-of-bounds reads are not.
TEST(FuzzDecode, SegmentFrameGarbage) {
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage = RandomBytes(rng, 512);
    FrameDecodeResult frame = DecodeRecordFrame(garbage, 0);
    if (frame.parse == FrameParse::kOk) {
      EXPECT_LE(frame.next_offset, garbage.size());
    }
  }
}

// Random single-byte flips over a valid frame: the decoder must never
// accept an altered payload as valid.  Either the frame is rejected
// (kTorn/kCorrupt) or — when the flip is confined to bytes past the frame —
// the payload decodes byte-identical.
TEST(FuzzDecode, SegmentFrameBitFlipsNeverMisaccept) {
  Rng rng(22);
  for (int i = 0; i < 1000; ++i) {
    Bytes payload = RandomBytes(rng, 128);
    Bytes frame_bytes;
    AppendRecordFrame(frame_bytes, payload);
    Bytes mutated = frame_bytes;
    const size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    FrameDecodeResult frame = DecodeRecordFrame(mutated, 0);
    if (frame.parse == FrameParse::kOk) {
      EXPECT_EQ(Bytes(frame.payload.begin(), frame.payload.end()), payload)
          << "flip at " << pos << " was accepted with altered content";
    }
  }
}

// Random truncations of a multi-record buffer must yield a valid prefix of
// the original records and then a kTorn/kEnd tail — never an invented or
// reordered record.
TEST(FuzzDecode, SegmentFrameTruncationYieldsPrefix) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    std::vector<Bytes> payloads;
    Bytes buffer;
    const size_t n = 1 + rng.NextBelow(6);
    for (size_t j = 0; j < n; ++j) {
      payloads.push_back(RandomBytes(rng, 64));
      AppendRecordFrame(buffer, payloads.back());
    }
    Bytes cut(buffer.begin(),
              buffer.begin() + static_cast<ptrdiff_t>(rng.NextBelow(buffer.size() + 1)));
    size_t offset = 0;
    size_t index = 0;
    for (;;) {
      FrameDecodeResult frame = DecodeRecordFrame(cut, offset);
      if (frame.parse != FrameParse::kOk) {
        EXPECT_NE(frame.parse, FrameParse::kCorrupt) << "truncation is torn, not corrupt";
        break;
      }
      ASSERT_LT(index, payloads.size());
      EXPECT_EQ(Bytes(frame.payload.begin(), frame.payload.end()), payloads[index]);
      ++index;
      offset = frame.next_offset;
    }
  }
}

// Journal records through StorageJournal::Apply: garbage must come back as
// a status, never a crash, and must leave no half-applied wreckage that a
// later valid record trips over.
TEST(FuzzDecode, JournalRecordGarbage) {
  Rng rng(24);
  StableStorage db;
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage = RandomBytes(rng, 256);
    (void)StorageJournal::Apply(db, garbage);
  }
  // The database still works after the bombardment.
  ProcessId pid{NodeId{1}, 900};
  Bytes create = StorageJournal::EncodeCreate(pid, "prog", {}, NodeId{1}, true);
  EXPECT_TRUE(StorageJournal::Apply(db, create).ok());
  EXPECT_TRUE(db.Knows(pid));
}

// Bit flips over valid journal records: Apply either rejects or applies a
// record that decodes cleanly; unknown ops are always rejected.
TEST(FuzzDecode, JournalRecordBitFlips) {
  Rng rng(25);
  ProcessId pid{NodeId{2}, 901};
  const Bytes original =
      StorageJournal::EncodeAppendMessage(pid, MessageId{pid, 5}, Bytes(40, 0x3c));
  for (int i = 0; i < 1000; ++i) {
    Bytes mutated = original;
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    StableStorage db;
    db.RecordCreation(pid, "prog", {}, NodeId{2});
    (void)StorageJournal::Apply(db, mutated);  // Any status; no crash.
  }
}

}  // namespace
}  // namespace publishing
