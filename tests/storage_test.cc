// Unit tests for the durable log-structured storage engine (src/storage):
// record framing, torn-tail detection, the segmented WAL with group commit,
// journal replay equivalence, and compaction crash-consistency.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/rng.h"
#include "src/core/storage_journal.h"
#include "src/sim/stats.h"
#include "src/storage/compactor.h"
#include "src/storage/log_segment.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"

namespace publishing {
namespace {

namespace fs = std::filesystem;

// A fresh, empty directory under the test temp root.
std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("pub_storage_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Bytes MakePayload(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

TEST(LogSegment, FrameRoundTrip) {
  Bytes buffer;
  std::vector<Bytes> payloads = {MakePayload(1, 10), MakePayload(100, 20), MakePayload(0, 0),
                                 MakePayload(4096, 30)};
  for (const Bytes& p : payloads) {
    AppendRecordFrame(buffer, p);
  }
  size_t offset = 0;
  for (const Bytes& p : payloads) {
    FrameDecodeResult frame = DecodeRecordFrame(buffer, offset);
    ASSERT_EQ(frame.parse, FrameParse::kOk);
    EXPECT_EQ(Bytes(frame.payload.begin(), frame.payload.end()), p);
    offset = frame.next_offset;
  }
  EXPECT_EQ(DecodeRecordFrame(buffer, offset).parse, FrameParse::kEnd);
}

TEST(LogSegment, FlippedPayloadByteIsCorrupt) {
  Bytes buffer;
  AppendRecordFrame(buffer, MakePayload(32, 1));
  buffer[kRecordFrameOverhead + 5] ^= 0x01;
  EXPECT_EQ(DecodeRecordFrame(buffer, 0).parse, FrameParse::kCorrupt);
}

TEST(LogSegment, AbsurdLengthIsCorruptNotAllocation) {
  Bytes buffer;
  AppendRecordFrame(buffer, MakePayload(8, 1));
  // Overwrite the length field with something past kMaxRecordBytes.
  buffer[0] = 0xff;
  buffer[1] = 0xff;
  buffer[2] = 0xff;
  buffer[3] = 0xff;
  EXPECT_EQ(DecodeRecordFrame(buffer, 0).parse, FrameParse::kCorrupt);
}

TEST(LogSegment, TruncatedFrameIsTorn) {
  Bytes buffer;
  AppendRecordFrame(buffer, MakePayload(32, 1));
  for (size_t cut = 1; cut < buffer.size(); ++cut) {
    Bytes prefix(buffer.begin(), buffer.begin() + static_cast<ptrdiff_t>(cut));
    FrameDecodeResult frame = DecodeRecordFrame(prefix, 0);
    EXPECT_EQ(frame.parse, FrameParse::kTorn) << "cut at " << cut;
  }
}

TEST(LogSegment, HeaderRoundTrip) {
  Bytes header = EncodeSegmentHeader(42);
  ASSERT_EQ(header.size(), kSegmentHeaderBytes);
  EXPECT_EQ(header[kSegmentMagicBytes], 2u) << "the LSN-framed format is version 2";
  auto seq = DecodeSegmentHeader(header);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 42u);
  Bytes other_version = header;
  other_version[kSegmentMagicBytes] = 1;
  EXPECT_FALSE(DecodeSegmentHeader(other_version).ok()) << "one format version";
  header[0] ^= 0xff;
  EXPECT_FALSE(DecodeSegmentHeader(header).ok());
}

// ---------------------------------------------------------------------------
// Segment files on disk
// ---------------------------------------------------------------------------

TEST(LogSegment, WriteScanRoundTrip) {
  const std::string dir = TestDir("segment_roundtrip");
  const std::string path = dir + "/wal-0000000007.seg";
  std::vector<Bytes> payloads;
  {
    SegmentWriter writer;
    ASSERT_TRUE(writer.Open(path, 7).ok());
    for (int i = 0; i < 10; ++i) {
      payloads.push_back(MakePayload(16 + static_cast<size_t>(i) * 13,
                                     static_cast<uint8_t>(i)));
      ASSERT_TRUE(writer.Append(100 + static_cast<uint64_t>(i), payloads.back()).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  auto scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->seq, 7u);
  EXPECT_TRUE(scan->clean);
  EXPECT_EQ(scan->tail, FrameParse::kEnd);
  EXPECT_EQ(scan->dropped_bytes, 0u);
  EXPECT_EQ(scan->short_records, 0u);
  ASSERT_EQ(scan->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, 100 + i);
    EXPECT_EQ(scan->records[i].record, payloads[i]);
  }
}

// Satellite: a crash mid-write can truncate the file at ANY byte of the last
// record's frame; the scan must surface every earlier record and drop
// exactly the torn tail — never crash, never mis-accept.
TEST(LogSegment, TruncateAtEveryByteOffsetDropsOnlyTornTail) {
  const std::string dir = TestDir("segment_truncate");
  const std::string full = dir + "/full.seg";
  std::vector<Bytes> payloads;
  size_t last_frame_start = 0;
  {
    SegmentWriter writer;
    ASSERT_TRUE(writer.Open(full, 1).ok());
    for (int i = 0; i < 5; ++i) {
      payloads.push_back(MakePayload(24 + static_cast<size_t>(i) * 7,
                                     static_cast<uint8_t>(0x40 + i)));
      last_frame_start = writer.bytes();
      ASSERT_TRUE(writer.Append(1 + static_cast<uint64_t>(i), payloads.back()).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  const size_t full_size = fs::file_size(full);
  ASSERT_GT(full_size, last_frame_start);

  const std::string cut_path = dir + "/cut.seg";
  for (size_t cut = last_frame_start; cut < full_size; ++cut) {
    fs::copy_file(full, cut_path, fs::copy_options::overwrite_existing);
    fs::resize_file(cut_path, cut);
    auto scan = ScanSegment(cut_path);
    ASSERT_TRUE(scan.ok()) << "cut at " << cut;
    ASSERT_EQ(scan->records.size(), payloads.size() - 1) << "cut at " << cut;
    for (size_t i = 0; i + 1 < payloads.size(); ++i) {
      EXPECT_EQ(scan->records[i].record, payloads[i]) << "cut at " << cut;
    }
    if (cut == last_frame_start) {
      // Truncation exactly on the frame boundary looks like a clean end.
      EXPECT_TRUE(scan->clean);
      EXPECT_EQ(scan->dropped_bytes, 0u);
    } else {
      EXPECT_FALSE(scan->clean) << "cut at " << cut;
      EXPECT_EQ(scan->tail, FrameParse::kTorn) << "cut at " << cut;
      EXPECT_EQ(scan->dropped_bytes, cut - last_frame_start) << "cut at " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// WAL: group commit, rollover, reopen
// ---------------------------------------------------------------------------

TEST(Wal, GroupCommitByRecordCount) {
  WalOptions options;
  options.dir = TestDir("wal_group_count");
  options.group_commit_records = 4;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  Bytes record = MakePayload(64, 9);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*wal)->Append(record, 0).ok());
  }
  EXPECT_EQ((*wal)->stats().syncs, 0u);
  EXPECT_EQ((*wal)->PendingRecords(), 3u);
  ASSERT_TRUE((*wal)->Append(record, 0).ok());
  EXPECT_EQ((*wal)->stats().syncs, 1u);
  EXPECT_EQ((*wal)->PendingRecords(), 0u);
  // An explicit Sync with nothing pending is free.
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->stats().syncs, 1u);
}

TEST(Wal, GroupCommitByVirtualTime) {
  WalOptions options;
  options.dir = TestDir("wal_group_time");
  options.group_commit_records = 1000;  // Count trigger effectively off.
  options.group_commit_interval = 100;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  Bytes record = MakePayload(16, 3);
  ASSERT_TRUE((*wal)->Append(record, 50).ok());
  EXPECT_EQ((*wal)->stats().syncs, 0u) << "window not yet elapsed";
  ASSERT_TRUE((*wal)->Append(record, 120).ok());
  EXPECT_EQ((*wal)->stats().syncs, 1u) << "window elapsed since last sync";
  ASSERT_TRUE((*wal)->Append(record, 150).ok());
  EXPECT_EQ((*wal)->stats().syncs, 1u) << "new window starts at the sync";
  ASSERT_TRUE((*wal)->Append(record, 230).ok());
  EXPECT_EQ((*wal)->stats().syncs, 2u);
}

TEST(Wal, RollsSegmentsAndReopenStartsFresh) {
  WalOptions options;
  options.dir = TestDir("wal_roll");
  options.segment_bytes = 256;
  options.group_commit_records = 1;
  // A default log is one stripe: its chain lives under stripe-000/.
  const std::string chain = StripePath(options.dir, 0);
  uint64_t highest_seq = 0;
  uint64_t highest_lsn = 0;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*wal)->Append(MakePayload(100, static_cast<uint8_t>(i)), 0).ok());
    }
    EXPECT_GT((*wal)->SegmentCount(), 1u);
    auto paths = ListSegmentPaths(chain);
    ASSERT_TRUE(paths.ok());
    ASSERT_FALSE(paths->empty());
    EXPECT_EQ(paths->size(), (*wal)->SegmentCount());
    auto last = ScanSegment(paths->back());
    ASSERT_TRUE(last.ok());
    ASSERT_FALSE(last->records.empty());
    highest_seq = last->seq;
    highest_lsn = last->records.back().lsn;
    EXPECT_EQ(highest_lsn, 20u);
  }
  // Reopen: appends go to a NEW segment past the highest sequence; old
  // segments (and any torn tails in them) are never appended to.  The LSN
  // sequence continues where the old log stopped.
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(MakePayload(10, 0xaa), 0).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  auto paths = ListSegmentPaths(chain);
  ASSERT_TRUE(paths.ok());
  ASSERT_FALSE(paths->empty());
  auto last = ScanSegment(paths->back());
  ASSERT_TRUE(last.ok());
  EXPECT_GT(last->seq, highest_seq);
  ASSERT_EQ(last->records.size(), 1u);
  EXPECT_EQ(last->records[0].lsn, highest_lsn + 1);
  EXPECT_EQ(last->records[0].record, MakePayload(10, 0xaa));
}

// ---------------------------------------------------------------------------
// Journal replay: a recovered database is observably identical
// ---------------------------------------------------------------------------

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

// Drives a representative mutation history through `db`.
void ApplyHistory(StableStorage& db) {
  ProcessId a = Pid(1, 100);
  ProcessId b = Pid(2, 200);
  db.RecordCreation(a, "pinger", {Link{b, 1, 7, 0}}, NodeId{1});
  db.RecordCreation(b, "echo", {}, NodeId{2});
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    db.AppendMessage(b, Mid(a, seq), MakePayload(40, static_cast<uint8_t>(seq)));
    db.RecordSent(a, seq);
  }
  // Duplicate append: must stay a no-op after replay too.
  db.AppendMessage(b, Mid(a, 3), MakePayload(40, 3));
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    db.RecordRead(b, Mid(a, seq));
  }
  db.StoreCheckpoint(b, MakePayload(128, 0x55), /*reads_done=*/3);
  // Migrate-back: b's entry leaves for another segment and returns.  The
  // drop and the import move whole entries in and out of the store, and
  // the later append lands on the re-installed entry.
  auto blob = db.ExportEntry(b);
  ASSERT_TRUE(blob.ok());
  db.DropEntry(b, NodeId{9});
  ASSERT_TRUE(db.ImportEntry(*blob, NodeId{2}).ok());
  db.AppendMessage(b, Mid(a, 9), MakePayload(40, 9));
  db.RecordSent(a, 9);
  db.SetRecovering(a, true);
  db.SetHomeNode(a, NodeId{3});
  // Node-unit side.
  db.AppendNodeMessage(NodeId{2}, Mid(a, 50), MakePayload(30, 0x66));
  db.StampNodeMessage(NodeId{2}, Mid(a, 50), 7);
  db.StoreNodeCheckpoint(NodeId{2}, MakePayload(64, 0x77), 5);
  db.IncrementRestartNumber();
  // A destroyed process leaves a tombstone.
  ProcessId c = Pid(1, 101);
  db.RecordCreation(c, "echo", {}, NodeId{1});
  db.RecordDestruction(c);
}

// The bytes `db` holds, summed from its per-process entries rather than read
// from its running total, so a total that drifts the same way on the live and
// the rebuilt store still fails.  The histories here create every process
// they log for, so AllProcesses() covers every entry holding bytes.
size_t SumOfEntryBytes(const StableStorage& db) {
  size_t total = 0;
  for (const ProcessId& pid : db.AllProcesses()) {
    auto info = db.Info(pid);
    total += info.ok() ? info->log_bytes + info->checkpoint_bytes : 0;
  }
  return total;
}

void ExpectEquivalent(const StableStorage& got, const StableStorage& want) {
  EXPECT_EQ(got.restart_number(), want.restart_number());
  EXPECT_EQ(got.messages_stored(), want.messages_stored());
  EXPECT_EQ(got.TotalBytes(), SumOfEntryBytes(got));
  EXPECT_EQ(want.TotalBytes(), SumOfEntryBytes(want));
  EXPECT_EQ(got.TotalBytes(), want.TotalBytes());
  EXPECT_EQ(got.PeakBytes(), want.PeakBytes());
  EXPECT_EQ(got.AllProcesses(), want.AllProcesses());
  for (const ProcessId& pid : want.AllProcesses()) {
    SCOPED_TRACE(ToString(pid));
    auto got_info = got.Info(pid);
    auto want_info = want.Info(pid);
    ASSERT_TRUE(got_info.ok());
    ASSERT_TRUE(want_info.ok());
    EXPECT_EQ(got_info->program, want_info->program);
    EXPECT_EQ(got_info->initial_links, want_info->initial_links);
    EXPECT_EQ(got_info->home_node, want_info->home_node);
    EXPECT_EQ(got_info->destroyed, want_info->destroyed);
    EXPECT_EQ(got_info->recoverable, want_info->recoverable);
    EXPECT_EQ(got_info->recovering, want_info->recovering);
    EXPECT_EQ(got_info->has_checkpoint, want_info->has_checkpoint);
    EXPECT_EQ(got_info->checkpoint_reads, want_info->checkpoint_reads);
    EXPECT_EQ(got_info->last_sent_seq, want_info->last_sent_seq);
    EXPECT_EQ(got_info->log_bytes, want_info->log_bytes);
    EXPECT_EQ(got_info->checkpoint_bytes, want_info->checkpoint_bytes);
    EXPECT_EQ(got_info->log_entries, want_info->log_entries);
    auto got_replay = got.Replay(pid);
    auto want_replay = want.Replay(pid);
    ASSERT_EQ(got_replay.size(), want_replay.size());
    for (size_t i = 0; i < want_replay.size(); ++i) {
      EXPECT_EQ(got_replay[i].id, want_replay[i].id);
      EXPECT_EQ(got_replay[i].arrival, want_replay[i].arrival);
      EXPECT_EQ(got_replay[i].read, want_replay[i].read);
      EXPECT_EQ(got_replay[i].read_seq, want_replay[i].read_seq);
      EXPECT_EQ(got_replay[i].packet, want_replay[i].packet);
    }
    if (want_info->has_checkpoint) {
      auto got_ckpt = got.LoadCheckpoint(pid);
      auto want_ckpt = want.LoadCheckpoint(pid);
      ASSERT_TRUE(got_ckpt.ok());
      ASSERT_TRUE(want_ckpt.ok());
      EXPECT_EQ(*got_ckpt, *want_ckpt);
    }
    EXPECT_EQ(got.LastSent(pid), want.LastSent(pid));
  }
  // Node-unit storage.
  auto got_node = got.LoadNodeCheckpoint(NodeId{2});
  auto want_node = want.LoadNodeCheckpoint(NodeId{2});
  ASSERT_EQ(got_node.ok(), want_node.ok());
  if (want_node.ok()) {
    EXPECT_EQ(got_node->image, want_node->image);
    EXPECT_EQ(got_node->node_step, want_node->node_step);
  }
  auto got_nreplay = got.NodeReplayList(NodeId{2});
  auto want_nreplay = want.NodeReplayList(NodeId{2});
  ASSERT_EQ(got_nreplay.size(), want_nreplay.size());
  for (size_t i = 0; i < want_nreplay.size(); ++i) {
    EXPECT_EQ(got_nreplay[i].id, want_nreplay[i].id);
    EXPECT_EQ(got_nreplay[i].step, want_nreplay[i].step);
    EXPECT_EQ(got_nreplay[i].packet, want_nreplay[i].packet);
  }
}

TEST(RecoveredDb, ReplayReproducesDatabaseExactly) {
  WalOptions options;
  options.dir = TestDir("recover_exact");
  options.group_commit_records = 4;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  ApplyHistory(reference);

  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(durable);
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();  // Close all segment files.

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(report.records_applied, 0u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.torn_segments, 0u);
  ExpectEquivalent(*recovered, reference);
}

TEST(RecoveredDb, EmptyOrMissingDirectoryIsEmptyDatabase) {
  RecoveryReport report;
  auto recovered = RecoverStableStorage(TestDir("recover_empty"), &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.segments_scanned, 0u);
  EXPECT_TRUE(recovered->AllProcesses().empty());
  auto missing = RecoverStableStorage("/nonexistent/pub-wal-dir");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->AllProcesses().empty());
}

TEST(RecoveredDb, TornTailDropsOnlyLastRecord) {
  WalOptions options;
  options.dir = TestDir("recover_torn");
  options.group_commit_records = 1;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage durable;
  durable.AttachBackend(wal->get());
  ProcessId a = Pid(1, 100);
  ProcessId b = Pid(2, 200);
  durable.RecordCreation(a, "pinger", {}, NodeId{1});
  durable.RecordCreation(b, "echo", {}, NodeId{2});
  durable.AppendMessage(b, Mid(a, 1), MakePayload(64, 1));
  durable.AppendMessage(b, Mid(a, 2), MakePayload(64, 2));
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();

  // Tear the tail: chop bytes off the last (only) segment's final record.
  auto paths = ListSegmentPaths(StripePath(options.dir, 0));
  ASSERT_TRUE(paths.ok());
  ASSERT_FALSE(paths->empty());
  const std::string& last = paths->back();
  fs::resize_file(last, fs::file_size(last) - 10);

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.dropped_tail_bytes, 0u);
  // Everything but the torn append survived.
  auto replay = recovered->Replay(b);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].id, Mid(a, 1));
  EXPECT_TRUE(recovered->Knows(a));
}

// Segment writers hand frame header, LSN and record straight to stdio; the
// files must still be byte for byte what the reference encoder builds:
// EncodeSegmentHeader, then AppendRecordFrame(lsn ‖ record) per record.
TEST(Wal, SegmentBytesMatchReferenceEncoder) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  std::vector<Bytes> records;
  for (uint32_t p = 1; p <= 8; ++p) {
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      records.push_back(StorageJournal::EncodeAppendMessage(
          Pid(p, 100 + p), Mid(Pid(9, 9), seq),
          MakePayload(5 + 11 * seq, static_cast<uint8_t>(p))));
    }
    records.push_back(StorageJournal::EncodeRecordRead(Pid(p, 100 + p), Mid(Pid(9, 9), 1)));
  }
  records.push_back(StorageJournal::EncodeRestartNumber(3));

  // LSNs are global, from 1 in append order; each record lands on the
  // stripe its route key picks.
  for (size_t stripes : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(testing::Message() << stripes << " stripe(s)");
    WalOptions options;
    options.dir = TestDir("wal_reference_s" + std::to_string(stripes));
    options.stripes = stripes;
    {
      auto wal = Wal::Open(options);
      ASSERT_TRUE(wal.ok());
      for (const Bytes& record : records) {
        ASSERT_TRUE((*wal)->Append(record, 0).ok());
      }
      ASSERT_TRUE((*wal)->Sync().ok());
    }
    std::vector<Bytes> expected(stripes, EncodeSegmentHeader(1));
    uint64_t lsn = 1;
    for (const Bytes& record : records) {
      Bytes payload;
      for (size_t i = 0; i < kLsnPrefixBytes; ++i) {
        payload.push_back(static_cast<uint8_t>(lsn >> (8 * i)));
      }
      ++lsn;
      payload.insert(payload.end(), record.begin(), record.end());
      AppendRecordFrame(expected[StorageJournal::RouteKey(record) % stripes], payload);
    }
    for (size_t stripe = 0; stripe < stripes; ++stripe) {
      SCOPED_TRACE(testing::Message() << "stripe " << stripe);
      EXPECT_GT(expected[stripe].size(), kSegmentHeaderBytes) << "every stripe gets records";
      EXPECT_EQ(read_file(SegmentPath(StripePath(options.dir, stripe), 1)), expected[stripe]);
    }
  }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST(Compactor, GrowthPolicy) {
  CompactorOptions options;
  options.min_bytes = 1000;
  options.growth_factor = 2.0;
  Compactor compactor(options);
  EXPECT_FALSE(compactor.ShouldCompact(500, 1000));
  EXPECT_FALSE(compactor.ShouldCompact(1999, 1000));
  EXPECT_TRUE(compactor.ShouldCompact(2000, 1000));
  EXPECT_FALSE(compactor.ShouldCompact(999, 10)) << "below min_bytes never compacts";
}

TEST(Wal, CompactionRewritesLiveImageAndDeletesOldSegments) {
  WalOptions options;
  options.dir = TestDir("wal_compact");
  options.segment_bytes = 2048;
  options.group_commit_records = 1;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  StableStorage durable;
  durable.AttachBackend(wal->get());
  auto drive = [](StableStorage& db) {
    ProcessId a = Pid(1, 100);
    ProcessId b = Pid(2, 200);
    db.RecordCreation(a, "pinger", {}, NodeId{1});
    db.RecordCreation(b, "echo", {}, NodeId{2});
    for (uint64_t seq = 1; seq <= 50; ++seq) {
      db.AppendMessage(b, Mid(a, seq), MakePayload(80, static_cast<uint8_t>(seq)));
      db.RecordSent(a, seq);
      db.RecordRead(b, Mid(a, seq));
    }
    // The checkpoint subsumes all 50 reads: most of the log dies.
    db.StoreCheckpoint(b, MakePayload(64, 0x11), /*reads_done=*/50);
  };
  drive(reference);
  drive(durable);

  const std::vector<std::string> before = wal->get()->SegmentPaths();
  ASSERT_GT(before.size(), 1u) << "history must span several segments";
  ASSERT_TRUE(wal->get()->CompactNow());
  EXPECT_EQ(wal->get()->stats().compactions, 1u);
  // Every segment written before the rewrite is superseded by the snapshot
  // block and deleted.
  for (const std::string& path : before) {
    EXPECT_FALSE(fs::exists(path)) << path;
  }
  EXPECT_EQ(wal->get()->stats().compaction_segments_deleted, before.size());

  // Post-compaction appends land after the snapshot and must survive too.
  durable.AppendMessage(Pid(2, 200), Mid(Pid(1, 100), 51), MakePayload(80, 51));
  reference.AppendMessage(Pid(2, 200), Mid(Pid(1, 100), 51), MakePayload(80, 51));
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshots_applied, 1u);
  EXPECT_EQ(report.dangling_snapshots, 0u);
  ExpectEquivalent(*recovered, reference);
}

// A moved-away process's straggler annex must survive both snapshot
// compaction and journal replay: after a crash inside the migration hand-off
// window the annex can be the ONLY copy of transport-acked frames (the
// forwarding re-send died with the kernel), so a rebuild that loses it loses
// acked messages.  The recovered annex is what MigrationManager::ReclaimAnnex
// feeds to the new home.
TEST(RecoveredDb, StragglerAnnexSurvivesCompactionAndReplay) {
  WalOptions options;
  options.dir = TestDir("recover_annex");
  options.group_commit_records = 1;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage db;
  db.AttachBackend(wal->get());
  const ProcessId p = Pid(1, 100);
  const ProcessId sender = Pid(2, 200);
  db.RecordCreation(p, "echo", {}, NodeId{1});
  db.AppendMessage(p, Mid(sender, 1), MakePayload(20, 0x01));
  auto blob = db.ExportEntry(p);
  ASSERT_TRUE(blob.ok());
  db.DropEntry(p, NodeId{9});

  // Stragglers chase the moved process into the annex; the repeat of seq 2
  // is a retransmit and must be deduped.
  db.AppendMessage(p, Mid(sender, 2), MakePayload(20, 0x02));
  db.AppendMessage(p, Mid(sender, 3), MakePayload(20, 0x03));
  db.AppendMessage(p, Mid(sender, 2), MakePayload(20, 0x02));
  EXPECT_EQ(db.straggler_appends(), 2u);
  EXPECT_EQ(db.AnnexedProcesses(), std::vector<ProcessId>{p});

  // Compaction folds the annex into the snapshot image...
  ASSERT_TRUE(wal->get()->CompactNow());
  // ...and a post-snapshot straggler rides the journal tail: its replay must
  // re-route into the annex via the snapshotted tombstone.
  db.AppendMessage(p, Mid(sender, 4), MakePayload(20, 0x04));
  ASSERT_TRUE(db.Flush().ok());
  wal->reset();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshots_applied, 1u);
  auto moved = recovered->MovedTo(p);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, NodeId{9});
  ASSERT_EQ(recovered->AnnexedProcesses(), std::vector<ProcessId>{p});
  std::vector<LogEntry> annex = recovered->TakeAnnex(p);
  ASSERT_EQ(annex.size(), 3u);
  EXPECT_EQ(annex[0].id, Mid(sender, 2));
  EXPECT_EQ(annex[0].packet, MakePayload(20, 0x02));
  EXPECT_EQ(annex[1].id, Mid(sender, 3));
  EXPECT_EQ(annex[1].packet, MakePayload(20, 0x03));
  EXPECT_EQ(annex[2].id, Mid(sender, 4));
  EXPECT_EQ(annex[2].packet, MakePayload(20, 0x04));
  EXPECT_LT(annex[0].arrival, annex[1].arrival);
  EXPECT_LT(annex[1].arrival, annex[2].arrival);
  EXPECT_TRUE(recovered->AnnexedProcesses().empty()) << "TakeAnnex must drain";
}

TEST(Wal, CheckpointTriggersCompactionViaGrowthPolicy) {
  WalOptions options;
  options.dir = TestDir("wal_auto_compact");
  options.segment_bytes = 1024;
  options.group_commit_records = 1;
  options.compactor.min_bytes = 512;  // Tiny: force the trigger quickly.
  options.compactor.growth_factor = 1.5;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage durable;
  durable.AttachBackend(wal->get());
  ProcessId a = Pid(1, 100);
  ProcessId b = Pid(2, 200);
  durable.RecordCreation(a, "pinger", {}, NodeId{1});
  durable.RecordCreation(b, "echo", {}, NodeId{2});
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    durable.AppendMessage(b, Mid(a, seq), MakePayload(120, static_cast<uint8_t>(seq)));
    durable.RecordRead(b, Mid(a, seq));
    if (seq % 20 == 0) {
      durable.StoreCheckpoint(b, MakePayload(32, 0x22), seq);
    }
  }
  EXPECT_GT(wal->get()->stats().compactions, 0u)
      << "checkpoints over a growing log must eventually trigger compaction";
  EXPECT_GT(wal->get()->stats().compaction_bytes_reclaimed, 0u);
}

TEST(RecoveredDb, DanglingSnapshotIsIgnored) {
  // Simulate a crash mid-compaction: the snapshot segment was written
  // without its kSnapshotEnd, and the old segments were NOT yet deleted.
  WalOptions options;
  options.dir = TestDir("recover_dangling");
  options.group_commit_records = 1;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  StableStorage durable;
  durable.AttachBackend(wal->get());
  auto drive = [](StableStorage& db) {
    ProcessId a = Pid(1, 100);
    ProcessId b = Pid(2, 200);
    db.RecordCreation(a, "pinger", {}, NodeId{1});
    db.RecordCreation(b, "echo", {}, NodeId{2});
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      db.AppendMessage(b, Mid(a, seq), MakePayload(48, static_cast<uint8_t>(seq)));
    }
  };
  drive(reference);
  drive(durable);
  ASSERT_TRUE(durable.Flush().ok());
  // LSNs run from 1, one per appended record.
  uint64_t lsn = wal->get()->stats().records_appended + 1;
  wal->reset();

  // Hand-write a snapshot block with the end marker missing, as if the
  // compaction died between the last record and the fsync barrier (the old
  // segments are only deleted after the barrier, so they are still here).
  // Its LSNs follow the log's, as a reserved block's would.
  std::vector<Bytes> snapshot = StorageJournal::SnapshotRecords(reference);
  ASSERT_GT(snapshot.size(), 2u);
  snapshot.resize(2);  // kSnapshotBegin + first process image, no end.
  SegmentWriter writer;
  ASSERT_TRUE(writer.Open(SegmentPath(StripePath(options.dir, 0), 999), 999).ok());
  for (const Bytes& record : snapshot) {
    ASSERT_TRUE(writer.Append(lsn++, record).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  writer.Close();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.dangling_snapshots, 1u);
  EXPECT_EQ(report.snapshots_applied, 0u);
  EXPECT_GT(report.records_skipped, 0u);
  ExpectEquivalent(*recovered, reference);
}

// Undecodable journal payloads inside valid CRC frames are skipped, not
// fatal, and everything around them still applies.
TEST(RecoveredDb, UndecodableRecordIsSkipped) {
  const std::string dir = TestDir("recover_badrecord");
  const std::string chain = StripePath(dir, 0);
  fs::create_directories(chain);
  SegmentWriter writer;
  ASSERT_TRUE(writer.Open(SegmentPath(chain, 1), 1).ok());
  Bytes good1 = StorageJournal::EncodeCreate(Pid(1, 100), "pinger", {}, NodeId{1}, true);
  Bytes garbage = {0xee, 0x01, 0x02};  // Unknown op.
  Bytes truncated = StorageJournal::EncodeDestroy(Pid(1, 100));
  truncated.resize(3);  // Valid op byte, torn body.
  Bytes good2 = StorageJournal::EncodeCreate(Pid(2, 200), "echo", {}, NodeId{2}, true);
  ASSERT_TRUE(writer.Append(1, good1).ok());
  ASSERT_TRUE(writer.Append(2, garbage).ok());
  ASSERT_TRUE(writer.Append(3, truncated).ok());
  ASSERT_TRUE(writer.Append(4, good2).ok());
  ASSERT_TRUE(writer.Sync().ok());
  writer.Close();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(report.records_skipped, 2u);
  EXPECT_TRUE(recovered->Knows(Pid(1, 100)));
  EXPECT_TRUE(recovered->Knows(Pid(2, 200)));
}

// ---------------------------------------------------------------------------
// StatAccumulator extensions (used by the storage bench)
// ---------------------------------------------------------------------------

TEST(StatAccumulator, VarianceAndPercentiles) {
  StatAccumulator acc;
  for (int i = 1; i <= 100; ++i) {
    acc.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(acc.mean(), 50.5);
  // Population variance of 1..100 = (100^2 - 1) / 12 = 833.25.
  EXPECT_NEAR(acc.variance(), 833.25, 1e-9);
  EXPECT_NEAR(acc.stddev(), 28.866, 1e-3);
  EXPECT_NEAR(acc.p50(), 51.0, 1.0);
  EXPECT_NEAR(acc.p99(), 100.0, 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100.0), 100.0);
}

TEST(StatAccumulator, ReservoirStaysBoundedAndDeterministic) {
  StatAccumulator a;
  StatAccumulator b;
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.NextDouble());
  }
  for (double s : samples) {
    a.Add(s);
  }
  for (double s : samples) {
    b.Add(s);
  }
  EXPECT_EQ(a.count(), 20000u);
  // Same inputs, same seed: identical percentile estimates.
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
  // Uniform(0,1): the estimates should land near the true quantiles.
  EXPECT_NEAR(a.p50(), 0.5, 0.05);
  EXPECT_NEAR(a.p99(), 0.99, 0.02);
}

}  // namespace
}  // namespace publishing
