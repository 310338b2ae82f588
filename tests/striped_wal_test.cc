// Striped-WAL recovery matrix: per-stripe torn tails, rebuild-from-disk with
// the merged (LSN) read order, crash mid-concurrent-compaction, reopening
// with more or fewer stripes, and adaptive group-commit bounds.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/storage_journal.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"

namespace publishing {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("pub_striped_" + name);
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

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

// Which stripe (of `stripes`) a process's records land on.
size_t StripeOf(const ProcessId& pid, size_t stripes) {
  const Bytes record = StorageJournal::EncodeSetHome(pid, NodeId{1});
  return static_cast<size_t>(StorageJournal::RouteKey(record) % stripes);
}

// The equivalence that matters for the ISSUE's gate: the merged replay order
// (arrival indices, read sequence numbers, packets) and the global counters
// must match a database that never went through striping.
void ExpectEquivalent(const StableStorage& got, const StableStorage& want) {
  EXPECT_EQ(got.restart_number(), want.restart_number());
  EXPECT_EQ(got.messages_stored(), want.messages_stored());
  EXPECT_EQ(got.TotalBytes(), want.TotalBytes());
  ASSERT_EQ(got.AllProcesses(), want.AllProcesses());
  for (const ProcessId& pid : want.AllProcesses()) {
    SCOPED_TRACE(ToString(pid));
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
    EXPECT_EQ(got.LastSent(pid), want.LastSent(pid));
  }
}

// History touching several processes so records spread across stripes.
void ApplyHistory(StableStorage& db) {
  const ProcessId sender = Pid(9, 900);
  db.RecordCreation(sender, "pinger", {}, NodeId{9});
  for (uint32_t p = 0; p < 6; ++p) {
    const ProcessId pid = Pid(1 + p % 3, 100 + p);
    db.RecordCreation(pid, "echo", {}, NodeId{1 + p % 3});
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      db.AppendMessage(pid, Mid(sender, p * 100 + seq),
                       MakePayload(48, static_cast<uint8_t>(p * 16 + seq)));
      db.RecordSent(sender, p * 100 + seq);
    }
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      db.RecordRead(pid, Mid(sender, p * 100 + seq));
    }
    db.StoreCheckpoint(pid, MakePayload(96, static_cast<uint8_t>(p)), /*reads_done=*/2);
  }
  db.IncrementRestartNumber();
}

TEST(StripedWal, RebuildFromStripesMatchesSingleChain) {
  WalOptions options;
  options.dir = TestDir("rebuild");
  options.stripes = 4;
  options.group_commit_records = 4;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->get()->stripes(), 4u);

  StableStorage reference;
  ApplyHistory(reference);
  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(durable);
  ASSERT_TRUE(durable.Flush().ok());

  // The history must actually have spread over several stripes, or the test
  // proves nothing about merging.
  size_t populated = 0;
  for (size_t i = 0; i < 4; ++i) {
    populated += wal->get()->stripe_stats(i).records_appended > 0 ? 1 : 0;
  }
  ASSERT_GE(populated, 2u);
  wal->reset();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.stripes_scanned, 4u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.torn_segments, 0u);
  ExpectEquivalent(*recovered, reference);
}

TEST(StripedWal, TornTailIsConfinedToOneStripe) {
  const size_t kStripes = 4;
  // Two processes on different stripes: tearing one stripe's tail must not
  // touch the other's log.
  const ProcessId sender = Pid(9, 900);
  const ProcessId victim = Pid(1, 100);
  ProcessId witness = Pid(2, 200);
  for (uint32_t local = 200; StripeOf(witness, kStripes) == StripeOf(victim, kStripes);
       ++local) {
    witness = Pid(2, local);
  }

  WalOptions options;
  options.dir = TestDir("torn");
  options.stripes = kStripes;
  options.group_commit_records = 1;  // Every append durable on its own.
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage durable;
  durable.AttachBackend(wal->get());
  durable.RecordCreation(victim, "echo", {}, NodeId{1});
  durable.RecordCreation(witness, "echo", {}, NodeId{2});
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    durable.AppendMessage(victim, Mid(sender, seq), MakePayload(20, 0x10));
  }
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    durable.AppendMessage(witness, Mid(sender, seq), MakePayload(20, 0x20));
  }
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();

  // Tear the victim stripe's last record mid-frame.
  auto paths = ListSegmentPaths(StripePath(options.dir, StripeOf(victim, kStripes)));
  ASSERT_TRUE(paths.ok());
  ASSERT_FALSE(paths->empty());
  fs::resize_file(paths->back(), fs::file_size(paths->back()) - 10);

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.torn_segments, 1u);
  EXPECT_GT(report.dropped_tail_bytes, 0u);
  // The victim lost exactly its unacked tail append; the witness lost
  // nothing — the loss is a per-process suffix, not a mid-stream hole.
  EXPECT_EQ(recovered->Replay(victim).size(), 2u);
  EXPECT_EQ(recovered->Replay(witness).size(), 3u);
}

TEST(StripedWal, ConcurrentCompactionPreservesMergedReplay) {
  WalOptions options;
  options.dir = TestDir("concurrent_compact");
  options.stripes = 2;
  options.concurrent_compaction = true;
  options.group_commit_records = 2;
  options.compactor.slice_records = 4;  // Many pumps per rewrite.
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(reference);
  ApplyHistory(durable);

  ASSERT_TRUE(wal->get()->StartCompaction());
  EXPECT_TRUE(wal->get()->CompactionInProgress());
  // Publishes keep landing while the rewrite is in flight.
  const ProcessId pid = Pid(1, 100);
  const ProcessId sender = Pid(9, 900);
  uint64_t now = 1000;
  for (uint64_t seq = 90; seq <= 99; ++seq) {
    reference.AppendMessage(pid, Mid(sender, seq), MakePayload(32, 0x30));
    durable.AppendMessage(pid, Mid(sender, seq), MakePayload(32, 0x30));
    wal->get()->Tick(now += 1000);
  }
  while (wal->get()->CompactionInProgress()) {
    wal->get()->Tick(now += 1000);
  }
  EXPECT_EQ(wal->get()->stats().compactions, 1u);
  EXPECT_GT(wal->get()->stats().compaction_segments_deleted, 0u);
  ASSERT_TRUE(durable.Flush().ok());
  wal->reset();

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.snapshots_applied, 1u);
  EXPECT_EQ(report.dangling_snapshots, 0u);
  ExpectEquivalent(*recovered, reference);
}

TEST(StripedWal, CrashMidConcurrentCompactionRecoversFromOldSegments) {
  WalOptions options;
  options.dir = TestDir("crash_compact");
  options.stripes = 2;
  options.concurrent_compaction = true;
  options.group_commit_records = 2;
  options.compactor.slice_records = 4;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  StableStorage reference;
  StableStorage durable;
  durable.AttachBackend(wal->get());
  ApplyHistory(reference);
  ApplyHistory(durable);
  ASSERT_TRUE(durable.Flush().ok());

  ASSERT_TRUE(wal->get()->StartCompaction());
  wal->get()->Tick(1000);  // One slice only: the rewrite is incomplete.
  ASSERT_TRUE(wal->get()->CompactionInProgress());
  wal->reset();  // "Crash": the in-flight block is abandoned mid-rewrite.

  RecoveryReport report;
  auto recovered = RecoverStableStorage(options.dir, &report);
  ASSERT_TRUE(recovered.ok());
  // The incomplete block is a dangling snapshot; the pre-capture segments
  // are still on disk and carry the authoritative image.
  EXPECT_EQ(report.dangling_snapshots, 1u);
  EXPECT_EQ(report.snapshots_applied, 0u);
  EXPECT_GT(report.records_skipped, 0u);
  ExpectEquivalent(*recovered, reference);
}

TEST(StripedWal, ReopenWithMoreStripesContinuesTheLsnOrder) {
  const std::string dir = TestDir("more_stripes");
  StableStorage reference;
  const ProcessId pid = Pid(1, 100);
  const ProcessId sender = Pid(9, 900);
  {
    WalOptions options;
    options.dir = dir;  // A default log: one stripe.
    options.group_commit_records = 1;
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    StableStorage durable;
    durable.AttachBackend(wal->get());
    durable.RecordCreation(pid, "echo", {}, NodeId{1});
    durable.AppendMessage(pid, Mid(sender, 1), MakePayload(24, 0x01));
    reference.RecordCreation(pid, "echo", {}, NodeId{1});
    reference.AppendMessage(pid, Mid(sender, 1), MakePayload(24, 0x01));
    ASSERT_TRUE(durable.Flush().ok());
  }
  {
    // Same directory reopened with four stripes: new records take LSNs past
    // the one-stripe history, so recovery merges it first, then the
    // continuation.
    auto pre = RecoverStableStorage(dir);
    ASSERT_TRUE(pre.ok());
    WalOptions options;
    options.dir = dir;
    options.stripes = 4;
    options.group_commit_records = 1;
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    StableStorage durable = std::move(*pre);
    durable.AttachBackend(wal->get());
    durable.AppendMessage(pid, Mid(sender, 2), MakePayload(24, 0x02));
    reference.AppendMessage(pid, Mid(sender, 2), MakePayload(24, 0x02));
    ASSERT_TRUE(durable.Flush().ok());
  }
  RecoveryReport report;
  auto recovered = RecoverStableStorage(dir, &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(report.stripes_scanned, 4u);
  auto replay = recovered->Replay(pid);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].id, Mid(sender, 1));
  EXPECT_EQ(replay[1].id, Mid(sender, 2));
  ExpectEquivalent(*recovered, reference);
}

// A log reopened with fewer stripes keeps the extra stripes' history: their
// LSNs stay behind every new record, so a checkpoint written after the
// reopen discards the messages it subsumes, and the next compaction retires
// the extra stripes' segments.
TEST(StripedWal, ReopenWithFewerStripesKeepsCheckpointedMessagesDiscarded) {
  const std::string dir = TestDir("fewer_stripes");
  const ProcessId sender = Pid(9, 900);
  ProcessId pid = Pid(1, 100);
  for (uint32_t local = 100; StripeOf(pid, 4) != 3; ++local) {
    pid = Pid(1, local);
  }
  StableStorage reference;
  reference.RecordCreation(pid, "echo", {}, NodeId{1});
  {
    WalOptions options;
    options.dir = dir;
    options.stripes = 4;
    options.group_commit_records = 1;
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    StableStorage durable;
    durable.AttachBackend(wal->get());
    durable.RecordCreation(pid, "echo", {}, NodeId{1});
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      durable.AppendMessage(pid, Mid(sender, seq), MakePayload(24, 0x01));
      reference.AppendMessage(pid, Mid(sender, seq), MakePayload(24, 0x01));
    }
    ASSERT_TRUE(durable.Flush().ok());
    ASSERT_EQ(wal->get()->stripe_stats(3).records_appended, 21u);
  }

  auto pre = RecoverStableStorage(dir);
  ASSERT_TRUE(pre.ok());
  WalOptions options;
  options.dir = dir;
  options.stripes = 2;
  options.group_commit_records = 1;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  StableStorage durable = std::move(*pre);
  durable.AttachBackend(wal->get());
  for (StableStorage* db : {&durable, &reference}) {
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      db->RecordRead(pid, Mid(sender, seq));
    }
    db->StoreCheckpoint(pid, MakePayload(32, 0x22), /*reads_done=*/20);
    db->AppendMessage(pid, Mid(sender, 21), MakePayload(24, 0x02));
  }
  ASSERT_TRUE(durable.Flush().ok());
  ASSERT_EQ(reference.Replay(pid).size(), 1u);

  auto rebuilt = RecoverStableStorage(dir);
  ASSERT_TRUE(rebuilt.ok());
  ExpectEquivalent(*rebuilt, reference);

  // Compaction supersedes every adopted segment of the extra stripes.
  ASSERT_TRUE(wal->get()->CompactNow());
  auto leftover = ListSegmentPaths(StripePath(dir, 3));
  ASSERT_TRUE(leftover.ok());
  EXPECT_TRUE(leftover->empty());
  wal->reset();
  auto compacted = RecoverStableStorage(dir);
  ASSERT_TRUE(compacted.ok());
  ExpectEquivalent(*compacted, reference);
}

TEST(AdaptiveCommit, BatchLimitTracksArrivalRateWithinBounds) {
  WalOptions options;
  options.dir = TestDir("adaptive");
  options.group_commit_records = 8;  // Initial limit.
  options.adaptive.enabled = true;
  options.adaptive.min_records = 4;
  options.adaptive.max_records = 16;
  options.adaptive.ack_latency_target = 1000;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  const Bytes record = StorageJournal::EncodeRestartNumber(1);
  // A burst that fills windows: the limit doubles to the cap and no further.
  uint64_t now = 100;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 16u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 16u) << "clamped at max_records";
  EXPECT_EQ(wal->get()->stats().syncs, 2u);

  // Sparse arrivals: windows close on the ack-latency target and the limit
  // walks back down, clamped at min_records.
  for (int i = 0; i < 4; ++i) {
    now += 10'000;
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
    wal->get()->Tick(now + 2'000);  // Past the 1 us target: forced sync.
    EXPECT_EQ(wal->get()->PendingRecords(), 0u);
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 4u) << "clamped at min_records";

  // An idle stretch with nothing staged also decays a deepened limit.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->get()->Append(record, now).ok());
  }
  EXPECT_GT(wal->get()->stripe_batch_limit(0), 4u);
  for (int i = 0; i < 4; ++i) {
    now += 10'000;
    wal->get()->Tick(now);
  }
  EXPECT_EQ(wal->get()->stripe_batch_limit(0), 4u);
}

TEST(AdaptiveCommit, AckLatencyTargetBoundsStagingDelayOnAppend) {
  WalOptions options;
  options.dir = TestDir("adaptive_ack");
  options.group_commit_records = 64;  // Count trigger far away.
  options.adaptive.enabled = true;
  options.adaptive.min_records = 4;
  options.adaptive.max_records = 64;
  options.adaptive.ack_latency_target = 5'000;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());

  const Bytes record = StorageJournal::EncodeRestartNumber(1);
  ASSERT_TRUE(wal->get()->Append(record, 1'000).ok());
  ASSERT_TRUE(wal->get()->Append(record, 2'000).ok());
  EXPECT_EQ(wal->get()->stats().syncs, 0u) << "window still inside the target";
  // This arrival finds the window 5 us old: it must close it rather than
  // stage a third record behind an over-age batch.
  ASSERT_TRUE(wal->get()->Append(record, 6'000).ok());
  EXPECT_EQ(wal->get()->stats().syncs, 1u);
  EXPECT_EQ(wal->get()->PendingRecords(), 0u);
}

}  // namespace
}  // namespace publishing
