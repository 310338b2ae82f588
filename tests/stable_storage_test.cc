// Unit tests for the recorder's stable storage (§3.3.1, §4.5).

#include <gtest/gtest.h>

#include "src/core/stable_storage.h"

namespace publishing {
namespace {

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

TEST(StableStorage, CreationAndDestructionLifecycle) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  EXPECT_FALSE(storage.Knows(pid));
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  ASSERT_TRUE(storage.Knows(pid));
  auto info = storage.Info(pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->program, "prog");
  EXPECT_EQ(info->home_node, NodeId{1});
  EXPECT_FALSE(info->destroyed);

  storage.RecordDestruction(pid);
  info = storage.Info(pid);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->destroyed);
  EXPECT_TRUE(storage.AllProcesses().empty());
}

TEST(StableStorage, MessagesAppendAndReplayInArrivalOrder) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 5; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  auto replay = storage.Replay(pid);
  ASSERT_EQ(replay.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replay[i].id.sequence, i + 1);
  }
}

TEST(StableStorage, ReadOrderOverridesArrivalOrderInReplay) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 4; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  // The process read 3 and 4 (channel selection) but never 1 and 2.
  storage.RecordRead(pid, Mid(sender, 3));
  storage.RecordRead(pid, Mid(sender, 4));

  auto replay = storage.Replay(pid);
  ASSERT_EQ(replay.size(), 4u);
  EXPECT_EQ(replay[0].id.sequence, 3u);  // Read entries first, in read order.
  EXPECT_EQ(replay[1].id.sequence, 4u);
  EXPECT_EQ(replay[2].id.sequence, 1u);  // Then unread, in arrival order.
  EXPECT_EQ(replay[3].id.sequence, 2u);
}

TEST(StableStorage, DuplicateAppendsAreIgnored) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});  // Retransmission.
  EXPECT_EQ(storage.Replay(pid).size(), 1u);
}

TEST(StableStorage, ReplayedReReadsDoNotCorruptReadOrder) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 1), Bytes{1});
  storage.AppendMessage(pid, Mid(Pid(1, 3), 2), Bytes{2});
  storage.RecordRead(pid, Mid(Pid(1, 3), 1));
  storage.RecordRead(pid, Mid(Pid(1, 3), 2));
  // During recovery the process re-reads both; order must not change.
  storage.RecordRead(pid, Mid(Pid(1, 3), 2));
  storage.RecordRead(pid, Mid(Pid(1, 3), 1));
  auto replay = storage.Replay(pid);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].id.sequence, 1u);
  EXPECT_EQ(replay[1].id.sequence, 2u);
}

TEST(StableStorage, CheckpointDiscardsSubsumedMessagesOnly) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 6; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes{static_cast<uint8_t>(i)});
  }
  // Process has read 1..4; checkpoint captured after 3 reads (the 4th read's
  // notice raced ahead of the checkpoint message).
  for (uint64_t i = 1; i <= 4; ++i) {
    storage.RecordRead(pid, Mid(sender, i));
  }
  storage.StoreCheckpoint(pid, Bytes(100, 0xCC), /*reads_done=*/3);

  auto replay = storage.Replay(pid);
  ASSERT_EQ(replay.size(), 3u) << "messages 1..3 subsumed; 4 (read), 5, 6 retained";
  EXPECT_EQ(replay[0].id.sequence, 4u);
  EXPECT_EQ(replay[1].id.sequence, 5u);
  EXPECT_EQ(replay[2].id.sequence, 6u);

  auto checkpoint = storage.LoadCheckpoint(pid);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->size(), 100u);
}

TEST(StableStorage, LastSentWatermarkIsMonotonic) {
  StableStorage storage;
  ProcessId sender = Pid(2, 9);
  storage.RecordSent(sender, 5);
  storage.RecordSent(sender, 3);  // Out-of-order observation (retransmit).
  storage.RecordSent(sender, 8);
  EXPECT_EQ(storage.LastSent(sender), 8u);
  EXPECT_EQ(storage.LastSent(Pid(9, 9)), 0u);
}

TEST(StableStorage, ProcessesOnNodeFiltersCorrectly) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordCreation(Pid(1, 3), "b", {}, NodeId{2});  // Created on 1, lives on 2.
  storage.RecordCreation(Pid(2, 2), "c", {}, NodeId{2});
  storage.RecordDestruction(Pid(2, 2));
  auto on_node2 = storage.ProcessesOnNode(NodeId{2});
  ASSERT_EQ(on_node2.size(), 1u);
  EXPECT_EQ(on_node2[0], Pid(1, 3));
}

TEST(StableStorage, SetHomeNodeMovesProcess) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.SetHomeNode(Pid(1, 2), NodeId{3});
  EXPECT_TRUE(storage.ProcessesOnNode(NodeId{1}).empty());
  EXPECT_EQ(storage.ProcessesOnNode(NodeId{3}).size(), 1u);
}

TEST(StableStorage, LocalIdHighWaterTracksCreationOrigin) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordCreation(Pid(1, 7), "b", {}, NodeId{1});
  storage.RecordCreation(Pid(2, 9), "c", {}, NodeId{2});
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{1}), 7u);
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{2}), 9u);
  EXPECT_EQ(storage.LocalIdHighWater(NodeId{3}), 0u);
}

TEST(StableStorage, PageAccountingRoundsPerProcess) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 1), Bytes(100, 1));
  EXPECT_EQ(storage.TotalPages(), 1u) << "100 bytes still occupy one 4 KB page";
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 2), Bytes(5000, 1));
  EXPECT_EQ(storage.TotalPages(), 2u);
  EXPECT_EQ(storage.TotalBytes(), 5100u);
  EXPECT_GE(storage.PeakBytes(), 5100u);
}

TEST(StableStorage, RestartNumberMonotonic) {
  StableStorage storage;
  EXPECT_EQ(storage.restart_number(), 0u);
  EXPECT_EQ(storage.IncrementRestartNumber(), 1u);
  EXPECT_EQ(storage.IncrementRestartNumber(), 2u);
}

TEST(StableStorage, DestroyedProcessAcceptsNoMoreMessages) {
  StableStorage storage;
  storage.RecordCreation(Pid(1, 2), "a", {}, NodeId{1});
  storage.RecordDestruction(Pid(1, 2));
  storage.AppendMessage(Pid(1, 2), Mid(Pid(1, 3), 1), Bytes{1});
  EXPECT_TRUE(storage.Replay(Pid(1, 2)).empty());
}

}  // namespace
}  // namespace publishing
