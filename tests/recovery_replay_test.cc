// Tests for the DESIGN.md §11 recovery fast path: windowed pipelined replay
// bursts (loss, reordering, go-back-N), recursive crashes landing inside an
// open replay window, the concurrent recovery scheduler's admission cap and
// byte budget, zero-copy replay delivery, and the replay-cursor/replay-list
// equivalence over stable storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/publishing_system.h"
#include "src/core/stable_storage.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

PublishingSystemConfig BaseConfig(size_t nodes = 2) {
  PublishingSystemConfig config;
  config.cluster.node_count = nodes;
  config.cluster.start_system_processes = false;
  config.cluster.seed = 91;
  return config;
}

void RegisterPrograms(PublishingSystem& system, uint64_t ping_target) {
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register(
      "pinger", [ping_target] { return std::make_unique<PingerProgram>(ping_target); });
}

const PingerProgram* PingerAt(PublishingSystem& system, NodeId node, const ProcessId& pid) {
  return dynamic_cast<const PingerProgram*>(system.cluster().kernel(node)->ProgramFor(pid));
}

// Full observability stack around a PublishingSystem so the invariant oracle
// watches every lifecycle transition during a faulty pipelined recovery.
struct ObsSystem {
  MetricsRegistry registry;
  InvariantOracle oracle;
  FlightRecorder flight;
  PublishingSystem system;
  Tracer tracer;
  LifecycleTracker lifecycle;

  explicit ObsSystem(const PublishingSystemConfig& config)
      : oracle(OracleOptions{.policy = OraclePolicy::kCount}),
        system(config),
        tracer(&system.sim()),
        lifecycle(&system.sim()) {
    lifecycle.AttachTracer(&tracer);
    lifecycle.AttachMetrics(&registry);
    lifecycle.AttachOracle(&oracle);
    lifecycle.AttachFlightRecorder(&flight);
    oracle.AttachFlightRecorder(&flight);
    oracle.AttachMetrics(&registry);

    Observability obs;
    obs.metrics = &registry;
    obs.tracer = &tracer;
    obs.lifecycle = &lifecycle;
    system.EnableObservability(obs);
  }
};

// A lossy wire drops and effectively reorders burst frames mid-recovery
// (later bursts land while earlier ones are being retransmitted); the
// go-back-N window plus the kernel's strict-order reorder buffer must still
// deliver the exact replay, and the oracle must stay clean.
TEST(RecoveryReplay, PipelinedRecoverySurvivesLossyWire) {
  PublishingSystemConfig config = BaseConfig();
  config.cluster.faults.receiver_error_rate = 0.15;
  config.cluster.faults.listener_miss_rate = 0.05;
  // Small bursts and a wide window: many frames in flight at once, so drops
  // hit the middle of the stream and the reorder buffer actually fills.
  config.recovery.replay_burst_max_messages = 2;
  config.recovery.replay_window = 6;
  ObsSystem obs(config);
  PublishingSystem& system = obs.system;
  RegisterPrograms(system, 40);
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto pinger = system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});

  system.RunFor(Millis(400));
  ASSERT_TRUE(system.CrashProcess(*echo).ok());
  ASSERT_TRUE(system.RunUntilRecovered(*echo, Seconds(600)));
  system.RunFor(Seconds(600));

  EXPECT_EQ(PingerAt(system, NodeId{1}, *pinger)->received(), 40u);
  const auto& stats = system.recovery().stats();
  EXPECT_GE(stats.replay_bursts_sent, 2u);
  EXPECT_GE(stats.replay_burst_retransmits, 1u)
      << "a 15% receiver error rate must cost at least one go-back-N resend";
  EXPECT_GT(system.cluster().kernel(NodeId{2})->stats().replay_bursts_accepted, 0u);

  obs.oracle.CheckQuiescent();
  EXPECT_EQ(obs.oracle.total_violations(), 0u);
}

// §3.5 recursive crash arriving while the replay window is open: the round
// must abort (timer cancelled, in-flight bytes returned to the budget) and
// the next round must still deliver the exact outcome.
TEST(RecoveryReplay, RecursiveCrashInsideReplayWindowAbortsRound) {
  PublishingSystemConfig config = BaseConfig();
  // One logged message per burst and a window of one stretches the replay
  // across many burst round-trips, guaranteeing the second crash lands while
  // the window is open.
  config.recovery.replay_burst_max_messages = 1;
  config.recovery.replay_window = 1;
  PublishingSystem system(config);
  RegisterPrograms(system, 60);
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto pinger = system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});

  system.RunFor(Millis(150));
  ASSERT_TRUE(system.CrashProcess(*echo).ok());
  system.RunFor(Millis(30));
  ASSERT_TRUE(system.recovery().IsRecovering(*echo));
  ASSERT_TRUE(system.CrashProcess(*echo).ok());

  ASSERT_TRUE(system.RunUntilRecovered(*echo, Seconds(300)));
  system.RunFor(Seconds(300));
  EXPECT_EQ(PingerAt(system, NodeId{1}, *pinger)->received(), 60u);
  EXPECT_GE(system.recovery().stats().recursive_recoveries, 1u);
  EXPECT_EQ(system.recovery().outstanding_replay_bytes(), 0u)
      << "the aborted round must return its in-flight bytes to the budget";
}

// Mass crash under a tight admission cap: at most max_concurrent_recoveries
// run at any instant, the overflow is queued (and counted), and every queued
// recovery is eventually admitted and completes.
TEST(RecoveryReplay, SchedulerCapsConcurrentRecoveriesAndDrainsQueue) {
  constexpr size_t kProcesses = 8;
  constexpr uint64_t kMessagesEach = 10;
  PublishingSystemConfig config = BaseConfig();
  config.recovery.watchdog_period = Millis(50);
  config.recovery.watchdog_timeout = Millis(200);
  config.recovery.max_concurrent_recoveries = 2;
  PublishingSystem system(config);
  RegisterPrograms(system, kMessagesEach + 100);

  std::vector<ProcessId> echoes;
  for (size_t i = 0; i < kProcesses; ++i) {
    auto echo = system.cluster().Spawn(NodeId{2}, "echo");
    ASSERT_TRUE(echo.ok());
    ASSERT_TRUE(system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}}).ok());
    echoes.push_back(*echo);
  }

  NodeKernel* kernel = system.cluster().kernel(NodeId{2});
  for (int slice = 0; slice < 1000; ++slice) {
    bool all_done = true;
    for (const ProcessId& echo : echoes) {
      auto reads = kernel->ReadsDone(echo);
      if (!reads.ok() || *reads < kMessagesEach) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      break;
    }
    system.RunFor(Millis(100));
  }

  std::set<ProcessId> outstanding(echoes.begin(), echoes.end());
  system.recovery().set_recovery_done_callback(
      [&outstanding](const ProcessId& pid) { outstanding.erase(pid); });

  system.CrashNode(NodeId{2});
  size_t max_active = 0;
  for (int slice = 0; slice < 5000 && !outstanding.empty(); ++slice) {
    system.RunFor(Millis(10));
    max_active = std::max(max_active, system.recovery().active_recoveries());
  }

  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " processes never recovered";
  EXPECT_LE(max_active, 2u);
  EXPECT_GE(max_active, 1u);
  EXPECT_GE(system.recovery().stats().recoveries_deferred, kProcesses - 2);
  EXPECT_EQ(system.recovery().pending_recoveries(), 0u);
  EXPECT_EQ(system.recovery().outstanding_replay_bytes(), 0u);
}

// The replay path must move logged payloads from stable storage to kernel
// delivery without one physical byte copy: cursor entries, burst segments,
// and frame payloads are all refcounted views of the recorded wire bytes.
TEST(RecoveryReplay, PipelinedReplayCopiesNoPayloadBytes) {
  constexpr uint64_t kMessages = 30;
  PublishingSystem system(BaseConfig());
  RegisterPrograms(system, kMessages + 100);
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto pinger = system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  (void)pinger;

  NodeKernel* kernel = system.cluster().kernel(NodeId{2});
  for (int slice = 0; slice < 1000; ++slice) {
    auto reads = kernel->ReadsDone(*echo);
    if (reads.ok() && *reads >= kMessages) {
      break;
    }
    system.RunFor(Millis(100));
  }

  ResetBufferStats();
  ASSERT_TRUE(system.CrashProcess(*echo).ok());
  ASSERT_TRUE(system.RunUntilRecovered(*echo, Seconds(600)));

  EXPECT_EQ(GetBufferStats().bytes_copied, 0u)
      << "replay must share the recorded wire bytes, never duplicate them";
  EXPECT_GT(system.recorder().stats().replay_bursts_seen, 0u);
  EXPECT_GE(system.recorder().stats().replay_segments_seen, kMessages);
}

// --- Replay cursor over stable storage ------------------------------------

ProcessId Pid(uint32_t node, uint32_t local) { return ProcessId{NodeId{node}, local}; }
MessageId Mid(const ProcessId& sender, uint64_t seq) { return MessageId{sender, seq}; }

// Replay() must follow read order, then arrival order — including after
// read-order overrides and checkpoint compaction — and assembling the cursor
// must not copy any payload bytes.
TEST(ReplayCursor, MatchesReplayListAfterReadsAndCheckpoint) {
  StableStorage storage;
  ProcessId pid = Pid(1, 2);
  ProcessId sender = Pid(1, 3);
  storage.RecordCreation(pid, "prog", {}, NodeId{1});
  for (uint64_t i = 1; i <= 6; ++i) {
    storage.AppendMessage(pid, Mid(sender, i), Bytes(16, static_cast<uint8_t>(i)));
  }
  // Read 2 then 1: read order overrides arrival order for those two.
  storage.RecordRead(pid, Mid(sender, 2));
  storage.RecordRead(pid, Mid(sender, 1));
  // Checkpoint past the first read: message 2 is subsumed and drops out.
  storage.StoreCheckpoint(pid, Bytes(32, 0xCC), /*reads_done=*/1);

  ResetBufferStats();
  ReplayCursor cursor = storage.Replay(pid);
  EXPECT_EQ(GetBufferStats().bytes_copied, 0u);

  // Read order (1) first, then unread arrivals (3..6); 2 was checkpointed.
  const std::vector<uint64_t> expected_ids = {1, 3, 4, 5, 6};
  ASSERT_EQ(cursor.size(), expected_ids.size());
  for (size_t i = 0; i < expected_ids.size(); ++i) {
    EXPECT_EQ(cursor[i].id, Mid(sender, expected_ids[i])) << "entry " << i;
  }
  EXPECT_EQ(cursor.payload_bytes(), 5 * 16u);
}

}  // namespace
}  // namespace publishing
