// Live migration + elastic balancing tests (DESIGN.md §14): the SegmentMap
// process-home overlay and its partition-consistency property, same-segment
// and cross-segment live moves with exactly-once delivery evidence, the
// database-entry hand-off between recorders (tombstones, migrate-back),
// freeze nacks, crash recovery from the new home after a move, and the
// ElasticBalancer's hysteresis / move-budget brakes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/internet/internet.h"
#include "src/migrate/elastic_balancer.h"
#include "src/migrate/migration_manager.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

// ---------------------------------------------------------------------------
// SegmentMap process-home overlay (unit + property)
// ---------------------------------------------------------------------------

SegmentMap RingMap(size_t segments) {
  SegmentMap map;
  for (size_t k = 0; k < segments; ++k) {
    map.AddSegment(NodeId{static_cast<uint32_t>(k) * 1000});
    map.AssignNode(NodeId{static_cast<uint32_t>(k) * 1000 + 1},
                   k);  // One processing node per segment.
  }
  for (size_t k = 0; k + 1 < segments; ++k) {
    map.AddGateway(NodeId{900000u + static_cast<uint32_t>(k)}, {k, k + 1});
  }
  map.AddGateway(NodeId{900000u + static_cast<uint32_t>(segments) - 1},
                 {segments - 1, 0});
  return map;
}

TEST(SegmentMapMigration, ProcessHomeOverlay) {
  SegmentMap map = RingMap(3);
  ProcessId pid{NodeId{1}, 5};
  // Never-migrated processes have no overlay entry.
  EXPECT_EQ(map.ProcessHome(pid), -1);
  map.SetProcessHome(pid, 2);
  EXPECT_EQ(map.ProcessHome(pid), 2);
  // The node partition is untouched — the overlay rides on top of it.
  EXPECT_EQ(map.SegmentOf(NodeId{1}), 0);
  // A process may migrate back; the overlay just follows.
  map.SetProcessHome(pid, 0);
  EXPECT_EQ(map.ProcessHome(pid), 0);
}

// Property: across any sequence of migrations, every process resolves to
// exactly one home segment (the overlay when set, its node's segment
// otherwise), that segment's recorder is homed on the segment it is
// responsible for, and every other segment can route to the process's home —
// i.e. migration never breaks the publish-responsibility partition.
TEST(SegmentMapMigration, PartitionStaysConsistentUnderRandomMoves) {
  constexpr size_t kSegments = 4;
  SegmentMap map = RingMap(kSegments);
  std::vector<ProcessId> pids;
  for (uint32_t k = 0; k < kSegments; ++k) {
    for (uint32_t i = 0; i < 3; ++i) {
      pids.push_back(ProcessId{NodeId{k * 1000 + 1}, 10 + i});
    }
  }
  uint64_t rng = 0x9e3779b97f4a7c15ull;  // Deterministic LCG.
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int step = 0; step < 200; ++step) {
    const ProcessId& pid = pids[next() % pids.size()];
    map.SetProcessHome(pid, next() % kSegments);

    for (const ProcessId& p : pids) {
      int32_t overlay = map.ProcessHome(p);
      int32_t node_home = map.SegmentOf(p.origin);
      ASSERT_GE(node_home, 0);
      int32_t home = overlay >= 0 ? overlay : node_home;
      // Exactly one home, inside the segment range.
      ASSERT_GE(home, 0);
      ASSERT_LT(home, static_cast<int32_t>(kSegments));
      // The responsible recorder is homed on the segment it owns.
      ASSERT_EQ(map.SegmentOf(map.recorder_node(home)), home);
      // Every other segment routes to the (possibly new) home.
      for (size_t from = 0; from < kSegments; ++from) {
        if (static_cast<int32_t>(from) == home) {
          continue;
        }
        ASSERT_TRUE(map.Route(from, home).has_value())
            << "segment " << from << " cannot reach home " << home;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Naming
// ---------------------------------------------------------------------------

TEST(MigrateNaming, MigratedStageAndAtomicityMonitor) {
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kMigrated), "migrated");
  EXPECT_STREQ(OracleMonitorName(OracleMonitor::kMigrationAtomicity),
               "migration_atomicity");
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

InternetConfig BaseConfig(size_t segments, size_t nodes_per_segment = 2) {
  InternetConfig config;
  config.segments = segments;
  config.nodes_per_segment = nodes_per_segment;
  config.seed = 17;
  return config;
}

// Echo that burns virtual CPU per message — a service a single node cannot
// keep up with, used to saturate one node for the balancer tests.
class SlowEchoProgram : public EchoProgram {
 public:
  explicit SlowEchoProgram(SimDuration cost) : cost_(cost) {}
  void OnMessage(KernelApi& api, const DeliveredMessage& msg) override {
    api.Charge(cost_);
    EchoProgram::OnMessage(api, msg);
  }

 private:
  SimDuration cost_;
};

void RegisterPrograms(Internet& net, uint64_t ping_target) {
  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("slow-echo", [] {
    return std::make_unique<SlowEchoProgram>(MillisF(4.0));
  });
  net.registry().Register(
      "pinger", [ping_target] { return std::make_unique<PingerProgram>(ping_target); });
}

const PingerProgram* PingerAt(Internet& net, NodeId node, const ProcessId& pid) {
  return dynamic_cast<const PingerProgram*>(net.kernel(node)->ProgramFor(pid));
}

// Every pong arrived exactly once, in order: transcript[i] is the low byte
// of ping i.
void ExpectOrderedTranscript(const PingerProgram& p, uint64_t target) {
  ASSERT_EQ(p.transcript().size(), target);
  for (uint64_t i = 0; i < target; ++i) {
    EXPECT_EQ(p.transcript()[i], static_cast<uint8_t>(i)) << "pong " << i;
  }
}

// Full observability stack around an Internet (mirrors the internet_test
// harness) plus a started MigrationManager.
struct ObsMigrate {
  MetricsRegistry registry;
  InvariantOracle oracle;
  FlightRecorder flight;
  Internet net;
  Tracer tracer;
  LifecycleTracker lifecycle;
  MigrationManager manager;

  explicit ObsMigrate(const InternetConfig& config,
                      MigrationManagerOptions mopts = {})
      : oracle(OracleOptions{.policy = OraclePolicy::kCount}),
        net(config),
        tracer(&net.sim()),
        lifecycle(&net.sim()),
        manager(&net, mopts) {
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
    net.EnableObservability(obs);
    manager.Start();
  }

  // Runs virtual time until the move on `pid` reaches a terminal state.
  bool WaitMoveDone(const ProcessId& pid, SimDuration deadline) {
    const SimTime end = net.sim().Now() + deadline;
    while (manager.IsMigrating(pid) && net.sim().Now() < end) {
      net.RunFor(MillisF(5.0));
    }
    return !manager.IsMigrating(pid);
  }

  // Exactly-once evidence for a pure live move (no crash in the run): the
  // barrier checkpoint subsumes every read, so no message is ever re-read.
  // Runs that also crash re-execute reads since the checkpoint by design;
  // those use ExpectOrderedTranscript + the oracle's per-incarnation
  // duplicate_delivery monitor instead.
  void ExpectExactlyOnceReads() {
    for (const LifecycleRecord& record : lifecycle.SortedRecords()) {
      EXPECT_LE(record.count[static_cast<size_t>(LifecycleStage::kRead)], 1u)
          << "message " << ToString(record.id) << " read more than once";
    }
  }

  void ExpectOracleClean() {
    oracle.CheckQuiescent();
    EXPECT_EQ(oracle.total_violations(), 0u) << oracle.ReportJson();
  }
};

// ---------------------------------------------------------------------------
// Manager guard rails
// ---------------------------------------------------------------------------

TEST(MigrationManager, RejectsBadTargetsAndUnknownProcesses) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 5);
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  ASSERT_TRUE(echo.ok());
  net.RunFor(Millis(50));

  // Unknown process.
  EXPECT_FALSE(obs.manager.Migrate(ProcessId{NodeId{1}, 77}, Internet::ProcessingNode(0, 1)).ok());
  // Already where it is going.
  EXPECT_EQ(obs.manager.Migrate(*echo, Internet::ProcessingNode(0, 0)).code(),
            StatusCode::kInvalidArgument);
  // No kernel at the destination (gateway node).
  EXPECT_EQ(obs.manager.Migrate(*echo, Internet::GatewayNode(0)).code(),
            StatusCode::kNotFound);
  // A second move while one is in flight.
  ASSERT_TRUE(obs.manager.Migrate(*echo, Internet::ProcessingNode(0, 1)).ok());
  EXPECT_EQ(obs.manager.Migrate(*echo, Internet::ProcessingNode(1, 0)).code(),
            StatusCode::kUnavailable);

  EXPECT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  EXPECT_EQ(obs.manager.stats().moves_completed, 1u);
  obs.ExpectOracleClean();
}

// ---------------------------------------------------------------------------
// Live moves
// ---------------------------------------------------------------------------

// Same-segment move mid-conversation: the pinger never notices, every ping
// is answered exactly once, and the database entry stays with the segment's
// recorder (no cross-segment hand-off).
TEST(MigrationManager, SameSegmentLiveMoveIsExactlyOnce) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 30);
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(1, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Millis(100));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(1, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->received(), 0u);
  EXPECT_LT(p->received(), 30u) << "the move must land mid-conversation";

  ASSERT_TRUE(obs.manager.Migrate(*echo, Internet::ProcessingNode(0, 1)).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  EXPECT_EQ(obs.manager.stats().moves_completed, 1u);
  EXPECT_EQ(obs.manager.stats().cross_segment_moves, 0u);

  // The process now runs on the destination; the source record is gone.
  EXPECT_NE(net.kernel(Internet::ProcessingNode(0, 1))->ProgramFor(*echo), nullptr);
  EXPECT_EQ(net.kernel(Internet::ProcessingNode(0, 0))->ProgramFor(*echo), nullptr);
  // Same segment: entry never left storage 0, no tombstone anywhere.
  EXPECT_TRUE(net.storage(0).Knows(*echo));
  EXPECT_FALSE(net.storage(0).MovedTo(*echo).ok());

  net.RunFor(Seconds(60));
  EXPECT_EQ(p->received(), 30u);
  obs.ExpectExactlyOnceReads();
  obs.ExpectOracleClean();
}

// Cross-segment move: the database entry is handed between recorders (drop
// tombstone at the old home, import at the new), the SegmentMap overlay
// re-homes the process, and the new home's recorder takes over publishing.
TEST(MigrationManager, CrossSegmentMoveHandsOffDatabaseEntry) {
  ObsMigrate obs(BaseConfig(3));
  Internet& net = obs.net;
  RegisterPrograms(net, 40);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());

  net.RunFor(Millis(150));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->received(), 0u);
  EXPECT_LT(p->received(), 40u);
  const uint64_t published_before = net.recorder(2).stats().messages_published;

  const NodeId dest = Internet::ProcessingNode(2, 0);
  ASSERT_TRUE(obs.manager.Migrate(*echo, dest).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  ASSERT_EQ(obs.manager.stats().moves_completed, 1u);
  EXPECT_EQ(obs.manager.stats().cross_segment_moves, 1u);

  // Hand-off effects: entry at the new home, tombstone at the old.
  EXPECT_TRUE(net.storage(2).Knows(*echo));
  auto moved = net.storage(1).MovedTo(*echo);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, dest);
  EXPECT_EQ(net.map().ProcessHome(*echo), 2);
  EXPECT_NE(net.kernel(dest)->ProgramFor(*echo), nullptr);

  net.RunFor(Seconds(90));
  EXPECT_EQ(p->received(), 40u);
  // The new home recorder now publishes the echo's traffic.
  EXPECT_GT(net.recorder(2).stats().messages_published, published_before);
  obs.ExpectExactlyOnceReads();
  obs.ExpectOracleClean();
}

// Migrate there and back: the return import clears the tombstone at the
// original home and the overlay follows the process home again.
TEST(MigrationManager, MigrateBackClearsTheTombstone) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 30);
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 1), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());
  net.RunFor(Millis(100));

  ASSERT_TRUE(obs.manager.Migrate(*echo, Internet::ProcessingNode(1, 0)).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  ASSERT_TRUE(net.storage(0).MovedTo(*echo).ok());
  net.RunFor(Seconds(2));

  ASSERT_TRUE(obs.manager.Migrate(*echo, Internet::ProcessingNode(0, 0)).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  EXPECT_EQ(obs.manager.stats().moves_completed, 2u);
  EXPECT_EQ(obs.manager.stats().cross_segment_moves, 2u);

  // Back home: the import cleared storage 0's tombstone, storage 1 now holds
  // one, and the overlay points at segment 0 again.
  EXPECT_TRUE(net.storage(0).Knows(*echo));
  EXPECT_FALSE(net.storage(0).MovedTo(*echo).ok());
  EXPECT_TRUE(net.storage(1).MovedTo(*echo).ok());
  EXPECT_EQ(net.map().ProcessHome(*echo), 0);

  net.RunFor(Seconds(60));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 1), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 30u);
  ExpectOrderedTranscript(*p, 30);
  obs.ExpectExactlyOnceReads();
  obs.ExpectOracleClean();
}

// ---------------------------------------------------------------------------
// Failure paths
// ---------------------------------------------------------------------------

// The kernel nacks a freeze for a process that is not running (here: crashed
// with recovery managers disabled); the manager aborts without ever opening
// an oracle move window.
TEST(MigrationManager, FreezeNackAbortsTheMove) {
  InternetConfig config = BaseConfig(2);
  config.start_recovery_managers = false;
  Internet net(config);
  RegisterPrograms(net, 5);
  MigrationManager manager(&net);
  manager.Start();

  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  ASSERT_TRUE(echo.ok());
  net.RunFor(Millis(50));
  ASSERT_TRUE(net.CrashProcess(*echo).ok());
  net.RunFor(Millis(50));

  ASSERT_TRUE(manager.Migrate(*echo, Internet::ProcessingNode(0, 1)).ok());
  const SimTime end = net.sim().Now() + Seconds(10);
  while (manager.IsMigrating(*echo) && net.sim().Now() < end) {
    net.RunFor(MillisF(5.0));
  }
  EXPECT_FALSE(manager.IsMigrating(*echo));
  EXPECT_EQ(manager.stats().freeze_nacks, 1u);
  EXPECT_EQ(manager.stats().moves_aborted, 1u);
  EXPECT_EQ(manager.stats().moves_completed, 0u);
}

// A crash after a cross-segment move recovers from the NEW home: the moved
// database entry is the one the destination segment's recovery manager
// replays, and the conversation still completes exactly once.
TEST(MigrationManager, CrashAfterMoveRecoversFromNewHome) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 30);
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 1), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());
  net.RunFor(Millis(100));

  const NodeId dest = Internet::ProcessingNode(1, 0);
  ASSERT_TRUE(obs.manager.Migrate(*echo, dest).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  ASSERT_EQ(obs.manager.stats().moves_completed, 1u);
  net.RunFor(Seconds(1));

  ASSERT_TRUE(net.CrashProcess(*echo).ok());
  ASSERT_TRUE(net.RunUntilRecovered(*echo, Seconds(60)));
  EXPECT_GT(net.recovery(1).stats().process_recoveries_completed, 0u)
      << "the NEW home segment must run the recovery";

  net.RunFor(Seconds(60));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 1), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->received(), 30u);
  // The crash re-executed reads since the last checkpoint (that is what
  // recovery is), so global read counts exceed one; the exactly-once claim
  // the user observes is the transcript — every pong once, in order — plus
  // the oracle's per-incarnation duplicate_delivery monitor.
  ExpectOrderedTranscript(*p, 30);
  obs.ExpectOracleClean();
}

// Chaos: a crash inside the hand-off window must not lose freeze-window
// stragglers.  The evicting kernel re-sends messages that arrived between
// the barrier checkpoint and the evict, but those re-sends are ordinary
// frames — here the gateway to the new home is down (harshly: routes not
// recomputed), so they die in flight.  The transport already acked the
// originals, so the sender never retransmits: the old home recorder's
// straggler annex holds the ONLY copy.  Crashing and restarting that
// recorder must feed the annex into the new home's replay (the migration
// supervisor's restart sweep), the stalled conversation must complete
// exactly once, and the migration_atomicity oracle must stay clean.
TEST(MigrationManager, CrashInHandOffWindowReplaysAnnexedStragglers) {
  ObsMigrate obs(BaseConfig(3));
  Internet& net = obs.net;
  RegisterPrograms(net, 40);
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  ASSERT_TRUE(echo.ok());
  auto pinger =
      net.Spawn(Internet::ProcessingNode(0, 0), "pinger", {Link{*echo, 1, 0, 0}});
  ASSERT_TRUE(pinger.ok());
  net.RunFor(Millis(100));
  const PingerProgram* p = PingerAt(net, Internet::ProcessingNode(0, 0), *pinger);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->received(), 0u);
  EXPECT_LT(p->received(), 40u);

  // Kill the segment 1 -> 2 link without telling the SegmentMap, so the
  // evict re-sends still route into the dead gateway and drop.  The move
  // itself is unaffected: manager traffic rides gw0 (seg 0 <-> 1) and the
  // destination replay is local to segment 2.
  net.gateway(1).SetDown(true);

  ASSERT_TRUE(obs.manager.Migrate(*echo, Internet::ProcessingNode(2, 0)).ok());
  ASSERT_TRUE(obs.WaitMoveDone(*echo, Seconds(10)));
  ASSERT_EQ(obs.manager.stats().moves_completed, 1u);
  net.RunFor(Millis(50));

  // The in-flight ping landed in the freeze window: annexed at the old home,
  // its forwarded copy dropped at the gateway.  The pinger is now stalled —
  // the annex is the only copy of a transport-acked message.
  ASSERT_GT(net.storage(1).straggler_appends(), 0u);
  ASSERT_EQ(net.storage(1).AnnexedProcesses(), std::vector<ProcessId>{*echo});
  const uint64_t stalled_at = p->received();
  ASSERT_LT(stalled_at, 40u);

  // Crash the old home recorder inside the hand-off window and bring it
  // back: the restart sweep must drain the annex into the new home's log
  // and replay it there.
  net.CrashRecorder(1);
  net.RunFor(Millis(50));
  net.RestartRecorder(1);
  EXPECT_TRUE(net.storage(1).AnnexedProcesses().empty());
  EXPECT_GE(obs.manager.stats().annex_reclaims, 1u);

  net.RunFor(Seconds(90));
  EXPECT_EQ(p->received(), 40u) << "stalled at " << stalled_at
                                << " — annexed straggler was never replayed";
  ExpectOrderedTranscript(*p, 40);
  obs.ExpectOracleClean();
}

// ---------------------------------------------------------------------------
// ElasticBalancer
// ---------------------------------------------------------------------------

// Saturate one node with a CPU-heavy echo service under six concurrent
// pingers; the balancer must notice the queue-depth gauge, migrate the hot
// process to an idle node, and the conversations must still complete with a
// clean oracle.
TEST(ElasticBalancer, ShedsLoadOffASaturatedNode) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 15);
  const NodeId hot = Internet::ProcessingNode(0, 0);
  auto echo = net.Spawn(hot, "slow-echo");
  ASSERT_TRUE(echo.ok());
  std::vector<std::pair<NodeId, ProcessId>> pingers;
  for (NodeId node : {Internet::ProcessingNode(0, 1), Internet::ProcessingNode(1, 0),
                      Internet::ProcessingNode(1, 1)}) {
    for (int i = 0; i < 2; ++i) {
      auto pinger = net.Spawn(node, "pinger", {Link{*echo, 1, 0, 0}});
      ASSERT_TRUE(pinger.ok());
      pingers.emplace_back(node, *pinger);
    }
  }

  ElasticBalancerOptions bopts;
  bopts.period = Millis(100);
  bopts.high_watermark = 4.0;
  bopts.low_watermark = 1.0;
  ElasticBalancer balancer(&net, &obs.manager, bopts);
  balancer.Start();

  net.RunFor(Seconds(120));
  balancer.Stop();

  EXPECT_GE(balancer.stats().moves_requested, 1u);
  EXPECT_GE(obs.manager.stats().moves_completed, 1u);
  EXPECT_EQ(net.kernel(hot)->ProgramFor(*echo), nullptr)
      << "the hot process must have been shed off the saturated node";
  for (const auto& [node, pid] : pingers) {
    const PingerProgram* p = PingerAt(net, node, pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->received(), 15u);
  }
  obs.ExpectExactlyOnceReads();
  obs.ExpectOracleClean();
}

// The brakes: watermarks gate moves entirely (hysteresis), and a round never
// exceeds its move budget even with several hot candidates.
TEST(ElasticBalancer, HysteresisAndBudgetBrakeTheBalancer) {
  ObsMigrate obs(BaseConfig(2));
  Internet& net = obs.net;
  RegisterPrograms(net, 50);
  const NodeId hot = Internet::ProcessingNode(0, 0);
  auto echo_a = net.Spawn(hot, "slow-echo");
  auto echo_b = net.Spawn(hot, "slow-echo");
  ASSERT_TRUE(echo_a.ok());
  ASSERT_TRUE(echo_b.ok());
  std::vector<NodeId> sources = {Internet::ProcessingNode(0, 1),
                                 Internet::ProcessingNode(1, 0),
                                 Internet::ProcessingNode(1, 1)};
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(net.Spawn(sources[i], "pinger", {Link{*echo_a, 1, 0, 0}}).ok());
    ASSERT_TRUE(net.Spawn(sources[i], "pinger", {Link{*echo_b, 1, 0, 0}}).ok());
  }
  // Manufacture a deterministic backlog: with both echoes stopped every
  // client's ping is delivered (and transport-acked) but never dispatched,
  // so each echo's queue holds exactly one ping per client when Tick
  // samples the gauge.  Organic queueing is too phase-dependent to assert
  // against at a fixed instant — the end-to-end balancing path is covered
  // by ShedsLoadOffASaturatedNode.
  ASSERT_TRUE(net.kernel(hot)->StopProcess(*echo_a).ok());
  ASSERT_TRUE(net.kernel(hot)->StopProcess(*echo_b).ok());
  net.RunFor(Millis(50));

  // Hysteresis: with an unreachable high watermark nothing is saturated.
  ElasticBalancerOptions calm;
  calm.high_watermark = 1000.0;
  ElasticBalancer never(&net, &obs.manager, calm);
  never.Tick();
  EXPECT_EQ(never.stats().rounds, 1u);
  EXPECT_EQ(never.stats().moves_requested, 0u);

  // Budget: two hot processes on the node, but one move per round.
  ElasticBalancerOptions eager;
  eager.high_watermark = 3.0;
  eager.low_watermark = 1.0;
  eager.max_moves_per_round = 1;
  ElasticBalancer one_per_round(&net, &obs.manager, eager);
  one_per_round.Tick();
  EXPECT_EQ(one_per_round.stats().moves_requested, 1u);
  EXPECT_EQ(obs.manager.active_moves(), 1u);
}

}  // namespace
}  // namespace publishing
