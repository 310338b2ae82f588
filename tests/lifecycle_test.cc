// Tests for the causal lifecycle layer (src/obs/causal.h, lifecycle.h,
// oracle.h, flight_recorder.h): tracker aggregation and eviction, flight
// recorder ring bounds and deterministic dumps, a tripping test for each of
// the four oracle monitors (plus the exemptions that keep legitimate replay
// and control traffic clean), and system-level integration — a clean
// ping-pong run and a crash/recovery run are oracle-clean end to end, while
// a deliberately broken recorder trips recorder-completeness.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/publishing_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/obs/trace.h"
#include "tests/json_checker.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

CausalContext Ctx(uint32_t origin, uint32_t local, uint64_t sequence,
                  uint8_t flags = kCausalGuaranteed) {
  CausalContext ctx;
  ctx.id = MessageId{ProcessId{NodeId{origin}, local}, sequence};
  ctx.origin = NodeId{origin};
  ctx.flags = flags;
  return ctx;
}

LifecycleEvent Event(const CausalContext& ctx, LifecycleStage stage, uint32_t node,
                     uint64_t seq) {
  LifecycleEvent event;
  event.ctx = ctx;
  event.stage = stage;
  event.node = NodeId{node};
  event.seq = seq;
  return event;
}

// ---------------------------------------------------------------------------
// Causal vocabulary
// ---------------------------------------------------------------------------

TEST(CausalContext, FlagHelpersMirrorPacketSemantics) {
  CausalContext ctx;
  EXPECT_FALSE(ctx.valid());
  EXPECT_FALSE(ctx.guaranteed());

  ctx = Ctx(1, 2, 3, kCausalGuaranteed | kCausalReplay);
  EXPECT_TRUE(ctx.valid());
  EXPECT_TRUE(ctx.guaranteed());
  EXPECT_TRUE(ctx.replay());
  EXPECT_FALSE(ctx.control());

  ctx.flags = kCausalControl;
  EXPECT_TRUE(ctx.control());
  EXPECT_FALSE(ctx.guaranteed());
}

TEST(CausalContext, StageNamesAreStable) {
  // The names are schema: they appear in lifecycle JSON/CSV and flight dumps.
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kSent), "sent");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kOnWire), "on_wire");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kOverheard), "overheard");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kPublished), "published");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kDurable), "durable");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kDelivered), "delivered");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kAcked), "acked");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kRead), "read");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kReplayed), "replayed");
  EXPECT_STREQ(LifecycleStageName(LifecycleStage::kForwarded), "forwarded");
}

// ---------------------------------------------------------------------------
// LifecycleTracker
// ---------------------------------------------------------------------------

TEST(LifecycleTracker, AggregatesStagesIntoOneRecord) {
  Simulator sim;
  LifecycleTracker tracker(&sim);

  CausalContext ctx = Ctx(1, 7, 1);
  tracker.Observe(ctx, LifecycleStage::kSent, NodeId{1});
  CausalContext retransmit = ctx;
  retransmit.hop = 1;
  tracker.Observe(retransmit, LifecycleStage::kSent, NodeId{1});
  tracker.Observe(ctx, LifecycleStage::kOnWire, NodeId{1});
  tracker.Observe(ctx, LifecycleStage::kDelivered, NodeId{2});
  tracker.Observe(ctx, LifecycleStage::kRead, NodeId{2}, ProcessId{NodeId{2}, 9});

  EXPECT_EQ(tracker.size(), 1u);
  EXPECT_EQ(tracker.observed(), 5u);
  const LifecycleRecord* rec = tracker.Find(ctx.id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count[static_cast<size_t>(LifecycleStage::kSent)], 2u);
  EXPECT_EQ(rec->max_hop, 1u);
  EXPECT_EQ(rec->origin, NodeId{1});
  EXPECT_EQ(rec->dst_node, NodeId{2});
  EXPECT_EQ(rec->dst_process, (ProcessId{NodeId{2}, 9}));
  EXPECT_TRUE(rec->Saw(LifecycleStage::kOnWire));
  EXPECT_FALSE(rec->Saw(LifecycleStage::kPublished));
  EXPECT_EQ(rec->FirstTime(LifecycleStage::kSent), 0);
  EXPECT_EQ(rec->FirstTime(LifecycleStage::kPublished), -1);
}

TEST(LifecycleTracker, InvalidContextsAreIgnored) {
  Simulator sim;
  LifecycleTracker tracker(&sim);
  tracker.Observe(CausalContext{}, LifecycleStage::kSent, NodeId{1});
  EXPECT_EQ(tracker.size(), 0u);
}

TEST(LifecycleTracker, EvictsOldestRecordWhenFull) {
  Simulator sim;
  LifecycleTracker tracker(&sim, /*max_messages=*/4);
  for (uint64_t i = 1; i <= 6; ++i) {
    tracker.Observe(Ctx(1, 1, i), LifecycleStage::kSent, NodeId{1});
  }
  EXPECT_EQ(tracker.size(), 4u);
  EXPECT_EQ(tracker.evicted(), 2u);
  EXPECT_EQ(tracker.Find(Ctx(1, 1, 1).id), nullptr);
  EXPECT_EQ(tracker.Find(Ctx(1, 1, 2).id), nullptr);
  EXPECT_NE(tracker.Find(Ctx(1, 1, 6).id), nullptr);

  // Descending ids: the first-observed record holds the largest id, and
  // eviction follows first observation, not id order.
  LifecycleTracker descending(&sim, /*max_messages=*/4);
  for (uint64_t i = 6; i >= 1; --i) {
    descending.Observe(Ctx(1, 1, i), LifecycleStage::kSent, NodeId{1});
  }
  EXPECT_EQ(descending.size(), 4u);
  EXPECT_EQ(descending.evicted(), 2u);
  EXPECT_EQ(descending.Find(Ctx(1, 1, 6).id), nullptr);
  EXPECT_EQ(descending.Find(Ctx(1, 1, 5).id), nullptr);
  EXPECT_NE(descending.Find(Ctx(1, 1, 4).id), nullptr);
  EXPECT_NE(descending.Find(Ctx(1, 1, 1).id), nullptr);
}

TEST(LifecycleTracker, RingWrapsAndEvictedIdsReturnFresh) {
  Simulator sim;
  LifecycleTracker tracker(&sim, /*max_messages=*/4);
  // 11 ids, first observed out of id order, fill a 4-record ring and wrap it
  // twice.  Each id is observed twice, so the second hits the index.
  for (uint64_t seq : {5, 11, 2, 9, 1, 7, 3, 10, 4, 8, 6}) {
    tracker.Observe(Ctx(1, 1, seq), LifecycleStage::kSent, NodeId{1});
    tracker.Observe(Ctx(1, 1, seq), LifecycleStage::kOnWire, NodeId{1});
  }
  EXPECT_EQ(tracker.size(), 4u);
  EXPECT_EQ(tracker.evicted(), 7u);
  // The last 4 ids first observed, in id order.
  std::vector<uint64_t> kept;
  for (const LifecycleRecord& record : tracker.SortedRecords()) {
    kept.push_back(record.id.sequence);
    EXPECT_EQ(record.count[static_cast<size_t>(LifecycleStage::kSent)], 1u);
    EXPECT_EQ(record.count[static_cast<size_t>(LifecycleStage::kOnWire)], 1u);
  }
  EXPECT_EQ(kept, (std::vector<uint64_t>{4, 6, 8, 10}));

  // An evicted id observed again gets a fresh record, which evicts the
  // oldest survivor (10).
  tracker.Observe(Ctx(1, 1, 5), LifecycleStage::kDelivered, NodeId{2});
  const LifecycleRecord* fresh = tracker.Find(Ctx(1, 1, 5).id);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->Saw(LifecycleStage::kSent));
  EXPECT_TRUE(fresh->Saw(LifecycleStage::kDelivered));
  EXPECT_EQ(fresh->dst_node, NodeId{2});
  EXPECT_EQ(fresh->first_seq, tracker.observed());
  EXPECT_EQ(tracker.evicted(), 8u);
  EXPECT_EQ(tracker.Find(Ctx(1, 1, 10).id), nullptr);
  EXPECT_NE(tracker.Find(Ctx(1, 1, 4).id), nullptr);
}

TEST(LifecycleTracker, TableExportsAreDeterministicAndValid) {
  // Two senders' ids, observed in descending order: every export lists them
  // ascending, byte for byte as a tracker fed the same ids ascending does.
  std::vector<CausalContext> ascending;
  for (uint32_t sender : {2u, 4u}) {
    for (uint64_t i = 1; i <= 3; ++i) {
      ascending.push_back(Ctx(sender, 5, i));
    }
  }
  const std::vector<CausalContext> descending(ascending.rbegin(), ascending.rend());
  auto feed = [](LifecycleTracker& tracker, const std::vector<CausalContext>& order) {
    for (const CausalContext& ctx : order) {
      tracker.Observe(ctx, LifecycleStage::kSent, ctx.origin);
      tracker.Observe(ctx, LifecycleStage::kOnWire, ctx.origin);
      tracker.Observe(ctx, LifecycleStage::kDelivered, NodeId{3});
    }
  };
  Simulator sim;
  LifecycleTracker tracker(&sim);
  feed(tracker, descending);
  LifecycleTracker reference(&sim);
  feed(reference, ascending);

  std::vector<MessageId> sorted;
  for (const LifecycleRecord& rec : tracker.SortedRecords()) {
    sorted.push_back(rec.id);
  }
  std::vector<MessageId> expected;
  for (const CausalContext& ctx : ascending) {
    expected.push_back(ctx.id);
  }
  EXPECT_EQ(sorted, expected);

  const std::string json = tracker.TableToJson();
  EXPECT_EQ(json, tracker.TableToJson());  // Deterministic.
  EXPECT_EQ(json, reference.TableToJson());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"messages\""), std::string::npos);
  EXPECT_NE(json.find("\"sent\""), std::string::npos);
  EXPECT_NE(json.find("\"observed\":18"), std::string::npos) << json;

  const std::string csv = tracker.TableToCsv();
  EXPECT_EQ(csv, reference.TableToCsv());
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "id,origin,dst_node,flags,hops,stage,first_ms,count");
  EXPECT_NE(csv.find("delivered"), std::string::npos);

  size_t json_at = 0;
  size_t csv_at = 0;
  for (const MessageId& id : expected) {
    const size_t in_json = json.find("\"id\":\"" + ToString(id) + '"');
    const size_t in_csv = csv.find('"' + ToString(id) + '"');
    ASSERT_NE(in_json, std::string::npos) << ToString(id);
    ASSERT_NE(in_csv, std::string::npos) << ToString(id);
    EXPECT_GT(in_json, json_at) << ToString(id) << " out of id order";
    EXPECT_GT(in_csv, csv_at) << ToString(id) << " out of id order";
    json_at = in_json;
    csv_at = in_csv;
  }
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingBoundsEachNodeAndDumpsDeterministically) {
  FlightRecorder flight(/*per_node_capacity=*/3);
  const CausalContext ctx = Ctx(1, 1, 1);
  for (uint64_t i = 0; i < 5; ++i) {
    flight.Record(Event(ctx, LifecycleStage::kSent, /*node=*/1, /*seq=*/i));
  }
  flight.Record(Event(ctx, LifecycleStage::kDelivered, /*node=*/2, /*seq=*/5));
  EXPECT_EQ(flight.recorded(), 6u);

  // Node 1 keeps only the newest 3 events, oldest first.
  std::vector<LifecycleEvent> events = flight.NodeEvents(NodeId{1});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 2u);
  EXPECT_EQ(events[1].seq, 3u);
  EXPECT_EQ(events[2].seq, 4u);

  const std::string dump = flight.Dump("explicit", "unit test");
  EXPECT_EQ(flight.dump_count(), 1u);
  EXPECT_EQ(flight.last_dump(), dump);
  EXPECT_TRUE(JsonChecker(dump).Valid()) << dump;
  EXPECT_NE(dump.find("\"reason\":\"explicit\""), std::string::npos);
  EXPECT_NE(dump.find("\"stage\":\"delivered\""), std::string::npos);
  // Same state, same bytes.
  EXPECT_EQ(dump, flight.Dump("explicit", "unit test"));
}

// ---------------------------------------------------------------------------
// InvariantOracle: one tripping test per monitor, fed through the tracker
// (the production path) so attachment wiring is exercised too.
// ---------------------------------------------------------------------------

struct OracleFeed {
  Simulator sim;
  InvariantOracle oracle;
  LifecycleTracker tracker;

  explicit OracleFeed(OracleOptions options = OracleOptions{.policy = OraclePolicy::kCount})
      : oracle(options), tracker(&sim) {
    tracker.AttachOracle(&oracle);
  }

  void Observe(const CausalContext& ctx, LifecycleStage stage, uint32_t node,
               ProcessId process = {}) {
    tracker.Observe(ctx, stage, NodeId{node}, process);
  }

  // The well-behaved path for one guaranteed message, up to (not including)
  // the read.
  void CleanChain(const CausalContext& ctx, uint32_t dst_node) {
    Observe(ctx, LifecycleStage::kSent, ctx.origin.value);
    Observe(ctx, LifecycleStage::kOnWire, ctx.origin.value);
    Observe(ctx, LifecycleStage::kOverheard, 0);
    Observe(ctx, LifecycleStage::kPublished, 0);
    Observe(ctx, LifecycleStage::kDurable, 0);
    Observe(ctx, LifecycleStage::kDelivered, dst_node);
    Observe(ctx, LifecycleStage::kAcked, dst_node);
  }
};

TEST(InvariantOracle, CleanLifecycleTripsNothing) {
  OracleFeed feed;
  const ProcessId reader{NodeId{2}, 4};
  for (uint64_t i = 1; i <= 5; ++i) {
    CausalContext ctx = Ctx(1, 3, i);
    feed.CleanChain(ctx, 2);
    feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  }
  feed.oracle.CheckQuiescent();
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
}

TEST(InvariantOracle, DeliveryBeforePublishTripsRecorderCompleteness) {
  OracleFeed feed;
  CausalContext ctx = Ctx(1, 3, 1);
  feed.Observe(ctx, LifecycleStage::kSent, 1);
  feed.Observe(ctx, LifecycleStage::kOnWire, 1);
  feed.Observe(ctx, LifecycleStage::kDelivered, 2);  // Never published.
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kRecorderCompleteness), 1u);
  // The unjournaled delivery also breaches durability-before-ack.
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kDurabilityBeforeAck), 1u);
}

TEST(InvariantOracle, QuiescenceCatchesWireOrphans) {
  // A guaranteed message that reached the wire but was never delivered
  // anywhere must still have been published by the time the run quiesces.
  OracleFeed feed;
  CausalContext ctx = Ctx(1, 3, 1);
  feed.Observe(ctx, LifecycleStage::kSent, 1);
  feed.Observe(ctx, LifecycleStage::kOnWire, 1);
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
  feed.oracle.CheckQuiescent();
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kRecorderCompleteness), 1u);
}

TEST(InvariantOracle, AckBeforeJournalTripsDurability) {
  OracleFeed feed;
  CausalContext ctx = Ctx(1, 3, 1);
  feed.Observe(ctx, LifecycleStage::kSent, 1);
  feed.Observe(ctx, LifecycleStage::kOnWire, 1);
  feed.Observe(ctx, LifecycleStage::kOverheard, 0);
  feed.Observe(ctx, LifecycleStage::kPublished, 0);
  feed.Observe(ctx, LifecycleStage::kAcked, 2);  // Published but not journaled.
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kDurabilityBeforeAck), 1u);
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kRecorderCompleteness), 0u);
}

TEST(InvariantOracle, DuplicateReadWithinOneIncarnationTrips) {
  OracleFeed feed;
  const ProcessId reader{NodeId{2}, 4};
  CausalContext ctx = Ctx(1, 3, 1);
  feed.CleanChain(ctx, 2);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);  // Suppression failed.
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kDuplicateDelivery), 1u);
  EXPECT_EQ(feed.oracle.total_violations(), 1u);
}

TEST(InvariantOracle, OutOfOrderReplayedReadsTripReceiveOrder) {
  OracleFeed feed;
  const ProcessId reader{NodeId{2}, 4};
  // Unguaranteed traffic: isolates the per-process read monitors from the
  // publication monitors.
  CausalContext a = Ctx(1, 3, 1, /*flags=*/0);
  CausalContext b = Ctx(1, 3, 2, /*flags=*/0);
  CausalContext c = Ctx(1, 3, 3, /*flags=*/0);
  feed.Observe(a, LifecycleStage::kRead, 2, reader);
  feed.Observe(b, LifecycleStage::kRead, 2, reader);
  feed.Observe(c, LifecycleStage::kRead, 2, reader);

  // Crash + recreate: the new incarnation replays reads b, then a — the
  // original order was a before b.
  feed.tracker.NoteProcessReset(reader);
  feed.Observe(b, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
  feed.Observe(a, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(feed.oracle.violations(OracleMonitor::kReceiveOrder), 1u);
}

TEST(InvariantOracle, InOrderReplayAfterResetIsClean) {
  OracleFeed feed;
  const ProcessId reader{NodeId{2}, 4};
  CausalContext a = Ctx(1, 3, 1, /*flags=*/0);
  CausalContext b = Ctx(1, 3, 2, /*flags=*/0);
  feed.Observe(a, LifecycleStage::kRead, 2, reader);
  feed.Observe(b, LifecycleStage::kRead, 2, reader);

  feed.tracker.NoteProcessReset(reader);
  // Replay delivery precedes each re-read; neither trips anything.
  feed.Observe(a, LifecycleStage::kReplayed, 2, reader);
  feed.Observe(a, LifecycleStage::kRead, 2, reader);
  feed.Observe(b, LifecycleStage::kReplayed, 2, reader);
  feed.Observe(b, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
}

TEST(InvariantOracle, ControlAndReplayTrafficAreExemptFromPublication) {
  OracleFeed feed;
  // Control traffic is acked but deliberately unpublished.
  CausalContext control = Ctx(1, 3, 1, kCausalGuaranteed | kCausalControl);
  feed.Observe(control, LifecycleStage::kSent, 1);
  feed.Observe(control, LifecycleStage::kOnWire, 1);
  feed.Observe(control, LifecycleStage::kDelivered, 2);
  feed.Observe(control, LifecycleStage::kAcked, 2);
  // A replay retransmission re-sends an already-published message; it must
  // not re-arm the completeness obligation for the quiescence sweep.
  CausalContext replay = Ctx(1, 3, 2, kCausalGuaranteed | kCausalReplay);
  feed.Observe(replay, LifecycleStage::kOnWire, 0);
  feed.Observe(replay, LifecycleStage::kDelivered, 2);
  feed.oracle.CheckQuiescent();
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
}

TEST(InvariantOracle, DisabledMonitorStaysSilent) {
  OracleFeed feed(OracleOptions{.duplicate_delivery = false,
                                .policy = OraclePolicy::kCount});
  const ProcessId reader{NodeId{2}, 4};
  CausalContext ctx = Ctx(1, 3, 1, /*flags=*/0);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(feed.oracle.total_violations(), 0u);
}

TEST(InvariantOracle, ViolationHookAndReportJson) {
  OracleFeed feed;
  std::vector<OracleViolation> seen;
  feed.oracle.SetViolationHook(
      [&seen](const OracleViolation& v) { seen.push_back(v); });

  const ProcessId reader{NodeId{2}, 4};
  CausalContext ctx = Ctx(1, 3, 1, /*flags=*/0);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].monitor, OracleMonitor::kDuplicateDelivery);
  EXPECT_EQ(seen[0].id, ctx.id);
  EXPECT_EQ(seen[0].process, reader);

  const std::string report = feed.oracle.ReportJson();
  EXPECT_TRUE(JsonChecker(report).Valid()) << report;
  EXPECT_NE(report.find("\"duplicate_delivery\":{\"enabled\":1,\"violations\":1"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"total_violations\":1"), std::string::npos);
}

TEST(InvariantOracle, FirstViolationDumpsTheFlightRecorder) {
  OracleFeed feed;
  FlightRecorder flight(/*per_node_capacity=*/16);
  feed.tracker.AttachFlightRecorder(&flight);
  feed.oracle.AttachFlightRecorder(&flight);

  const ProcessId reader{NodeId{2}, 4};
  CausalContext ctx = Ctx(1, 3, 1, /*flags=*/0);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(flight.dump_count(), 1u);
  EXPECT_NE(flight.last_dump().find("\"reason\":\"oracle_violation\""),
            std::string::npos);
  // The dump includes the tripping event itself (flight records before the
  // oracle runs).
  EXPECT_NE(flight.last_dump().find("\"stage\":\"read\""), std::string::npos);

  // Later violations are cascade: no further dumps.
  feed.Observe(ctx, LifecycleStage::kRead, 2, reader);
  EXPECT_EQ(feed.oracle.total_violations(), 2u);
  EXPECT_EQ(flight.dump_count(), 1u);
}

// ---------------------------------------------------------------------------
// System integration
// ---------------------------------------------------------------------------

// The full observability stack around a 2-node ping-pong system: metrics,
// tracer, lifecycle tracker, oracle, and flight recorder all attached.
struct FullObsHarness {
  MetricsRegistry registry;
  InvariantOracle oracle;
  FlightRecorder flight;
  PublishingSystem system;
  Tracer tracer;
  LifecycleTracker lifecycle;

  explicit FullObsHarness(OraclePolicy policy = OraclePolicy::kLog)
      : oracle(OracleOptions{.policy = policy}),
        system(MakeConfig()),
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

    system.cluster().registry().Register(
        "echo", [] { return std::make_unique<EchoProgram>(); });
    system.cluster().registry().Register(
        "pinger", [] { return std::make_unique<PingerProgram>(40); });
  }

  static PublishingSystemConfig MakeConfig() {
    PublishingSystemConfig config;
    config.cluster.node_count = 2;
    config.cluster.start_system_processes = false;
    return config;
  }

  ProcessId SpawnPingPong() {
    auto echo = system.cluster().Spawn(NodeId{2}, "echo");
    system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
    return *echo;
  }

  bool AnyRecordSawFullChain() const {
    for (const LifecycleRecord& rec : lifecycle.SortedRecords()) {
      if (rec.Saw(LifecycleStage::kSent) && rec.Saw(LifecycleStage::kOnWire) &&
          rec.Saw(LifecycleStage::kOverheard) &&
          rec.Saw(LifecycleStage::kPublished) &&
          rec.Saw(LifecycleStage::kDurable) &&
          rec.Saw(LifecycleStage::kDelivered) && rec.Saw(LifecycleStage::kRead)) {
        return true;
      }
    }
    return false;
  }
};

TEST(LifecycleIntegration, CleanRunIsOracleCleanWithFullLifecycles) {
  FullObsHarness h;
  h.SpawnPingPong();
  h.system.RunFor(Seconds(2));
  h.oracle.CheckQuiescent();

  EXPECT_EQ(h.oracle.total_violations(), 0u) << h.oracle.ReportJson();
  EXPECT_GT(h.lifecycle.size(), 0u);
  EXPECT_TRUE(h.AnyRecordSawFullChain());

  // The per-stage instruments and the per-message trace span saw traffic.
  EXPECT_GT(h.registry.GetCounter("lifecycle.stage", {{"stage", "published"}})->value(), 0u);
  EXPECT_GT(h.registry.GetHistogram("lifecycle.since_sent_ms", {{"stage", "read"}})
                ->count(),
            0u);
  EXPECT_TRUE(h.tracer.Contains("msg.lifecycle"));
  EXPECT_TRUE(h.tracer.Contains("msg.published"));

  const std::string table = h.lifecycle.TableToJson();
  EXPECT_TRUE(JsonChecker(table).Valid());
  EXPECT_TRUE(JsonChecker(h.flight.Dump("explicit")).Valid());
}

TEST(LifecycleIntegration, CrashRecoveryStaysOracleCleanAndDumpsFlight) {
  FullObsHarness h;
  ProcessId echo = h.SpawnPingPong();
  h.system.RunFor(Seconds(2));
  ASSERT_TRUE(h.system.CrashProcess(echo).ok());
  // Fault injection dumps the flight recorder at the moment of the crash.
  EXPECT_EQ(h.flight.dump_count(), 1u);
  EXPECT_NE(h.flight.last_dump().find("\"reason\":\"crash_process\""),
            std::string::npos);

  ASSERT_TRUE(h.system.RunUntilRecovered(echo, Seconds(30)));
  h.system.RunFor(Seconds(2));
  h.oracle.CheckQuiescent();

  // Replay suppression and receive-order preservation held through recovery.
  EXPECT_EQ(h.oracle.total_violations(), 0u) << h.oracle.ReportJson();
  // Recovery actually replayed something, and the tracker saw it.
  bool any_replayed = false;
  for (const LifecycleRecord& rec : h.lifecycle.SortedRecords()) {
    any_replayed = any_replayed || rec.Saw(LifecycleStage::kReplayed);
  }
  EXPECT_TRUE(any_replayed);
  EXPECT_TRUE(h.tracer.Contains("fault.crash_process"));
}

TEST(LifecycleIntegration, BurstReplayCountsReplayedOncePerMessage) {
  FullObsHarness h;
  ProcessId echo = h.SpawnPingPong();
  h.system.RunFor(Seconds(2));
  ASSERT_TRUE(h.system.CrashProcess(echo).ok());
  ASSERT_TRUE(h.system.RunUntilRecovered(echo, Seconds(30)));
  h.system.RunFor(Seconds(2));
  h.oracle.CheckQuiescent();
  EXPECT_EQ(h.oracle.total_violations(), 0u) << h.oracle.ReportJson();

  // The default recovery path streams the log as multi-message burst frames
  // (DESIGN.md §11)...
  EXPECT_GT(h.system.recovery().stats().replay_bursts_sent, 0u);
  // ...and each replayed message still hits the `replayed` lifecycle stage
  // exactly once for the recovery round, burst packing notwithstanding.
  uint64_t replayed_records = 0;
  for (const LifecycleRecord& rec : h.lifecycle.SortedRecords()) {
    if (rec.Saw(LifecycleStage::kReplayed)) {
      ++replayed_records;
      EXPECT_EQ(rec.count[static_cast<size_t>(LifecycleStage::kReplayed)], 1u)
          << "message " << ToString(rec.id) << " observed `replayed` more than once";
    }
  }
  EXPECT_GT(replayed_records, 0u);
}

TEST(LifecycleIntegration, CrashFlightDumpIsDeterministic) {
  auto run = [] {
    FullObsHarness h;
    ProcessId echo = h.SpawnPingPong();
    h.system.RunFor(Seconds(2));
    EXPECT_TRUE(h.system.CrashProcess(echo).ok());
    return h.flight.last_dump();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// A recorder tap that lies: it claims every frame was recorded but silently
// drops every `skip_every`-th data frame on the floor, so those messages are
// delivered without ever being published — exactly the §4.4.1 gating breach
// the recorder-completeness monitor exists to catch.
class FrameSkippingTap final : public PromiscuousListener {
 public:
  FrameSkippingTap(Recorder* recorder, uint64_t skip_every)
      : recorder_(recorder), skip_every_(skip_every) {}

  bool OnWireFrame(const Frame& frame) override {
    if (frame.type == FrameType::kData && ++data_frames_ % skip_every_ == 0) {
      return true;  // "Recorded", except it wasn't.
    }
    return recorder_->OnWireFrame(frame);
  }

 private:
  Recorder* recorder_;
  uint64_t skip_every_;
  uint64_t data_frames_ = 0;
};

TEST(LifecycleIntegration, BrokenRecorderTripsCompletenessMonitor) {
  FullObsHarness h(OraclePolicy::kCount);
  FrameSkippingTap tap(&h.system.recorder(), /*skip_every=*/3);
  h.system.cluster().medium().DetachListener(&h.system.recorder());
  h.system.cluster().medium().AttachListener(&tap, Cluster::kRecorderNode);

  h.SpawnPingPong();
  h.system.RunFor(Seconds(2));

  EXPECT_GT(h.oracle.violations(OracleMonitor::kRecorderCompleteness), 0u);
  // The first violation snapshotted the flight recorder.
  EXPECT_GE(h.flight.dump_count(), 1u);
  EXPECT_NE(h.flight.last_dump().find("oracle_violation"), std::string::npos);

  h.system.cluster().medium().DetachListener(&tap);
}

}  // namespace
}  // namespace publishing
