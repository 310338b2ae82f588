// Live migration soak + elastic balancing study (DESIGN.md §14).
//
// Section 1 soaks the MigrationManager: one continuously-chatty conversation
// while its server is ping-ponged across a 3-segment ring for 60 completed
// live moves (most of them cross-segment), followed by the crash classes a
// move must survive — a crash *before* the freeze (the manager must refuse or
// abort, never wedge), a crash *mid-move*, and a crash *after* completion
// (recovery must run from the new home).  The invariant oracle (including the
// migration_atomicity monitor) watches every transition; the soak phase is
// crash-free, so every guaranteed data message must be read exactly once —
// the lifecycle table is the proof and its summary lands in the JSON.
//
// Section 2 is the balancing claim: a deliberately skewed load (every server
// on one node) run twice from the same seed, once with static placement and
// once with the ElasticBalancer shedding hot processes.  The gate is strict:
// balanced p99 publish-ack latency must beat static.
//
// Section 3 is a synthetic saturation overload with the telemetry timeline
// and SLO health watchdog attached: the publish-ack p99 ceiling must breach,
// the breach must dump the flight recorder, and the timeline + alert log are
// embedded in the JSON artifact.
//
// Emits BENCH_migration.json (flat, deterministic — virtual-time numbers
// only, including the `timeline`/`alerts` sections, CI diffs two same-seed
// runs) plus migration_oracle_report.json.  Exits non-zero if any gate fails.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/internet/internet.h"
#include "src/migrate/elastic_balancer.h"
#include "src/migrate/migration_manager.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/obs/timeline.h"
#include "src/obs/watchdog.h"
#include "src/sim/simulator.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

bool g_failed = false;

void Gate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_migration: GATE FAILED: %s\n", what);
    g_failed = true;
  }
}

// EchoProgram that burns CPU per request, to make a node saturable.
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

// Full observability stack around an Internet, plus the migration manager.
struct Rig {
  MetricsRegistry registry;
  InvariantOracle oracle{OracleOptions{.policy = OraclePolicy::kCount}};
  Internet net;
  LifecycleTracker lifecycle;
  MigrationManager manager;

  explicit Rig(const InternetConfig& config)
      : net(config), lifecycle(&net.sim(), /*max_messages=*/1 << 18), manager(&net) {
    lifecycle.AttachOracle(&oracle);
    lifecycle.AttachMetrics(&registry);
    Observability obs;
    obs.metrics = &registry;
    obs.lifecycle = &lifecycle;
    net.EnableObservability(obs);
    manager.Start();
  }

  ~Rig() { net.EnableObservability(Observability{}); }

  // Runs virtual time until the in-flight move of `pid` reaches a terminal
  // state.  Returns false if it never does within the deadline.
  bool WaitMoveDone(const ProcessId& pid, SimDuration deadline = Seconds(30)) {
    const SimTime stop = net.sim().Now() + deadline;
    while (manager.IsMigrating(pid) && net.sim().Now() < stop) {
      net.RunFor(MillisF(5.0));
    }
    return !manager.IsMigrating(pid);
  }
};

const PingerProgram* PingerAt(Internet& net, NodeId node, const ProcessId& pid) {
  return dynamic_cast<const PingerProgram*>(net.kernel(node)->ProgramFor(pid));
}

// ---------------------------------------------------------------------------
// Section 1: migration soak.

void RunSoak(BenchJson& json, std::string* oracle_report) {
  PrintHeader("Migration soak: 60 live moves around a 3-segment ring");

  InternetConfig config;
  config.segments = 3;
  config.nodes_per_segment = 2;
  config.seed = 29;
  Rig rig(config);
  Internet& net = rig.net;

  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(2000); });

  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  const NodeId pinger_home = Internet::ProcessingNode(1, 1);
  auto pinger = net.Spawn(pinger_home, "pinger", {Link{*echo, 1, 0, 0}});
  Gate(echo.ok() && pinger.ok(), "soak spawn");
  net.RunFor(Millis(50));

  // Rotation covering every processing node on every segment: consecutive
  // hops alternate same-segment and cross-segment moves.
  const std::vector<NodeId> rotation = {
      Internet::ProcessingNode(0, 1), Internet::ProcessingNode(1, 0),
      Internet::ProcessingNode(1, 1), Internet::ProcessingNode(2, 0),
      Internet::ProcessingNode(2, 1), Internet::ProcessingNode(0, 0),
  };
  const size_t kMoves = 60;
  for (size_t i = 0; i < kMoves; ++i) {
    const NodeId to = rotation[i % rotation.size()];
    Status status = rig.manager.Migrate(*echo, to);
    Gate(status.ok(), "soak Migrate() accepted");
    Gate(rig.WaitMoveDone(*echo), "soak move reached a terminal state");
    net.RunFor(Millis(20));  // Let the conversation breathe between moves.
  }

  // Drain: the pinger must finish every conversation it started.
  const PingerProgram* p = PingerAt(net, pinger_home, *pinger);
  for (int round = 0; round < 40 && !p->done(); ++round) {
    net.RunFor(Seconds(1));
  }

  // Exactly-once evidence straight from the lifecycle table: no crash
  // happened in this phase, so every guaranteed data message is read at
  // most once — and every ping/pong exactly once (the conversation ran to
  // completion).
  uint64_t data_messages = 0;
  uint64_t max_reads = 0;
  uint64_t read_once = 0;
  for (const LifecycleRecord& record : rig.lifecycle.SortedRecords()) {
    if ((record.flags & kCausalGuaranteed) == 0 ||
        (record.flags & kCausalControl) != 0) {
      continue;
    }
    ++data_messages;
    const uint64_t reads = record.count[static_cast<size_t>(LifecycleStage::kRead)];
    max_reads = std::max(max_reads, reads);
    read_once += reads == 1 ? 1 : 0;
  }
  rig.oracle.CheckQuiescent();

  const MigrationStats& ms = rig.manager.stats();
  std::printf("  moves: completed=%llu cross_segment=%llu aborted=%llu\n",
              static_cast<unsigned long long>(ms.moves_completed),
              static_cast<unsigned long long>(ms.cross_segment_moves),
              static_cast<unsigned long long>(ms.moves_aborted));
  std::printf("  conversation: sent=%llu received=%llu done=%d\n",
              static_cast<unsigned long long>(p->sent()),
              static_cast<unsigned long long>(p->received()), p->done() ? 1 : 0);
  std::printf("  lifecycle: data_messages=%llu read_exactly_once=%llu max_reads=%llu\n",
              static_cast<unsigned long long>(data_messages),
              static_cast<unsigned long long>(read_once),
              static_cast<unsigned long long>(max_reads));
  std::printf("  oracle violations=%llu\n",
              static_cast<unsigned long long>(rig.oracle.total_violations()));

  Gate(ms.moves_completed >= 50, "soak: >=50 completed migrations");
  Gate(ms.cross_segment_moves >= 20, "soak: >=20 cross-segment migrations");
  Gate(ms.moves_aborted == 0, "soak: no aborted moves");
  Gate(p->done(), "soak: conversation ran to completion");
  Gate(max_reads <= 1, "soak: exactly-once (no data message read twice)");
  Gate(read_once == data_messages, "soak: every data message read");
  Gate(rig.oracle.total_violations() == 0, "soak: oracle clean");

  json.Set("soak.moves_completed", static_cast<double>(ms.moves_completed));
  json.Set("soak.cross_segment_moves", static_cast<double>(ms.cross_segment_moves));
  json.Set("soak.moves_aborted", static_cast<double>(ms.moves_aborted));
  json.Set("soak.pinger_received", static_cast<double>(p->received()));
  json.Set("soak.data_messages", static_cast<double>(data_messages));
  json.Set("soak.read_exactly_once", static_cast<double>(read_once));
  json.Set("soak.max_reads_per_message", static_cast<double>(max_reads));
  json.Set("soak.oracle_violations",
           static_cast<double>(rig.oracle.total_violations()));
  *oracle_report = rig.oracle.ReportJson();
}

// ---------------------------------------------------------------------------
// Section 1b: crash classes around a move.

void RunCrashClasses(BenchJson& json) {
  PrintHeader("Crash classes: before / during / after a live move");

  InternetConfig config;
  config.segments = 2;
  config.nodes_per_segment = 2;
  config.seed = 31;
  Rig rig(config);
  Internet& net = rig.net;

  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(600); });

  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  const NodeId pinger_home = Internet::ProcessingNode(1, 0);
  auto pinger = net.Spawn(pinger_home, "pinger", {Link{*echo, 1, 0, 0}});
  net.RunFor(Millis(50));

  // Class 1: crash before the freeze.  The manager must fail fast (the
  // process is mid-recovery) or abort via the freeze nack — never wedge.
  Gate(net.CrashProcess(*echo).ok(), "crash(before): CrashProcess");
  Status during_recovery = rig.manager.Migrate(*echo, Internet::ProcessingNode(1, 1));
  const bool rejected = !during_recovery.ok();
  if (!rejected) {
    Gate(rig.WaitMoveDone(*echo), "crash(before): move reached terminal state");
  }
  Gate(net.RunUntilRecovered(*echo, Seconds(30)), "crash(before): recovery");
  net.RunFor(Millis(100));

  // Class 2: crash while a move is in flight.  Whatever phase the crash
  // lands in, the manager must reach a terminal state and the process must
  // come back somewhere.
  Status midmove = rig.manager.Migrate(*echo, Internet::ProcessingNode(1, 1));
  Gate(midmove.ok(), "crash(during): Migrate() accepted");
  net.RunFor(MillisF(2.0));
  (void)net.CrashProcess(*echo);  // May race the hand-off; either is fine.
  Gate(rig.WaitMoveDone(*echo), "crash(during): move reached terminal state");
  // Recovery may already have completed inside WaitMoveDone (its callback
  // cannot be armed retroactively), so gate on observable service instead:
  // the conversation must advance again.
  {
    const PingerProgram* probe = PingerAt(net, pinger_home, *pinger);
    const uint64_t before = probe->received();
    const SimTime stop = net.sim().Now() + Seconds(30);
    while (probe->received() == before && net.sim().Now() < stop) {
      net.RunFor(Millis(50));
    }
    Gate(probe->received() > before, "crash(during): service resumed");
  }
  net.RunFor(Millis(100));

  // Class 3: complete a move, then crash.  Recovery must run from the NEW
  // home segment's manager and the conversation must keep going.
  NodeId new_home = Internet::ProcessingNode(1, 1);
  if (net.kernel(new_home)->ProgramFor(*echo) != nullptr) {
    new_home = Internet::ProcessingNode(0, 1);
  }
  Status after = rig.manager.Migrate(*echo, new_home);
  Gate(after.ok(), "crash(after): Migrate() accepted");
  Gate(rig.WaitMoveDone(*echo), "crash(after): move completed");
  net.RunFor(Millis(50));
  Gate(net.CrashProcess(*echo).ok(), "crash(after): CrashProcess");
  Gate(net.RunUntilRecovered(*echo, Seconds(30)), "crash(after): recovery");

  // Drain the conversation; crashes legitimately re-execute reads, so the
  // exactly-once evidence here is the pinger's transcript: every pong
  // present, exactly once, in order.
  const PingerProgram* p = PingerAt(net, pinger_home, *pinger);
  for (int round = 0; round < 60 && !p->done(); ++round) {
    net.RunFor(Seconds(1));
  }
  bool ordered = p->done();
  const auto& transcript = p->transcript();
  for (size_t i = 0; i < transcript.size(); ++i) {
    ordered = ordered && transcript[i] == static_cast<uint8_t>(i);
  }
  rig.oracle.CheckQuiescent();

  std::printf("  rejected_while_recovering=%d moves_completed=%llu aborted=%llu\n",
              rejected ? 1 : 0,
              static_cast<unsigned long long>(rig.manager.stats().moves_completed),
              static_cast<unsigned long long>(rig.manager.stats().moves_aborted));
  std::printf("  conversation: received=%llu ordered=%d\n",
              static_cast<unsigned long long>(p->received()), ordered ? 1 : 0);
  std::printf("  oracle violations=%llu\n",
              static_cast<unsigned long long>(rig.oracle.total_violations()));

  Gate(ordered, "crash: transcript complete, exactly-once, in order");
  Gate(rig.oracle.total_violations() == 0, "crash: oracle clean");

  json.Set("crash.rejected_while_recovering", rejected ? 1.0 : 0.0);
  json.Set("crash.moves_completed",
           static_cast<double>(rig.manager.stats().moves_completed));
  json.Set("crash.moves_aborted",
           static_cast<double>(rig.manager.stats().moves_aborted));
  json.Set("crash.pinger_received", static_cast<double>(p->received()));
  json.Set("crash.transcript_ordered", ordered ? 1.0 : 0.0);
  json.Set("crash.oracle_violations",
           static_cast<double>(rig.oracle.total_violations()));
}

// ---------------------------------------------------------------------------
// Section 2: skewed load, static vs balanced.

struct SkewResult {
  StatAccumulator publish_ack_ms;
  uint64_t completed_pingers = 0;
  uint64_t moves_completed = 0;
  uint64_t violations = 0;
};

SkewResult RunSkewedLoad(bool balanced) {
  InternetConfig config;
  config.segments = 2;
  config.nodes_per_segment = 2;
  config.seed = 11;
  Rig rig(config);
  Internet& net = rig.net;

  net.registry().Register("slow-echo",
                          [] { return std::make_unique<SlowEchoProgram>(MillisF(4.0)); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(40); });

  // Skew: both servers start on one node, each with six closed-loop clients
  // — enough demand that a 4ms server can't keep up and its queue stays
  // deep (a server with few clients never queues: every client has one
  // outstanding request, so depth is bounded by the client count).
  const NodeId hot = Internet::ProcessingNode(0, 0);
  std::vector<ProcessId> echoes;
  for (int i = 0; i < 2; ++i) {
    auto echo = net.Spawn(hot, "slow-echo");
    if (echo.ok()) {
      echoes.push_back(*echo);
    }
  }
  const std::vector<NodeId> sources = {Internet::ProcessingNode(0, 1),
                                       Internet::ProcessingNode(1, 0),
                                       Internet::ProcessingNode(1, 1)};
  struct Client {
    NodeId node;
    ProcessId pid;
  };
  std::vector<Client> clients;
  for (size_t i = 0; i < echoes.size(); ++i) {
    for (int j = 0; j < 6; ++j) {
      const NodeId node = sources[(i * 6 + j) % sources.size()];
      auto p = net.Spawn(node, "pinger", {Link{echoes[i], 1, 0, 0}});
      if (p.ok()) {
        clients.push_back(Client{node, *p});
      }
    }
  }

  // The hot node's instantaneous depth hovers around 2-3 (the real backlog
  // serializes in the per-destination transport channels feeding it, which
  // queue depth cannot see), so the watermarks sit tight: shed at 2, only
  // onto completely idle nodes.
  ElasticBalancerOptions bopts;
  bopts.period = Millis(50);
  bopts.high_watermark = 2.0;
  bopts.low_watermark = 0.0;
  // One shed per server: a lone 4ms server still brushes the high watermark
  // under six closed-loop clients, so a short cooldown re-moves it forever
  // and every freeze transient lands in the tail.  Converge, then hold.
  bopts.cooldown = Seconds(600);
  ElasticBalancer balancer(&net, &rig.manager, bopts);
  if (balanced) {
    balancer.Start();
  }

  auto all_done = [&net, &clients]() {
    for (const Client& c : clients) {
      const PingerProgram* p = PingerAt(net, c.node, c.pid);
      if (p == nullptr || !p->done()) {
        return false;
      }
    }
    return true;
  };
  for (int round = 0; round < 120 && !all_done(); ++round) {
    net.RunFor(Seconds(1));
  }
  balancer.Stop();

  SkewResult result;
  for (const Client& c : clients) {
    const PingerProgram* p = PingerAt(net, c.node, c.pid);
    if (p != nullptr && p->done()) {
      ++result.completed_pingers;
    }
  }
  for (const LifecycleRecord& record : rig.lifecycle.SortedRecords()) {
    if ((record.flags & kCausalGuaranteed) == 0 ||
        (record.flags & kCausalControl) != 0) {
      continue;
    }
    const SimTime sent = record.FirstTime(LifecycleStage::kSent);
    const SimTime acked = record.FirstTime(LifecycleStage::kAcked);
    // Steady-state tail: drop the same warmup window from both runs.  The
    // balanced run spends it converging (watermark detection + two moves,
    // whose freeze delays a fixed handful of in-flight messages); comparing
    // tails while one side is still rearranging measures the transient, not
    // the placement.
    constexpr SimTime kWarmup = Millis(500);
    if (sent >= kWarmup && acked >= 0) {
      result.publish_ack_ms.Add(ToMillis(acked - sent));
    }
  }
  rig.oracle.CheckQuiescent();
  result.moves_completed = rig.manager.stats().moves_completed;
  result.violations = rig.oracle.total_violations();
  return result;
}

void RunSkewStudy(BenchJson& json) {
  PrintHeader("Skewed load: static placement vs elastic balancing (same seed)");
  const SkewResult stat = RunSkewedLoad(/*balanced=*/false);
  const SkewResult bal = RunSkewedLoad(/*balanced=*/true);

  std::printf("  %10s | %9s %9s | %7s %6s\n", "placement", "p50 ms", "p99 ms",
              "moves", "done");
  PrintRule();
  std::printf("  %10s | %9.2f %9.2f | %7llu %6llu\n", "static",
              stat.publish_ack_ms.p50(), stat.publish_ack_ms.p99(),
              static_cast<unsigned long long>(stat.moves_completed),
              static_cast<unsigned long long>(stat.completed_pingers));
  std::printf("  %10s | %9.2f %9.2f | %7llu %6llu\n", "balanced",
              bal.publish_ack_ms.p50(), bal.publish_ack_ms.p99(),
              static_cast<unsigned long long>(bal.moves_completed),
              static_cast<unsigned long long>(bal.completed_pingers));

  Gate(stat.completed_pingers == 12, "skew: static run completed");
  Gate(bal.completed_pingers == 12, "skew: balanced run completed");
  Gate(stat.violations == 0, "skew: static oracle clean");
  Gate(bal.violations == 0, "skew: balanced oracle clean");
  Gate(bal.moves_completed >= 1, "skew: balancer actually moved something");
  Gate(bal.publish_ack_ms.p99() < stat.publish_ack_ms.p99(),
       "skew: balanced p99 beats static p99");

  json.SetStats("skew.static.publish_ack_ms.", stat.publish_ack_ms);
  json.SetStats("skew.balanced.publish_ack_ms.", bal.publish_ack_ms);
  json.Set("skew.static.completed", static_cast<double>(stat.completed_pingers));
  json.Set("skew.balanced.completed", static_cast<double>(bal.completed_pingers));
  json.Set("skew.balanced.moves_completed",
           static_cast<double>(bal.moves_completed));
  json.Set("skew.static.oracle_violations", static_cast<double>(stat.violations));
  json.Set("skew.balanced.oracle_violations", static_cast<double>(bal.violations));
}

// ---------------------------------------------------------------------------
// Section 3: synthetic saturation overload — the health watchdog must notice.
//
// The same skewed shape as section 2, but heavier (8ms servers, no balancer,
// nobody sheds load) and with the full telemetry stack attached: a
// TelemetrySampler scraping every 250 virtual ms and a HealthWatchdog
// holding the bench's SLOs.  The run is *designed* to breach the publish-ack
// p99 ceiling, so the gates invert: at least one alert must fire, the alert
// must dump the flight recorder, and the oracle must record it in its health
// section — all in virtual time, so the embedded `timeline` and `alerts`
// JSON sections are byte-identical across same-seed runs (CI diffs them).

void RunOverloadStudy(BenchJson& json) {
  PrintHeader("Saturation overload: SLO watchdog + flight recorder");

  InternetConfig config;
  config.segments = 2;
  config.nodes_per_segment = 2;
  config.seed = 17;
  Rig rig(config);
  Internet& net = rig.net;

  FlightRecorder flight;
  rig.lifecycle.AttachFlightRecorder(&flight);

  TimelineConfig tc;
  tc.interval = Millis(250);
  tc.capacity = 512;
  tc.include_prefixes = {"engine.", "kernel.",    "recorder.", "sim.",
                         "storage.", "transport.", "balancer."};
  TelemetrySampler sampler(&net.sim(), &rig.registry, tc);
  HealthWatchdog watchdog(&sampler);
  // The breaches this study manufactures, with the margins it measures: a
  // 12-client closed loop on two 8ms servers pinned to one node holds that
  // kernel's queue at 10-13 (ceiling 8), pushes transport ack p99 to 11-13ms
  // (ceiling 10ms — acks complete at kernel delivery, so server think-time
  // queues the medium, not the ack itself), and drives the hot recorder to
  // ~0.25 publish-CPU-ms per virtual ms (ceiling 0.2, the calibrated
  // internetwork sweep budgets 0.15).
  watchdog.AddRule({.name = "publish_ack_p99",
                    .series = "transport.ack_latency_ms.p99",
                    .kind = SloRuleKind::kCeiling,
                    .threshold = 10.0,
                    .windows = 2});
  watchdog.AddRule({.name = "queue_backlog",
                    .series = "kernel.queue_depth*",
                    .kind = SloRuleKind::kCeiling,
                    .threshold = 8.0,
                    .windows = 4});
  watchdog.AddRule({.name = "recorder_saturation",
                    .series = "recorder.publish_cpu_ms*",
                    .kind = SloRuleKind::kRateCeiling,
                    .threshold = 0.2,
                    .windows = 3});
  watchdog.AttachFlightRecorder(&flight);
  watchdog.AttachOracle(&rig.oracle);
  sampler.Start();

  net.registry().Register("slow-echo",
                          [] { return std::make_unique<SlowEchoProgram>(MillisF(8.0)); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(60); });

  const NodeId hot = Internet::ProcessingNode(0, 0);
  std::vector<ProcessId> echoes;
  for (int i = 0; i < 2; ++i) {
    auto echo = net.Spawn(hot, "slow-echo");
    if (echo.ok()) {
      echoes.push_back(*echo);
    }
  }
  const std::vector<NodeId> sources = {Internet::ProcessingNode(0, 1),
                                       Internet::ProcessingNode(1, 0),
                                       Internet::ProcessingNode(1, 1)};
  struct Client {
    NodeId node;
    ProcessId pid;
  };
  std::vector<Client> clients;
  for (size_t i = 0; i < echoes.size(); ++i) {
    for (int j = 0; j < 6; ++j) {
      const NodeId node = sources[(i * 6 + j) % sources.size()];
      auto p = net.Spawn(node, "pinger", {Link{echoes[i], 1, 0, 0}});
      if (p.ok()) {
        clients.push_back(Client{node, *p});
      }
    }
  }

  auto all_done = [&net, &clients]() {
    for (const Client& c : clients) {
      const PingerProgram* p = PingerAt(net, c.node, c.pid);
      if (p == nullptr || !p->done()) {
        return false;
      }
    }
    return true;
  };
  for (int round = 0; round < 240 && !all_done(); ++round) {
    net.RunFor(Seconds(1));
  }
  sampler.Stop();
  sampler.SampleNow();  // Close the timeline on the drained state.
  rig.oracle.CheckQuiescent();

  uint64_t completed = 0;
  for (const Client& c : clients) {
    const PingerProgram* p = PingerAt(net, c.node, c.pid);
    completed += p != nullptr && p->done() ? 1 : 0;
  }

  std::printf("  samples=%llu series=%zu alerts=%zu flight_dumps=%llu\n",
              static_cast<unsigned long long>(sampler.samples()),
              sampler.series().size(), watchdog.alerts().size(),
              static_cast<unsigned long long>(flight.dump_count()));
  for (const HealthAlert& alert : watchdog.alerts()) {
    std::printf("  ALERT %s on %s at %.0f ms (value %.2f, threshold %.2f)\n",
                alert.rule.c_str(), alert.series.c_str(), ToMillis(alert.time),
                alert.value, alert.threshold);
  }

  Gate(completed == clients.size(), "overload: all clients drained");
  Gate(rig.oracle.total_violations() == 0, "overload: oracle clean");
  Gate(!watchdog.alerts().empty(), "overload: watchdog fired >=1 alert");
  Gate(watchdog.breaches("publish_ack_p99") >= 1,
       "overload: publish-ack p99 SLO breached");
  Gate(flight.dump_count() >= 1, "overload: alert dumped the flight recorder");
  Gate(rig.oracle.health_alerts() >= 1, "overload: oracle health section fed");
  Gate(sampler.samples() >= 4, "overload: sampler actually sampled");

  json.Set("overload.completed", static_cast<double>(completed));
  json.Set("overload.samples", static_cast<double>(sampler.samples()));
  json.Set("overload.series", static_cast<double>(sampler.series().size()));
  json.Set("overload.alerts_fired", static_cast<double>(watchdog.alerts().size()));
  json.Set("overload.flight_dumps", static_cast<double>(flight.dump_count()));
  json.Set("overload.oracle_violations",
           static_cast<double>(rig.oracle.total_violations()));
  // The whole timeline + alert log ride along in the byte-diffed artifact:
  // virtual-time numbers only, so two same-seed runs stay identical.
  json.SetRawJson("timeline", sampler.ToJson());
  json.SetRawJson("alerts", watchdog.AlertsJson());
  json.SetEngineStats(net.sim().engine_stats());

  rig.lifecycle.AttachFlightRecorder(nullptr);
}

int RunStudy() {
  BenchJson json("migration");
  std::string oracle_report;
  RunSoak(json, &oracle_report);
  RunCrashClasses(json);
  RunSkewStudy(json);
  RunOverloadStudy(json);
  PrintRule();

  json.Write();
  if (std::FILE* file = std::fopen("migration_oracle_report.json", "wb")) {
    std::fputs(oracle_report.c_str(), file);
    std::fclose(file);
    std::printf("wrote migration_oracle_report.json\n");
  } else {
    std::fprintf(stderr, "bench_migration: cannot write oracle report\n");
    g_failed = true;
  }
  return g_failed ? 1 : 0;
}

// Timing section: wall cost of one live same-segment move under light load.
void BM_LiveMigration(benchmark::State& state) {
  InternetConfig config;
  config.segments = 1;
  config.nodes_per_segment = 2;
  Internet net(config);
  MigrationManager manager(&net);
  manager.Start();
  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  net.RunFor(Millis(10));
  const NodeId nodes[2] = {Internet::ProcessingNode(0, 0),
                           Internet::ProcessingNode(0, 1)};
  size_t flip = 1;
  for (auto _ : state) {
    if (!manager.Migrate(*echo, nodes[flip]).ok()) {
      state.SkipWithError("migrate rejected");
      break;
    }
    while (manager.IsMigrating(*echo)) {
      net.RunFor(MillisF(1.0));
    }
    flip ^= 1;
  }
}
BENCHMARK(BM_LiveMigration);

}  // namespace
}  // namespace publishing

int main(int argc, char** argv) {
  const int status = publishing::RunStudy();
  if (status != 0) {
    return status;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
