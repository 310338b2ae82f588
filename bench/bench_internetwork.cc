// Internetwork scaling study (DESIGN.md §13): users vs segments.
//
// A single recorder saturates around 115 users (bench_users_capacity); the
// multi-segment internetwork shards that responsibility, so aggregate
// capacity should scale with the segment count while per-conversation latency
// stays near the single-segment baseline (cross-segment pairs pay the
// gateway hops).  This bench sweeps a ring internetwork at 1/2/4/8 segments
// with a fixed per-segment population, drives every user to completion, and
// reports the publish-ack latency distribution (virtual time from first send
// to the end-to-end acknowledgement) per sweep point, with the invariant
// oracle watching every lifecycle transition.
//
// The per-segment population is no longer hard-coded: the paper's queueing
// model (src/queueing capacity search) seeds a single-segment probe run, and
// the probe's measured recorder saturation scales the population to a fixed
// saturation budget.  Both the model figure and the measured correction are
// emitted so the sweep is self-describing.
//
// Emits BENCH_internetwork.json (flat, deterministic: virtual-time numbers
// only, so two same-seed runs produce byte-identical files — CI diffs them;
// the largest sweep point additionally embeds its telemetry `timeline` and
// watchdog `alerts` sections, sampled in virtual time and therefore equally
// byte-identical) plus internetwork_oracle_report.json (the largest sweep
// point's oracle report).  Exits non-zero if any conversation stalls, any
// invariant trips, or a multi-segment point never crosses a gateway.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/internet/internet.h"
#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/obs/timeline.h"
#include "src/obs/watchdog.h"
#include "src/queueing/simulation.h"
#include "src/sim/parallel.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

constexpr size_t kNodesPerSegment = 8;
constexpr uint64_t kPingsPerUser = 2;
constexpr size_t kWaves = 10;
// Population ceiling (the old hard-coded sweep size) and the recorder
// publish-saturation budget the calibrated population aims for.  The budget
// matches the saturation the old fixed 2,500-user sweep actually measured, so
// the calibrated population lands in the same regime without inheriting the
// magic number.
constexpr size_t kMaxUsersPerSegment = 2500;
constexpr double kTargetSaturation = 0.15;

struct SweepResult {
  size_t segments = 0;
  size_t users = 0;
  size_t completed = 0;
  uint64_t messages = 0;
  uint64_t forwarded = 0;
  uint64_t gateway_drops = 0;
  uint64_t violations = 0;
  StatAccumulator publish_ack_ms;
  // Per-segment recorder saturation: publish CPU consumed by the segment's
  // recorder divided by elapsed virtual time.  The sharding claim in one
  // number — adding segments should keep every entry near the single-segment
  // value instead of concentrating it.
  std::vector<double> segment_saturation;
  std::string oracle_report;
  uint64_t events_executed = 0;
  uint64_t handoffs = 0;
  // Telemetry timeline + watchdog verdict (with_timeline points only).
  std::string timeline_json;
  std::string alerts_json;
  uint64_t alerts = 0;
};

// `with_timeline` attaches a metrics registry with a TelemetrySampler and
// HealthWatchdog to the run.
SweepResult RunSweepPoint(size_t segments, size_t users_per_segment,
                          bool with_timeline = false) {
  InternetConfig config;
  config.segments = segments;
  config.nodes_per_segment = kNodesPerSegment;
  config.seed = 7;
  // No faults in this study, so the only retransmission trigger would be
  // queueing delay itself; push the timer far past any backlog a 2500-user
  // segment can build, or retransmit storms poison the latency numbers.
  config.kernel.transport.retransmit_timeout = Seconds(60);
  config.kernel.transport.max_retransmit_timeout = Seconds(120);
  // Headroom over the default 64-frame queue: wave fronts of cross-segment
  // conversations arrive in bursts.
  config.gateway.max_queue_frames = 256;
  config.gateway.max_queue_bytes = 1024 * 1024;
  // No crashes: keep the recovery machinery out of the traffic.
  config.start_recovery_managers = false;

  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  MetricsRegistry metrics;  // Outlives `net` so detach order never dangles.
  Internet net(config);
  LifecycleTracker lifecycle(&net.sim(), /*max_messages=*/1 << 18);
  lifecycle.AttachOracle(&oracle);
  Observability obs;
  obs.lifecycle = &lifecycle;
  if (with_timeline) {
    obs.metrics = &metrics;
  }
  net.EnableObservability(obs);

  std::unique_ptr<TelemetrySampler> sampler;
  std::unique_ptr<HealthWatchdog> watchdog;
  if (with_timeline) {
    TimelineConfig tc;
    tc.interval = Seconds(1);
    tc.capacity = 512;
    // The dashboard set: engine occupancy, gateway egress, recorder load,
    // publish-ack latency, scheduler depth, WAL commit queue.  kernel.* is
    // omitted — 64 per-node series would dominate the artifact.
    tc.include_prefixes = {"engine.",   "gateway.", "recorder.",
                           "transport.", "sim.",     "storage."};
    sampler = std::make_unique<TelemetrySampler>(&net.sim(), &metrics, tc);
    watchdog = std::make_unique<HealthWatchdog>(sampler.get());
    // Study-specific SLOs: a calibrated 15%-saturation sweep should breach
    // none of these, and a breach is a real regression.  The flatline
    // starvation rule is deliberately absent — the post-completion drain
    // tail flatlines every domain by design.
    watchdog->AddRule({.name = "publish_ack_p99",
                       .series = "transport.ack_latency_ms.p99",
                       .kind = SloRuleKind::kCeiling,
                       .threshold = 1000.0,
                       .windows = 2});
    watchdog->AddRule({.name = "recorder_saturation",
                       .series = "recorder.publish_cpu_ms*",
                       .kind = SloRuleKind::kRateCeiling,
                       .threshold = 0.9,
                       .windows = 3});
    watchdog->AddRule({.name = "scheduler_queue_growth",
                       .series = "sim.queue_depth",
                       .kind = SloRuleKind::kSustainedGrowth,
                       .threshold = 4096.0,
                       .windows = 6});
    watchdog->AttachOracle(&oracle);
    sampler->Start();
  }

  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(kPingsPerUser); });

  // One echo server per node; pingers link to them.
  std::vector<std::vector<ProcessId>> echoes(segments);
  for (size_t s = 0; s < segments; ++s) {
    for (size_t n = 0; n < kNodesPerSegment; ++n) {
      auto echo = net.Spawn(Internet::ProcessingNode(s, n), "echo");
      if (!echo.ok()) {
        std::fprintf(stderr, "bench_internetwork: spawn echo failed: %s\n",
                     echo.status().ToString().c_str());
        std::exit(1);
      }
      echoes[s].push_back(*echo);
    }
  }

  // Users arrive in waves (staggered start keeps the first-wave burst from
  // overstating queueing).  User i on segment s lives on node i % 8 and
  // talks to an echo one node over; every fourth user talks to the next
  // segment around the ring instead (25% cross-segment traffic).
  struct User {
    ProcessId pid;
    NodeId node;
  };
  std::vector<User> users;
  users.reserve(segments * users_per_segment);
  const size_t per_wave = users_per_segment / kWaves;
  for (size_t wave = 0; wave < kWaves; ++wave) {
    for (size_t s = 0; s < segments; ++s) {
      for (size_t j = 0; j < per_wave; ++j) {
        const size_t i = wave * per_wave + j;
        const NodeId home = Internet::ProcessingNode(s, i % kNodesPerSegment);
        const bool cross = segments > 1 && i % 4 == 0;
        const size_t target_segment = cross ? (s + 1) % segments : s;
        const ProcessId& echo =
            echoes[target_segment][(i + 1) % kNodesPerSegment];
        auto pinger = net.Spawn(home, "pinger", {Link{echo, 1, 0, 0}});
        if (!pinger.ok()) {
          std::fprintf(stderr, "bench_internetwork: spawn pinger failed: %s\n",
                       pinger.status().ToString().c_str());
          std::exit(1);
        }
        users.push_back(User{*pinger, home});
      }
    }
    net.RunFor(Seconds(5));
  }

  // Drive to completion: every user must see all its pongs.
  auto all_done = [&net, &users]() {
    for (const User& user : users) {
      const auto* p =
          dynamic_cast<const PingerProgram*>(net.kernel(user.node)->ProgramFor(user.pid));
      if (p == nullptr || !p->done()) {
        return false;
      }
    }
    return true;
  };
  for (size_t round = 0; round < 40 && !all_done(); ++round) {
    net.RunFor(Seconds(30));
  }

  SweepResult result;
  result.segments = segments;
  result.users = users.size();
  for (const User& user : users) {
    const auto* p =
        dynamic_cast<const PingerProgram*>(net.kernel(user.node)->ProgramFor(user.pid));
    if (p != nullptr && p->done()) {
      ++result.completed;
    }
  }
  for (size_t g = 0; g < net.gateway_count(); ++g) {
    result.forwarded += net.gateway(g).stats().frames_forwarded;
    result.gateway_drops += net.gateway(g).stats().dropped_queue_full +
                            net.gateway(g).stats().dropped_down;
  }
  // Publish-ack latency per guaranteed data message: first send to the
  // end-to-end acknowledgement, in virtual ms.
  for (const LifecycleRecord& record : lifecycle.SortedRecords()) {
    if ((record.flags & kCausalGuaranteed) == 0 ||
        (record.flags & kCausalControl) != 0) {
      continue;
    }
    const SimTime sent = record.FirstTime(LifecycleStage::kSent);
    const SimTime acked = record.FirstTime(LifecycleStage::kAcked);
    if (sent >= 0 && acked >= 0) {
      result.publish_ack_ms.Add(ToMillis(acked - sent));
    }
    ++result.messages;
  }
  const double elapsed_ms = ToMillis(net.sim().Now());
  for (size_t s = 0; s < segments; ++s) {
    const double publish_ms = ToMillis(net.recorder(s).stats().publish_cpu);
    result.segment_saturation.push_back(elapsed_ms > 0 ? publish_ms / elapsed_ms : 0.0);
  }
  if (sampler != nullptr) {
    sampler->Stop();
    sampler->SampleNow();  // Close the timeline on the quiescent state.
    result.timeline_json = sampler->ToJson();
    result.alerts_json = watchdog->AlertsJson();
    result.alerts = watchdog->alerts().size();
  }
  oracle.CheckQuiescent();
  result.violations = oracle.total_violations();
  result.oracle_report = oracle.ReportJson();
  const auto& engine = net.sim().core().engine_stats();
  result.events_executed = engine.events_executed;
  result.handoffs = engine.handoffs;
  net.EnableObservability(Observability{});
  return result;
}

// ---------------------------------------------------------------------------
// Capacity calibration (replaces the hard-coded 2,500 users per segment)
// ---------------------------------------------------------------------------

struct Calibration {
  double model_users = 0;       // Queueing model's per-recorder capacity.
  size_t probe_users = 0;       // Population the probe actually simulated.
  double probe_saturation = 0;  // Measured recorder saturation at that load.
  size_t users_per_segment = 0; // Derived sweep population.
};

// Seeds a single-segment probe with the paper's analytic capacity (the §6
// queueing model's "up to 115 users"), measures the recorder saturation that
// population actually produces under this bench's wave workload, and scales
// the population linearly to the target saturation budget.  Everything here
// is virtual time, so the derived count is deterministic — same on every
// machine.
Calibration CalibrateUsersPerSegment() {
  Calibration cal;
  QueueingConfig qc;
  qc.op = StandardOperatingPoints()[0];
  const CapacityEstimate capacity = EstimateCapacity(qc);
  cal.model_users = capacity.max_users;
  // The model's steady-state users map to many wave users (each sends only
  // kPingsPerUser pings, then leaves); probe with a wave population an order
  // of magnitude past the model figure to get measurable saturation.
  cal.probe_users = static_cast<size_t>(capacity.max_users) * 4;
  cal.probe_users -= cal.probe_users % kWaves;
  SweepResult probe = RunSweepPoint(1, cal.probe_users);
  double sat = 0.0;
  for (double s : probe.segment_saturation) {
    sat = std::max(sat, s);
  }
  cal.probe_saturation = sat;
  size_t derived = sat > 0.0
      ? static_cast<size_t>(static_cast<double>(cal.probe_users) * kTargetSaturation / sat)
      : kMaxUsersPerSegment;
  derived = std::clamp(derived, kWaves * 10, kMaxUsersPerSegment);
  derived -= derived % kWaves;
  cal.users_per_segment = derived;
  return cal;
}

int RunStudy(const Calibration& cal) {
  BenchJson json("internetwork");
  PrintHeader("Internetwork scaling: users vs segments (ring topology)");

  std::printf("  calibration: model capacity %.0f users; probe %zu users -> "
              "%.1f%% recorder saturation; sweep uses %zu users/segment "
              "(%.0f%% budget)\n",
              cal.model_users, cal.probe_users, cal.probe_saturation * 100.0,
              cal.users_per_segment, kTargetSaturation * 100.0);
  json.Set("calibration.model_users", cal.model_users);
  json.Set("calibration.probe_users", static_cast<double>(cal.probe_users));
  json.Set("calibration.probe_saturation", cal.probe_saturation);
  json.Set("calibration.users_per_segment",
           static_cast<double>(cal.users_per_segment));

  std::printf("  %8s | %7s %9s | %9s %9s | %8s %6s | %7s\n", "segments", "users",
              "messages", "p50 ms", "p99 ms", "forwards", "drops", "sat max");
  PrintRule();

  bool failed = false;
  std::string largest_report;
  for (size_t segments : {1, 2, 4, 8}) {
    // The largest point also carries the telemetry timeline + watchdog.
    const bool with_timeline = segments == 8;
    SweepResult r = RunSweepPoint(segments, cal.users_per_segment, with_timeline);
    double sat_max = 0.0;
    for (double sat : r.segment_saturation) {
      sat_max = std::max(sat_max, sat);
    }
    std::printf("  %8zu | %7zu %9llu | %9.2f %9.2f | %8llu %6llu | %6.1f%%%s\n",
                r.segments, r.users, static_cast<unsigned long long>(r.messages),
                r.publish_ack_ms.p50(), r.publish_ack_ms.p99(),
                static_cast<unsigned long long>(r.forwarded),
                static_cast<unsigned long long>(r.gateway_drops), sat_max * 100.0,
                r.violations != 0 ? "  <- ORACLE VIOLATIONS" : "");

    const std::string prefix = "s" + std::to_string(r.segments) + ".";
    json.Set(prefix + "segments", static_cast<double>(r.segments));
    json.Set(prefix + "users", static_cast<double>(r.users));
    json.Set(prefix + "completed", static_cast<double>(r.completed));
    json.Set(prefix + "messages", static_cast<double>(r.messages));
    json.Set(prefix + "forwarded_frames", static_cast<double>(r.forwarded));
    json.Set(prefix + "gateway_drops", static_cast<double>(r.gateway_drops));
    json.Set(prefix + "oracle_violations", static_cast<double>(r.violations));
    json.SetStats(prefix + "publish_ack_ms.", r.publish_ack_ms);
    json.Set(prefix + "saturation_max", sat_max);
    json.Set(prefix + "engine.events_executed",
             static_cast<double>(r.events_executed));
    json.Set(prefix + "engine.handoffs", static_cast<double>(r.handoffs));
    if (with_timeline) {
      json.SetRawJson("timeline", r.timeline_json);
      json.SetRawJson("alerts", r.alerts_json);
      json.Set("alerts_fired", static_cast<double>(r.alerts));
      std::printf("  timeline: %zu-segment point sampled; %llu watchdog "
                  "alert(s)\n",
                  r.segments, static_cast<unsigned long long>(r.alerts));
      if (r.alerts != 0) {
        std::fprintf(stderr,
                     "bench_internetwork: watchdog fired %llu alert(s) on the "
                     "calibrated sweep:\n%s\n",
                     static_cast<unsigned long long>(r.alerts),
                     r.alerts_json.c_str());
        failed = true;
      }
    }
    for (size_t seg = 0; seg < r.segment_saturation.size(); ++seg) {
      json.Set(prefix + "seg" + std::to_string(seg) + ".saturation",
               r.segment_saturation[seg]);
    }

    if (r.completed != r.users) {
      std::fprintf(stderr,
                   "bench_internetwork: %zu segments: only %zu/%zu users completed\n",
                   r.segments, r.completed, r.users);
      failed = true;
    }
    if (r.violations != 0) {
      std::fprintf(stderr, "bench_internetwork: %zu segments: oracle report:\n%s\n",
                   r.segments, r.oracle_report.c_str());
      failed = true;
    }
    if (r.segments > 1 && r.forwarded == 0) {
      std::fprintf(stderr,
                   "bench_internetwork: %zu segments but no gateway traffic\n",
                   r.segments);
      failed = true;
    }
    largest_report = r.oracle_report;
  }
  PrintRule();
  std::printf("  per-segment population calibrated at %zu users; aggregate\n"
              "  capacity scales with segments while the recorder on each\n"
              "  segment only ever publishes its home traffic.\n\n",
              cal.users_per_segment);

  json.Write();
  if (std::FILE* file = std::fopen("internetwork_oracle_report.json", "wb")) {
    std::fputs(largest_report.c_str(), file);
    std::fclose(file);
    std::printf("wrote internetwork_oracle_report.json\n");
  } else {
    std::fprintf(stderr, "bench_internetwork: cannot write oracle report\n");
    failed = true;
  }
  return failed ? 1 : 0;
}

// Timing section: the steady-state cost of one cross-segment conversation on
// a small ring, per ping round-trip.
void BM_CrossSegmentPingPong(benchmark::State& state) {
  InternetConfig config;
  config.segments = 2;
  config.nodes_per_segment = 1;
  config.kernel.transport.retransmit_timeout = Seconds(60);
  Internet net(config);
  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(1u << 30); });
  auto echo = net.Spawn(Internet::ProcessingNode(1, 0), "echo");
  auto pinger = net.Spawn(Internet::ProcessingNode(0, 0), "pinger",
                          {Link{*echo, 1, 0, 0}});
  const NodeId home = Internet::ProcessingNode(0, 0);
  const auto* p =
      dynamic_cast<const PingerProgram*>(net.kernel(home)->ProgramFor(*pinger));
  uint64_t last = p->received();
  for (auto _ : state) {
    while (p->received() == last) {
      net.RunFor(Millis(1));
    }
    last = p->received();
  }
}
BENCHMARK(BM_CrossSegmentPingPong);

}  // namespace
}  // namespace publishing

int main(int argc, char** argv) {
  const publishing::Calibration cal = publishing::CalibrateUsersPerSegment();
  const int status = publishing::RunStudy(cal);
  if (status != 0) {
    return status;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
