// Hot-path microbenchmarks for the zero-copy + event-loop rewrite.
//
// Measures, and persists to BENCH_hot_path.json:
//   - raw simulator event throughput (events/sec) of the slab/intrusive-heap
//     queue on the schedule/fire/cancel mix the transport layer actually
//     generates;
//   - end-to-end wall-clock ns per delivered frame on the full stack
//     (ping-pong over the acknowledging ethernet with the recorder
//     publishing every message);
//   - bytes physically copied and logically shared per published message on
//     a fault-free run (the zero-copy acceptance criterion: copied == 0);
//   - link-layer CRC computations per frame sent on that run (the
//     verify-once criterion: exactly 1, at LinkWrap; every receiver's
//     LinkUnwrap of the sealed payload skips it);
//   - recorder publish-path saturation: how many overheard messages per
//     wall-clock second the record-and-append path absorbs.
//
// The binary exits non-zero if the determinism self-check fails (two
// identical instrumented runs must serialize byte-identical metrics), if a
// fault-free run copies payload bytes, or if it computes other than one
// link CRC per frame, so CI can gate on all three.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/common/buffer.h"
#include "src/core/publishing_system.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Event churn workload: the mix the transport layer generates.  kChains
// self-rescheduling handler chains (delivery -> next delivery), and per
// firing one retransmission timer that is armed and then cancelled by the
// "ack".  Handler captures are sized like real ones (header-ish payload),
// within SimCallback's inline budget.
// ---------------------------------------------------------------------------

struct HandlerContext {
  uint64_t src = 0;
  uint64_t dst = 0;
  uint64_t sequence = 0;
  uint64_t attempt = 0;
};

struct ChurnDriver {
  Simulator* sim;
  uint64_t limit = 0;
  uint64_t fired = 0;

  void Fire(HandlerContext ctx) {
    ++fired;
    // Retransmission timer: armed on send, cancelled when the ack arrives.
    EventId timer = sim->ScheduleAfter(Millis(250), [ctx] {
      benchmark::DoNotOptimize(ctx.sequence);
    });
    sim->Cancel(timer);
    if (fired + sim->pending_events() < limit) {
      ctx.sequence += 1;
      sim->ScheduleAfter(Millis(3) + static_cast<SimDuration>(ctx.src % 7),
                         [this, ctx] { Fire(ctx); });
    }
  }
};

double MeasureEventsPerSec(uint64_t total_events) {
  Simulator sim;
  ChurnDriver driver{&sim, total_events};
  constexpr uint64_t kChains = 64;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kChains; ++i) {
    HandlerContext ctx{i, i ^ 1, 0, 0};
    sim.ScheduleAfter(static_cast<SimDuration>(i), [&driver, ctx] { driver.Fire(ctx); });
  }
  sim.Run();
  const double elapsed = SecondsSince(start);
  // Every firing also scheduled + cancelled a timer; count both sides of
  // that work as events processed.
  const double events = static_cast<double>(driver.fired) * 2.0;
  return events / elapsed;
}

void RunEventThroughput(BenchJson& json) {
  PrintHeader("Simulator event throughput: slab heap");
  constexpr uint64_t kEvents = 2'000'000;
  // Keep the best of 3 to shake out allocator warmup noise.
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    best = std::max(best, MeasureEventsPerSec(kEvents));
  }
  std::printf("  slab heap    : %12.0f events/sec\n", best);
  json.Set("events_per_sec_new", best);
}

// ---------------------------------------------------------------------------
// Full-stack frame path + zero-copy accounting.
// ---------------------------------------------------------------------------

struct FrameRun {
  double wall_seconds = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t messages_published = 0;
  BufferStats buffers;
};

// Frames the transport endpoints (every node's kernel and the recorder) have
// handed to the medium: each one is exactly one LinkWrap.
uint64_t FramesSent(PublishingSystem& system) {
  uint64_t frames = 0;
  auto add = [&frames](const TransportStats& stats) {
    frames += stats.data_sent + stats.acks_sent;
  };
  for (NodeId node : system.cluster().node_ids()) {
    add(system.cluster().kernel(node)->endpoint().stats());
  }
  add(system.recorder().endpoint().stats());
  return frames;
}

FrameRun RunFramePath(uint64_t pings) {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register(
      "pinger", [pings] { return std::make_unique<PingerProgram>(pings); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});

  ResetBufferStats();
  const uint64_t frames_before = FramesSent(system);
  const auto start = std::chrono::steady_clock::now();
  // Step until every ping has been overheard and published (the recovery
  // manager's watchdogs re-arm forever, so the queue never drains on its own).
  while (system.recorder().stats().messages_published < pings && system.sim().Step()) {
  }
  FrameRun run;
  run.wall_seconds = SecondsSince(start);
  run.buffers = GetBufferStats();
  run.frames_sent = FramesSent(system) - frames_before;
  run.frames_delivered = system.cluster().medium().stats().frames_delivered;
  run.messages_published = system.recorder().stats().messages_published;
  return run;
}

void RunFramePathBench(BenchJson& json) {
  PrintHeader("End-to-end frame path (ping-pong, recorder publishing, no faults)");
  const FrameRun run = RunFramePath(/*pings=*/5000);
  const double ns_per_frame =
      run.wall_seconds * 1e9 / static_cast<double>(run.frames_delivered);
  const double copied_per_msg = static_cast<double>(run.buffers.bytes_copied) /
                                static_cast<double>(run.messages_published);
  const double shared_per_msg = static_cast<double>(run.buffers.bytes_shared) /
                                static_cast<double>(run.messages_published);
  std::printf("  frames delivered      : %llu\n",
              static_cast<unsigned long long>(run.frames_delivered));
  std::printf("  messages published    : %llu\n",
              static_cast<unsigned long long>(run.messages_published));
  std::printf("  wall ns/frame         : %.0f\n", ns_per_frame);
  std::printf("  payload bytes copied  : %llu (%.1f per published message)\n",
              static_cast<unsigned long long>(run.buffers.bytes_copied), copied_per_msg);
  std::printf("  payload bytes shared  : %llu (%.1f per published message)\n",
              static_cast<unsigned long long>(run.buffers.bytes_shared), shared_per_msg);
  json.Set("frames_delivered", static_cast<double>(run.frames_delivered));
  json.Set("ns_per_frame", ns_per_frame);
  json.Set("bytes_copied_per_published_message", copied_per_msg);
  json.Set("bytes_shared_per_published_message", shared_per_msg);
  if (run.buffers.bytes_copied != 0) {
    std::fprintf(stderr,
                 "hot_path: FAIL — %llu payload bytes copied on a fault-free "
                 "publish path (expected 0)\n",
                 static_cast<unsigned long long>(run.buffers.bytes_copied));
    std::exit(1);
  }
  std::printf("  zero-copy check       : PASS (0 bytes copied outside faults/disk)\n");

  const double crcs_per_frame =
      static_cast<double>(run.buffers.link_crcs) / static_cast<double>(run.frames_sent);
  std::printf("  link CRCs computed    : %llu for %llu frames sent (%.3f per frame)\n",
              static_cast<unsigned long long>(run.buffers.link_crcs),
              static_cast<unsigned long long>(run.frames_sent), crcs_per_frame);
  json.Set("link_crcs_per_frame", crcs_per_frame);
  if (run.buffers.link_crcs != run.frames_sent) {
    std::fprintf(stderr,
                 "hot_path: FAIL — %.3f link CRCs per frame on a fault-free path "
                 "(expected exactly 1: LinkWrap computes it, sealed unwraps reuse it)\n",
                 crcs_per_frame);
    std::exit(1);
  }
  std::printf("  verify-once check     : PASS (1 CRC per frame)\n");
}

// ---------------------------------------------------------------------------
// Recorder saturation: overheard message rate the record-and-append path
// absorbs, measured by driving RecordParsedPacket directly.
// ---------------------------------------------------------------------------

void RunRecorderSaturation(BenchJson& json) {
  PrintHeader("Recorder publish-path saturation (direct overhear feed)");
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);

  Packet packet;
  packet.header.src_process = ProcessId{NodeId{1}, 7};
  packet.header.dst_process = ProcessId{NodeId{2}, 9};
  packet.header.src_node = NodeId{1};
  packet.header.dst_node = NodeId{2};
  packet.header.flags = kFlagGuaranteed;
  packet.body = Bytes(128, 0xAB);

  constexpr uint64_t kMessages = 200'000;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t seq = 1; seq <= kMessages; ++seq) {
    packet.header.id = MessageId{packet.header.src_process, seq};
    Buffer wire{SerializePacket(packet)};
    if (!system.recorder().RecordParsedPacket(packet.header, wire)) {
      std::fprintf(stderr, "hot_path: recorder refused message %llu\n",
                   static_cast<unsigned long long>(seq));
      std::exit(1);
    }
  }
  const double elapsed = SecondsSince(start);
  const double rate = static_cast<double>(kMessages) / elapsed;
  std::printf("  %llu messages recorded in %.2f s  ->  %.0f msgs/sec saturation\n",
              static_cast<unsigned long long>(kMessages), elapsed, rate);
  json.Set("recorder_saturation_msgs_per_sec", rate);
}

// ---------------------------------------------------------------------------
// Determinism self-check: two identical instrumented runs (including a crash
// and recovery) must serialize byte-identical metrics.
// ---------------------------------------------------------------------------

std::string InstrumentedMetricsSnapshot() {
  MetricsRegistry registry;
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  PublishingSystem system(config);
  Observability obs;
  obs.metrics = &registry;
  system.EnableObservability(obs);
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(50); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Seconds(2));
  if (!system.CrashProcess(*echo).ok() || !system.RunUntilRecovered(*echo, Seconds(30))) {
    std::fprintf(stderr, "hot_path: determinism run failed to recover\n");
    std::exit(1);
  }
  system.RunFor(Seconds(1));
  return registry.ToJson();
}

void RunDeterminismCheck(BenchJson& json) {
  PrintHeader("Determinism self-check");
  const std::string a = InstrumentedMetricsSnapshot();
  const std::string b = InstrumentedMetricsSnapshot();
  if (a != b) {
    std::fprintf(stderr,
                 "hot_path: FAIL — identical seeds produced different metrics "
                 "snapshots (%zu vs %zu bytes)\n",
                 a.size(), b.size());
    std::exit(1);
  }
  std::printf("  two instrumented crash/recovery runs: metrics byte-identical  PASS\n");
  json.Set("determinism_ok", 1.0);
}

// ---------------------------------------------------------------------------
// google-benchmark timing sections for iterating on the hot path.
// ---------------------------------------------------------------------------

void BM_EventChurnSlabHeap(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    ChurnDriver driver{&sim, 100'000};
    sim.ScheduleAfter(0, [&driver] { driver.Fire(HandlerContext{}); });
    sim.Run();
    benchmark::DoNotOptimize(driver.fired);
  }
}
BENCHMARK(BM_EventChurnSlabHeap)->Unit(benchmark::kMillisecond);

void BM_PingPongThousand(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunFramePath(1000));
  }
}
BENCHMARK(BM_PingPongThousand)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace publishing

int main(int argc, char** argv) {
  publishing::BenchJson json("hot_path");
  publishing::RunEventThroughput(json);
  publishing::RunFramePathBench(json);
  publishing::RunRecorderSaturation(json);
  publishing::RunDeterminismCheck(json);
  json.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
