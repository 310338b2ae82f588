// Observability: watch a crash and recovery unfold on the virtual clock.
//
// Runs a durable (WAL-backed) publishing system with the full observability
// subsystem attached: every layer — simulator, medium, transport, recorder,
// storage, recovery manager — feeds one MetricsRegistry and one Tracer.
// A worker process is crashed mid-workload; the recovery manager recreates
// it from its checkpoint and replays the log.  The run then dumps
//
//   observability_trace.json    — Chrome trace_event timeline; open it in
//                                 chrome://tracing or https://ui.perfetto.dev
//                                 to see net.transmit spans, transport.rtt
//                                 round trips, recorder.publish costs,
//                                 storage.group_commit windows, and the
//                                 crash → replay → caught-up recovery arc,
//   observability_metrics.json  — the aggregate counters/gauges/histograms,
//   observability_lifecycle.json — the causal per-message lifecycle table
//                                 (sent -> on-wire -> overheard -> published
//                                 -> durable -> delivered -> read, with
//                                 virtual-time latency per stage),
//   observability_flight.json   — the crash flight recorder's dump, taken at
//                                 the injection instant,
//
// and exits nonzero unless the trace actually contains events from all four
// instrumented data-path layers plus the complete recovery timeline, the
// invariant oracle saw zero violations, and at least one message's complete
// lifecycle was captured.
//
//   $ ./observability

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/common/logging.h"
#include "src/core/publishing_system.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/storage/wal.h"
#include "tests/test_programs.h"

using namespace publishing;

namespace {
namespace fs = std::filesystem;

bool Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
  return ok;
}
}  // namespace

int main() {
  SetLogLevel(LogLevel::kInfo);
  const fs::path dir = fs::temp_directory_path() / "pub_example_observability";
  fs::remove_all(dir);

  WalOptions wal_options;
  wal_options.dir = dir.string();
  wal_options.group_commit_records = 8;
  auto wal = Wal::Open(wal_options);
  if (!wal.ok()) {
    std::fprintf(stderr, "wal open failed: %s\n", wal.status().message().c_str());
    return 1;
  }

  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.storage_backend = wal->get();
  PublishingSystem system(config);

  // Attach the observability subsystem.  One registry + one tracer observe
  // every layer; the lifecycle tracker adds the causal per-message view and
  // fans out to the invariant oracle and the crash flight recorder.
  // Detaching (or never attaching) leaves runs bit-identical.
  MetricsRegistry registry;
  Tracer tracer(&system.sim());
  InvariantOracle oracle;
  FlightRecorder flight;
  LifecycleTracker lifecycle(&system.sim());
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

  system.cluster().registry().Register("echo",
                                       [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(60); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto pinger = system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  if (!echo.ok() || !pinger.ok()) {
    std::fprintf(stderr, "spawn failed\n");
    return 1;
  }

  // Let traffic flow, checkpoint the worker, then kill it.
  system.RunFor(Seconds(2));
  (void)system.cluster().kernel(NodeId{2})->CheckpointProcess(*echo);
  system.RunFor(Seconds(1));

  PUB_LOG_INFO("observability: crashing %s", ToString(*echo).c_str());
  if (!system.CrashProcess(*echo).ok()) {
    std::fprintf(stderr, "crash injection failed\n");
    return 1;
  }
  if (!system.RunUntilRecovered(*echo, Seconds(30))) {
    std::fprintf(stderr, "recovery did not complete\n");
    return 1;
  }
  system.RunFor(Seconds(2));

  oracle.CheckQuiescent();

  // Dump the artifacts.  The flight dump was taken at the crash instant; we
  // re-serialize it here for the file artifact.
  if (!tracer.WriteChromeJsonFile("observability_trace.json") ||
      !registry.WriteJsonFile("observability_metrics.json") ||
      !lifecycle.WriteJsonFile("observability_lifecycle.json") ||
      !WriteTextFile("observability_flight.json", flight.last_dump())) {
    std::fprintf(stderr, "cannot write observability artifacts\n");
    return 1;
  }
  std::printf("wrote observability_trace.json (%zu events, %llu dropped)\n", tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()));
  std::printf("wrote observability_metrics.json (%zu instruments)\n", registry.size());
  std::printf("wrote observability_lifecycle.json (%zu messages tracked)\n",
              lifecycle.size());
  std::printf("wrote observability_flight.json (dump %llu, reason: crash_process)\n",
              static_cast<unsigned long long>(flight.dump_count()));
  std::printf("published %llu messages, recovery took the timeline below:\n",
              static_cast<unsigned long long>(
                  registry.GetCounter("recorder.messages_published")->value()));
  std::printf("  crash notice -> recovery.process span -> checkpoint load ->\n");
  std::printf("  recovery.replay span -> recovery.caught_up\n");

  // Self-check: the trace must carry all four data-path layers plus the
  // complete recovery arc, and the metrics must agree a recovery happened.
  bool ok = true;
  ok &= Require(tracer.Contains("net.transmit"), "trace has net layer spans");
  ok &= Require(tracer.Contains("transport.rtt"), "trace has transport layer spans");
  ok &= Require(tracer.Contains("recorder.publish"), "trace has recorder layer spans");
  ok &= Require(tracer.Contains("storage.group_commit"), "trace has storage layer spans");
  ok &= Require(tracer.Contains("recovery.crash_notice"), "trace has the crash notice");
  ok &= Require(tracer.Contains("recovery.checkpoint_loaded"), "trace has checkpoint load");
  ok &= Require(tracer.Contains("recovery.process"), "trace has the recovery span");
  ok &= Require(tracer.Contains("recovery.replay"), "trace has the replay span");
  ok &= Require(tracer.Contains("recovery.caught_up"), "trace has caught-up");
  ok &= Require(registry.GetCounter("recovery.completed")->value() == 1,
                "metrics count one completed recovery");
  ok &= Require(registry.GetCounter("storage.syncs")->value() > 0,
                "metrics saw WAL fsyncs");
  ok &= Require(oracle.total_violations() == 0, "invariant oracle is clean");
  ok &= Require(flight.dump_count() >= 1, "crash dumped the flight recorder");
  ok &= Require(tracer.Contains("msg.lifecycle"), "trace has per-message spans");
  bool full_chain = false;
  for (const LifecycleRecord& rec : lifecycle.SortedRecords()) {
    full_chain = full_chain ||
                 (rec.Saw(LifecycleStage::kSent) && rec.Saw(LifecycleStage::kOnWire) &&
                  rec.Saw(LifecycleStage::kOverheard) &&
                  rec.Saw(LifecycleStage::kPublished) &&
                  rec.Saw(LifecycleStage::kDurable) &&
                  rec.Saw(LifecycleStage::kDelivered) && rec.Saw(LifecycleStage::kRead));
  }
  ok &= Require(full_chain, "a complete message lifecycle was captured");

  fs::remove_all(dir);
  if (!ok) {
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
