// perfbench: the repository benchmark.
//
//   perfbench --workload <lan_steady|internet_population|crash_replay>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Repeats whole passes of the workload (set-up, timed phase, checks) for at
// least `--seconds` of wall time, and at least kMinPasses times.  Every pass
// of one seed must reproduce the first pass's signature byte for byte.
//
// --trace 0 reports the end-to-end metrics: the set-up time (median over
// passes), the throughput (trimmed mean over passes), the seed-determined
// virtual-time latencies, and the process's peak RSS.  Set-up time and
// throughput are in thread CPU time scaled to nominal host speed
// (host_speed.h).
//
// --trace 1 alternates untraced and traced passes (plus, on
// internet_population, passes with the lifecycle tracker and oracle
// detached).  It checks that each traced pass is byte-identical to its
// untraced twin, and reports the per-layer metrics, the tracing overhead and
// the observability overhead.  The spans of the last traced pass are written
// to <work-dir>/spans-<workload>-<seed>.json.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The process exits non-zero if any correctness gate fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinPasses = 3;
constexpr int kMinTracePairs = 2;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kLanSteady;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = ParseWorkload(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Mean of the values left after dropping the lowest and highest tenth.
// Per-pass rates on this kind of host are bimodal (the host runs fast or
// slow for a second or so at a time); the trimmed mean of many passes
// converges where a median would flip between the modes.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  double sum = 0;
  for (size_t i = trim; i < values.size() - trim; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * trim);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}


struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Accumulates passes and the gates that span them.
struct RunState {
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string signature;  // First pass's.

  void Absorb(const PassResult& pass, const char* what) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& error : pass.errors) {
      errors.push_back(error);
    }
    const std::string sig = pass.Signature();
    if (signature.empty()) {
      signature = sig;
    } else if (sig != signature) {
      errors.push_back(std::string(what) + " pass diverged from the first pass:\n--- first\n" +
                       signature + "--- this\n" + sig);
    }
  }
};

// The workload-specific end-to-end values, by the names the documentation
// uses; "n/a" where the workload does not exercise them.
void PrintWorkloadMetrics(const Args& args, const PassResult& pass, double ops_per_s,
                          double rebuild_per_s, const RunState& state) {
  const bool crash = args.workload == Workload::kCrashReplay;
  auto row = [](const char* name, const char* unit, bool applies, double value) {
    if (applies) {
      std::printf("  %-26s %16.6g %s\n", name, value, unit);
    } else {
      std::printf("  %-26s %16s %s\n", name, "n/a", unit);
    }
  };
  const double error_rate =
      state.attempted == 0 ? 0 : static_cast<double>(state.failed) / state.attempted;
  const auto wal = pass.counts.find("wal_bytes_per_user_byte");
  const bool has_wal = args.workload != Workload::kInternetPopulation;
  row("publish_msgs_per_s", "1/s", !crash, ops_per_s);
  row("rtt_ms_p50", "ms", !crash, pass.latency_ms.p50());
  row("rtt_ms_p99", "ms", !crash, pass.latency_ms.p99());
  row("replay_msgs_per_s", "1/s", crash, ops_per_s);
  row("recovery_ms_p50", "ms", crash, pass.latency_ms.p50());
  row("recovery_ms_p99", "ms", crash, pass.latency_ms.p99());
  row("rebuild_records_per_s", "1/s", crash, rebuild_per_s);
  row("error_rate", "ratio", true, error_rate);
  row("wal_bytes_per_user_byte", "ratio", has_wal,
      wal == pass.counts.end() ? 0 : wal->second);
}

void PrintJson(bool correct, const RunState& state, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(state.attempted);
  out += ", \"failed\": " + std::to_string(state.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Every per-layer metric, in report order, with its unit.  Values missing
// from a pass (a layer the workload leaves idle) report 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"sim.events_per_msg", "1/msg"},
      {"sim.run.self_ms", "ms"},
      {"net.frames_per_msg", "1/msg"},
      {"net.wire_bytes_per_msg", "B/msg"},
      {"net.collisions", "count"},
      {"net.frames_vetoed", "count"},
      {"net.queue_delay_ms_p99", "ms"},
      {"net.channel_utilization", "ratio"},
      {"transport.on_frame.calls", "count"},
      {"transport.on_frame.self_ns_per_call", "ns"},
      {"transport.retransmits_per_msg", "1/msg"},
      {"transport.acks_per_msg", "1/msg"},
      {"transport.duplicates_suppressed", "count"},
      {"demos.kernel_cpu_ms_per_msg", "ms/msg"},
      {"demos.replay_accepted", "count"},
      {"demos.live_held_during_recovery", "count"},
      {"demos.sends_suppressed", "count"},
      {"core.recorder.on_wire_frame.calls", "count"},
      {"core.recorder.on_wire_frame.self_ns_per_call", "ns"},
      {"core.recorder.publish_cpu_ms_per_msg", "ms/msg"},
      {"core.recorder.transit_skipped_per_msg", "1/msg"},
      {"core.stable_storage.processes", "count"},
      {"core.stable_storage.peak_bytes", "B"},
      {"core.recovery.round.wall_ms_p50", "ms"},
      {"core.recovery.round.wall_ms_p99", "ms"},
      {"core.recovery.bursts_per_replayed_msg", "1/msg"},
      {"core.recovery.burst_retransmits", "count"},
      {"core.recovery.deferred", "count"},
      {"storage.append.calls_per_msg", "1/msg"},
      {"storage.append.self_ns_per_call", "ns"},
      {"storage.sync.self_ms", "ms"},
      {"storage.tick.self_ms", "ms"},
      {"storage.records_per_sync", "ratio"},
      {"storage.syncs_per_1k_msgs", "1/kmsg"},
      {"storage.compactions", "count"},
      {"storage.compaction_bytes", "B"},
      {"storage.ack_ms_p99", "ms"},
      {"storage.rebuild.wall_ms", "ms"},
      {"storage.rebuild.records", "count"},
      {"storage.rebuild.records_skipped", "count"},
      {"internet.gateway.forwards_per_msg", "1/msg"},
      {"internet.gateway.drops", "count"},
      {"obs.overhead_pct", "%"},
      {"obs.oracle.violations", "count"},
      {"common.buffer.bytes_copied_per_msg", "B/msg"},
      {"app.on_message.self_ns_per_call", "ns"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage_pct", "%"},
      {"publish_msgs_per_s", "1/s"},
      {"rtt_ms_p50", "ms"},
      {"rtt_ms_p99", "ms"},
      {"replay_msgs_per_s", "1/s"},
      {"recovery_ms_p50", "ms"},
      {"recovery_ms_p99", "ms"},
      {"rebuild_records_per_s", "1/s"},
      {"wal_bytes_per_user_byte", "ratio"},
      {"error_rate", "ratio"},
      {"host.speed", "ratio"},
  };
  return kMetrics;
}

int RunEndToEnd(const Args& args) {
  PassOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  RunState state;
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> rebuild_per_s;
  PassResult first;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    Ledger ledger(false);
    PassResult result = RunPass(options, &ledger);
    state.Absorb(result, "untraced");
    setup_s.push_back(result.ref_setup_s());
    ops_per_s.push_back(result.rate());
    rebuild_per_s.push_back(result.rebuild_rate());
    std::fprintf(stderr,
                 "perfbench: pass %d setup %.3f s, timed %.3f s, %llu msgs, probe %.0f us, "
                 "%.0f msgs/s at nominal speed\n",
                 pass, result.setup_s, result.timed_s, static_cast<unsigned long long>(result.ops),
                 result.probe_us, result.rate());
    if (pass == 0) {
      first = std::move(result);
    }
    if (!state.errors.empty()) {
      break;
    }
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (pass + 1 >= kMinPasses && elapsed >= args.seconds) {
      break;
    }
  }
  const bool correct = state.errors.empty() && state.failed == 0;
  for (const std::string& error : state.errors) {
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", error.c_str());
  }
  if (!correct) {
    return 1;
  }
  const double throughput = TrimmedMean(ops_per_s);
  std::printf("perfbench %s seed=%llu passes=%zu\n", args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), setup_s.size());
  PrintWorkloadMetrics(args, first, throughput, TrimmedMean(rebuild_per_s), state);
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"msgs_per_cpu_s", throughput, "1/s"},
      {"latency_ms_p50", first.latency_ms.p50(), "ms"},
      {"latency_ms_p99", first.latency_ms.p99(), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(correct, state, metrics);
  return 0;
}

int RunTraced(const Args& args) {
  PassOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  const bool ablate_obs = args.workload == Workload::kInternetPopulation;
  RunState state;
  std::vector<double> trace_overhead;
  std::vector<double> obs_overhead;
  std::vector<double> ops_per_s;
  std::vector<double> rebuild_per_s;
  std::vector<double> host_speed;
  std::map<std::string, std::vector<double>> wall;
  PassResult traced_first;
  std::unique_ptr<Ledger> last_ledger;
  const auto start = Clock::now();
  for (int pair = 0;; ++pair) {
    Ledger plain_ledger(false);
    options.traced = false;
    options.observe = true;
    PassResult plain = RunPass(options, &plain_ledger);
    state.Absorb(plain, "untraced");

    auto ledger = std::make_unique<Ledger>(false);
    options.traced = true;
    PassResult traced = RunPass(options, ledger.get());
    state.Absorb(traced, "traced");  // Byte-identity with the untraced pass.

    ops_per_s.push_back(plain.rate());
    rebuild_per_s.push_back(plain.rebuild_rate());
    host_speed.push_back(plain.host_speed);
    trace_overhead.push_back(100.0 * (plain.rate() / traced.rate() - 1.0));
    for (const auto& [name, value] : traced.wall) {
      wall[name].push_back(value);
    }
    if (ablate_obs) {
      Ledger bare_ledger(false);
      options.traced = false;
      options.observe = false;
      PassResult bare = RunPass(options, &bare_ledger);
      for (const std::string& error : bare.errors) {
        state.errors.push_back("obs-detached pass: " + error);
      }
      obs_overhead.push_back(100.0 * (bare.rate() / plain.rate() - 1.0));
    }
    if (pair == 0) {
      traced_first = std::move(traced);
    }
    last_ledger = std::move(ledger);
    if (!state.errors.empty()) {
      break;
    }
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (pair + 1 >= kMinTracePairs && elapsed >= args.seconds) {
      break;
    }
  }
  const bool correct = state.errors.empty() && state.failed == 0;
  for (const std::string& error : state.errors) {
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", error.c_str());
  }
  if (!correct) {
    return 1;
  }
  const std::string spans_path = args.work_dir + "/spans-" + args.workload_name + "-" +
                                 std::to_string(args.seed) + ".json";
  if (!last_ledger->WriteJson(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  std::map<std::string, double> values = traced_first.counts;
  for (const auto& [name, samples] : wall) {
    values[name] = Median(samples);
  }
  const bool crash = args.workload == Workload::kCrashReplay;
  const double throughput = TrimmedMean(ops_per_s);
  const double error_rate =
      state.attempted == 0 ? 0 : static_cast<double>(state.failed) / state.attempted;
  values["trace.overhead_pct"] = Median(trace_overhead);
  values["obs.overhead_pct"] = Median(obs_overhead);
  values[crash ? "replay_msgs_per_s" : "publish_msgs_per_s"] = throughput;
  values[crash ? "recovery_ms_p50" : "rtt_ms_p50"] = traced_first.latency_ms.p50();
  values[crash ? "recovery_ms_p99" : "rtt_ms_p99"] = traced_first.latency_ms.p99();
  values["rebuild_records_per_s"] = TrimmedMean(rebuild_per_s);
  values["error_rate"] = error_rate;
  values["host.speed"] = Median(host_speed);

  std::printf("perfbench %s seed=%llu traced pairs=%zu spans=%s (%zu kept)\n",
              args.workload_name.c_str(), static_cast<unsigned long long>(args.seed),
              trace_overhead.size(), spans_path.c_str(), last_ledger->records());
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    std::printf("  %-46s %16.6g %s\n", name, metrics.back().value, unit);
  }
  PrintJson(correct, state, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <lan_steady|internet_population|crash_replay> "
                 "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
