// The three benchmark workloads.  Each RunPass builds the system from
// scratch (the timed set-up), drives a fixed, seed-determined amount of work
// (the timed phase), checks the outputs and tears everything down.  Every
// count and virtual-time value a pass reports is a pure function of the seed,
// so two passes of one seed must produce byte-identical signatures.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/programs.h"

namespace perfbench {

enum class Workload { kLanSteady, kInternetPopulation, kCrashReplay };

bool ParseWorkload(const std::string& name, Workload* out);

struct PassOptions {
  Workload workload = Workload::kLanSteady;
  uint64_t seed = 1;
  // Install the timing taps and record spans during the timed phase.
  bool traced = false;
  // internet_population only: attach the lifecycle tracker and oracle.
  bool observe = true;
  // Scratch directory for WAL segments (created, emptied, removed).
  std::string work_dir;
};

struct PassResult {
  // Thread CPU seconds to build the system and warm it up.
  double setup_s = 0;
  // Thread CPU seconds of the timed phase's operations.
  double timed_s = 0;
  // crash_replay: thread CPU seconds of the rebuilds from the log.
  double rebuild_s = 0;
  // CpuMeter::speed() and probe_us() over the pass.  The times above
  // exclude the probes.
  double host_speed = 1;
  double probe_us = 0;
  // Timed operations: recorder-published messages on the publish workloads,
  // replayed messages on crash_replay.
  uint64_t ops = 0;
  uint64_t attempted = 0;  // Requests, or process recoveries on crash_replay.
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed correctness gates.
  // Virtual: request->reply round trip, or crash->recovered on crash_replay.
  Samples latency_ms;
  // Counts and virtual-time values; deterministic per seed.
  std::map<std::string, double> counts;
  // Wall-clock values from the taps; traced passes only.
  std::map<std::string, double> wall;
  // Set-up CPU seconds at nominal host speed.
  double ref_setup_s() const { return setup_s * host_speed; }
  // Timed operations per CPU second at nominal host speed.
  double rate() const { return static_cast<double>(ops) / (timed_s * host_speed); }
  // crash_replay: records applied per CPU second at nominal host speed by
  // the rebuilds.
  double rebuild_rate() const;

  // Every count and virtual-time value in one string.
  std::string Signature() const;
};

PassResult RunPass(const PassOptions& options, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
