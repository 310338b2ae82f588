// Shared table-printing helpers for the reproduction benches.  Each bench
// binary prints the paper-style table(s) it regenerates, then runs its
// google-benchmark timing section.  BenchJson additionally persists headline
// numbers as BENCH_<name>.json in the working directory, so CI and plotting
// scripts can diff runs without scraping the tables.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace publishing {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Machine-readable bench output: collect named scalar results, then write
// them as a flat JSON object to BENCH_<name>.json.  Keys serialize in sorted
// (map) order, so identical results produce identical files.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value) { values_[key] = value; }

  // Attaches a pre-serialized JSON value (object or array) under `key` —
  // the `timeline` and `alerts` sections.  The caller guarantees it is valid
  // deterministic JSON; it is emitted verbatim after the scalar keys, in
  // sorted key order.
  void SetRawJson(const std::string& key, std::string json) {
    raw_[key] = std::move(json);
  }

  // The engine's introspection counters as first-class bench keys.
  void SetEngineStats(const Simulator::EngineStats& stats) {
    Set("engine.events_executed", static_cast<double>(stats.events_executed));
    Set("engine.handoffs", static_cast<double>(stats.handoffs));
  }

  // Expands one sample distribution into the standard summary keys
  // (`<prefix>count`, `sum`, `mean`, `min`, `max`, `p50`, `p99`), matching
  // the stats shape the metrics registry exports — one schema for both.
  void SetStats(const std::string& prefix, const StatAccumulator& stats) {
    Set(prefix + "count", static_cast<double>(stats.count()));
    Set(prefix + "sum", stats.sum());
    Set(prefix + "mean", stats.mean());
    Set(prefix + "min", stats.min());
    Set(prefix + "max", stats.max());
    Set(prefix + "p50", stats.p50());
    Set(prefix + "p99", stats.p99());
  }

  // Writes BENCH_<name>.json into the current directory.  Returns false (and
  // complains on stderr) if the file cannot be written.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(file, "{\n  \"bench\": \"%s\"", name_.c_str());
    for (const auto& [key, value] : values_) {
      if (std::isnan(value) || std::isinf(value)) {
        std::fprintf(file, ",\n  \"%s\": 0", key.c_str());
      } else if (value == static_cast<double>(static_cast<long long>(value))) {
        std::fprintf(file, ",\n  \"%s\": %lld", key.c_str(),
                     static_cast<long long>(value));
      } else {
        std::fprintf(file, ",\n  \"%s\": %.17g", key.c_str(), value);
      }
    }
    for (const auto& [key, json] : raw_) {
      std::fprintf(file, ",\n  \"%s\": %s", key.c_str(), json.c_str());
    }
    std::fprintf(file, "\n}\n");
    std::fclose(file);
    std::printf("wrote %s (%zu values)\n", path.c_str(), values_.size() + raw_.size());
    return true;
  }

 private:
  std::string name_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> raw_;
};

}  // namespace publishing

#endif  // BENCH_BENCH_UTIL_H_
