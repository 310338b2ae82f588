#include "perfbench/host_speed.h"

#include <time.h>

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// The probe's time at nominal speed: about its typical time on the 4-vCPU
// host the benchmark was tuned on (see README.md).  Only the ratio to the
// measured time matters; the constant fixes the scale the reported times
// are in.
constexpr double kProbeNominalS = 460e-6;

constexpr int kProbeSteps = 2000;  // Timed work per probe.
constexpr uint32_t kKeys = 4096;   // Entries in each map.
constexpr uint32_t kEvents = 256;  // Pending events in the heap.

// The probe's state: an ordered map and a hash map with fixed keys, and a
// binary heap of timer events, about 300 KB allocated once.  A probe only
// reads and updates them, so it never allocates and does the same work every
// time, whatever the program has done to the heap.
class ProbeState {
 public:
  ProbeState() {
    table_.reserve(kKeys);
    for (uint32_t k = 0; k < kKeys; ++k) {
      tree_[k * 2654435761u] = k;
      table_[k * 40503u] = k;
    }
    for (uint32_t i = 0; i < kEvents; ++i) {
      events_.emplace_back(Next() % 1000, i);
    }
    std::make_heap(events_.begin(), events_.end(), std::greater<>());
  }

  // Reads every entry, so the timed steps that follow find the working set
  // in cache, whatever the program evicted since the last probe.
  uint64_t Warm() const {
    uint64_t sum = 0;
    for (const auto& [key, value] : tree_) {
      sum += key ^ value;
    }
    for (const auto& [key, value] : table_) {
      sum += key ^ value;
    }
    for (const auto& [time, id] : events_) {
      sum += time ^ id;
    }
    return sum;
  }

  // Runs `steps` steps of an event loop: pop the earliest event, look up
  // and update state keyed by it, schedule it again.
  uint64_t Run(int steps) {
    uint64_t sum = 0;
    for (int i = 0; i < steps; ++i) {
      std::pop_heap(events_.begin(), events_.end(), std::greater<>());
      std::pair<uint64_t, uint32_t>& event = events_.back();
      const uint64_t r = Next();
      const auto node = tree_.lower_bound(static_cast<uint32_t>(r >> 32));
      if (node != tree_.end()) {
        node->second += event.first;
      }
      const auto entry = table_.find(static_cast<uint32_t>(r % kKeys) * 40503u);
      if (entry != table_.end()) {
        entry->second += r;
        sum += entry->second;
      }
      event.first += 1 + (r >> 20) % 1000;
      std::push_heap(events_.begin(), events_.end(), std::greater<>());
    }
    return sum;
  }

 private:
  uint64_t Next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::map<uint32_t, uint64_t> tree_;
  std::unordered_map<uint32_t, uint64_t> table_;
  std::vector<std::pair<uint64_t, uint32_t>> events_;
  uint64_t x_ = 0x9E3779B97F4A7C15ull;
};

ProbeState& TheProbe() {
  static ProbeState* probe = new ProbeState();  // Never destroyed.
  return *probe;
}

volatile uint64_t probe_sink;  // Keeps the probe's work observable.

}  // namespace

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuMeter::CpuMeter() {
  TheProbe();  // Build the working set before anything is timed.
  start_ = CpuNow();
}

double CpuMeter::Now() const { return CpuNow() - start_ - excluded_s_; }

void CpuMeter::Probe() {
  const double start = CpuNow();
  ProbeState& probe = TheProbe();
  probe_sink = probe_sink + probe.Warm();
  const double timed_start = CpuNow();
  probe_sink = probe_sink + probe.Run(kProbeSteps);
  const double end = CpuNow();
  probe_s_ += end - timed_start;
  excluded_s_ += end - start;
  ++probes_;
}

double CpuMeter::speed() const {
  return probes_ == 0 ? 1.0 : kProbeNominalS * static_cast<double>(probes_) / probe_s_;
}

double CpuMeter::probe_us() const {
  return probes_ == 0 ? 0.0 : 1e6 * probe_s_ / static_cast<double>(probes_);
}

}  // namespace perfbench
