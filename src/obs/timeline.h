// Virtual-time telemetry timeline (DESIGN.md §16).
//
// The registry (src/obs/metrics.h) is an end-of-run snapshot: one number per
// instrument, however long the run was.  The paper's own analysis (Fig
// 5.4/5.5) argues from *time-resolved* recorder utilization and queue
// behaviour, so this module adds the time axis: a TelemetrySampler scheduled
// on the simulator scrapes every registered counter/gauge/histogram at a
// configurable virtual-time interval into bounded per-series ring buffers.
//
// Determinism contract: the sampler is a pure reader.  Its tick runs on the
// root (control) domain and begins by flushing the engine's event tallies
// (Simulator::FlushObsMetrics), so the registry is current at the
// scrape.  The registry iterates in sorted key order and numbers format
// through FormatMetricValue, so the exported timeline is byte-identical for a
// fixed seed.
//
// Sampling itself never mutates the system under test: with the sampler
// detached the run is bit-identical, and with it attached only the registry
// (already an observer) sees additional reads.
//
// The HealthWatchdog (src/obs/watchdog.h) consumes the timeline through the
// per-window callback.

#ifndef SRC_OBS_TIMELINE_H_
#define SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace publishing {

// What a series point came from; histograms expand into summary sub-series.
enum class TimeSeriesKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistCount = 2,
  kHistP50 = 3,
  kHistP99 = 4,
};

const char* TimeSeriesKindName(TimeSeriesKind kind);

struct TimelinePoint {
  SimTime time = 0;
  double value = 0.0;
};

// Bounded ring of (virtual time, value) samples for one series.  When full,
// the oldest point is dropped (and counted) — memory stays O(capacity) no
// matter how long the run is.
class TimeSeries {
 public:
  TimeSeries(TimeSeriesKind kind, size_t capacity)
      : kind_(kind), capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void Push(SimTime time, double value) {
    if (ring_.size() < capacity_) {
      ring_.push_back(TimelinePoint{time, value});
      return;
    }
    ring_[start_] = TimelinePoint{time, value};
    start_ = (start_ + 1) % capacity_;
    ++dropped_;
  }

  TimeSeriesKind kind() const { return kind_; }
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  // i-th retained point, oldest first.
  const TimelinePoint& at(size_t i) const { return ring_[(start_ + i) % capacity_]; }
  const TimelinePoint& back() const { return at(size() - 1); }

 private:
  TimeSeriesKind kind_;
  size_t capacity_;
  size_t start_ = 0;       // index of the oldest point once the ring is full
  uint64_t dropped_ = 0;   // points overwritten
  std::vector<TimelinePoint> ring_;
};

struct TimelineConfig {
  // Virtual-time distance between scrapes.
  SimDuration interval = Millis(250);
  // Ring capacity per series.
  size_t capacity = 512;
  // When non-empty, only instruments whose key starts with one of these
  // prefixes are sampled (bounds the export for label-heavy registries).
  std::vector<std::string> include_prefixes;
  // When > 0 the periodic tick stops re-arming once Now() reaches this time,
  // so a Run()-to-quiescence after the workload still terminates.
  SimTime horizon = 0;
};

class TelemetrySampler {
 public:
  // `sim` must be the root (control-domain) Simulator; `metrics` must outlive
  // the sampler.  Nothing is scheduled until Start().
  TelemetrySampler(Simulator* sim, MetricsRegistry* metrics,
                   TimelineConfig config = TimelineConfig());

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  // Begins periodic sampling, first scrape one interval from now.
  void Start();
  // Cancels the pending tick.  Safe to call when not running.
  void Stop();
  bool running() const { return task_.running(); }

  // Takes one scrape at the current virtual time (also what the periodic
  // tick does).  Flushes the engine's event tallies first.
  void SampleNow();

  // Invoked after every scrape with the sampler and the scrape time — the
  // HealthWatchdog hook.  One slot; the watchdog chains if it must.
  void SetWindowCallback(std::function<void(const TelemetrySampler&, SimTime)> cb) {
    window_cb_ = std::move(cb);
  }

  uint64_t samples() const { return samples_; }
  const TimelineConfig& config() const { return config_; }
  const std::map<std::string, TimeSeries>& series() const { return series_; }
  const TimeSeries* Find(const std::string& key) const;

  // Deterministic exports: series in sorted key order, points oldest-first,
  // times in milliseconds, numbers through FormatMetricValue.
  std::string ToJson() const;
  std::string ToCsv() const;
  bool WriteJsonFile(const std::string& path) const;
  bool WriteCsvFile(const std::string& path) const;

 private:
  bool Included(const std::string& key) const;
  TimeSeries& Slot(const std::string& key, TimeSeriesKind kind);

  Simulator* sim_;
  MetricsRegistry* metrics_;
  TimelineConfig config_;
  PeriodicTask task_;
  uint64_t samples_ = 0;
  std::map<std::string, TimeSeries> series_;
  std::function<void(const TelemetrySampler&, SimTime)> window_cb_;
};

}  // namespace publishing

#endif  // SRC_OBS_TIMELINE_H_
