#include "src/obs/timeline.h"

namespace publishing {

namespace {

bool HasPrefix(const std::string& key, const std::string& prefix) {
  return key.compare(0, prefix.size(), prefix) == 0;
}

bool MatchesAny(const std::string& key, const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (HasPrefix(key, prefix)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* TimeSeriesKindName(TimeSeriesKind kind) {
  switch (kind) {
    case TimeSeriesKind::kCounter:
      return "counter";
    case TimeSeriesKind::kGauge:
      return "gauge";
    case TimeSeriesKind::kHistCount:
      return "hist_count";
    case TimeSeriesKind::kHistP50:
      return "hist_p50";
    case TimeSeriesKind::kHistP99:
      return "hist_p99";
  }
  return "unknown";
}

TelemetrySampler::TelemetrySampler(Simulator* sim, MetricsRegistry* metrics,
                                   TimelineConfig config)
    : sim_(sim),
      metrics_(metrics),
      config_(std::move(config)),
      task_(sim, config_.interval, [this] {
        SampleNow();
        if (config_.horizon > 0 && sim_->Now() >= config_.horizon) {
          // Past the horizon: let the queue drain instead of re-arming
          // forever (a Run()-to-quiescence would otherwise never return).
          task_.Stop();
        }
      }) {}

void TelemetrySampler::Start() { task_.Start(); }

void TelemetrySampler::Stop() { task_.Stop(); }

bool TelemetrySampler::Included(const std::string& key) const {
  return config_.include_prefixes.empty() ||
         MatchesAny(key, config_.include_prefixes);
}

TimeSeries& TelemetrySampler::Slot(const std::string& key, TimeSeriesKind kind) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_
             .emplace(key, TimeSeries(kind, config_.capacity))
             .first;
  }
  return it->second;
}

void TelemetrySampler::SampleNow() {
  // Publish the engine's event tallies (and engine.* gauges) before reading.
  sim_->FlushObsMetrics();
  const SimTime now = sim_->Now();
  for (const auto& [key, counter] : metrics_->counters()) {
    if (Included(key)) {
      Slot(key, TimeSeriesKind::kCounter)
          .Push(now, static_cast<double>(counter->value()));
    }
  }
  for (const auto& [key, gauge] : metrics_->gauges()) {
    if (Included(key)) {
      Slot(key, TimeSeriesKind::kGauge).Push(now, gauge->value());
    }
  }
  for (const auto& [key, histogram] : metrics_->histograms()) {
    if (!Included(key)) {
      continue;
    }
    const bool empty = histogram->count() == 0;
    Slot(key + ".count", TimeSeriesKind::kHistCount)
        .Push(now, static_cast<double>(histogram->count()));
    Slot(key + ".p50", TimeSeriesKind::kHistP50)
        .Push(now, empty ? 0.0 : histogram->p50());
    Slot(key + ".p99", TimeSeriesKind::kHistP99)
        .Push(now, empty ? 0.0 : histogram->p99());
  }
  ++samples_;
  if (window_cb_) {
    window_cb_(*this, now);
  }
}

const TimeSeries* TelemetrySampler::Find(const std::string& key) const {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::string TelemetrySampler::ToJson() const {
  std::string out = "{\"interval_ms\":" + FormatMetricValue(ToMillis(config_.interval));
  out += ",\"capacity\":" + std::to_string(config_.capacity);
  out += ",\"samples\":" + std::to_string(samples_);
  out += ",\"series\":{";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(key) + "\":{\"kind\":\"";
    out += TimeSeriesKindName(series.kind());
    out += "\",\"dropped\":" + std::to_string(series.dropped());
    out += ",\"points\":[";
    for (size_t i = 0; i < series.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      const TimelinePoint& p = series.at(i);
      out += '[' + FormatMetricValue(ToMillis(p.time)) + ',' +
             FormatMetricValue(p.value) + ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string TelemetrySampler::ToCsv() const {
  std::string out = "series,kind,t_ms,value\n";
  for (const auto& [key, series] : series_) {
    for (size_t i = 0; i < series.size(); ++i) {
      const TimelinePoint& p = series.at(i);
      // Label-bearing keys contain commas; quote the key unconditionally.
      out += '"' + key + "\",";
      out += TimeSeriesKindName(series.kind());
      out += ',' + FormatMetricValue(ToMillis(p.time));
      out += ',' + FormatMetricValue(p.value) + '\n';
    }
  }
  return out;
}

bool TelemetrySampler::WriteJsonFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

bool TelemetrySampler::WriteCsvFile(const std::string& path) const {
  return WriteTextFile(path, ToCsv());
}

}  // namespace publishing
