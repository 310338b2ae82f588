#include "src/obs/lifecycle.h"

#include <algorithm>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/oracle.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace publishing {

const char* LifecycleStageName(LifecycleStage stage) {
  switch (stage) {
    case LifecycleStage::kSent:
      return "sent";
    case LifecycleStage::kOnWire:
      return "on_wire";
    case LifecycleStage::kOverheard:
      return "overheard";
    case LifecycleStage::kPublished:
      return "published";
    case LifecycleStage::kDurable:
      return "durable";
    case LifecycleStage::kDelivered:
      return "delivered";
    case LifecycleStage::kAcked:
      return "acked";
    case LifecycleStage::kRead:
      return "read";
    case LifecycleStage::kReplayed:
      return "replayed";
    case LifecycleStage::kForwarded:
      return "forwarded";
    case LifecycleStage::kMigrated:
      return "migrated";
  }
  return "unknown";
}

LifecycleTracker::LifecycleTracker(const Simulator* sim, size_t max_messages)
    : sim_(sim), max_messages_(max_messages == 0 ? 1 : max_messages) {}

void LifecycleTracker::AttachTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    tracer_->SetTrackName(obs_track::kLifecycle, "lifecycle");
  }
}

void LifecycleTracker::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    for (size_t i = 0; i < kLifecycleStageCount; ++i) {
      stage_counters_[i] = nullptr;
      since_sent_ms_[i] = nullptr;
    }
    faults_ = nullptr;
    evictions_ = nullptr;
    return;
  }
  for (size_t i = 0; i < kLifecycleStageCount; ++i) {
    const char* stage = LifecycleStageName(static_cast<LifecycleStage>(i));
    stage_counters_[i] = metrics->GetCounter("lifecycle.stage", {{"stage", stage}});
    // sent -> sent latency is always zero; no histogram for it.
    since_sent_ms_[i] =
        i == 0 ? nullptr
               : metrics->GetHistogram("lifecycle.since_sent_ms", {{"stage", stage}});
  }
  faults_ = metrics->GetCounter("lifecycle.faults");
  evictions_ = metrics->GetCounter("lifecycle.evictions");
}

LifecycleRecord& LifecycleTracker::FindOrCreate(const CausalContext& ctx) {
  if (const uint64_t* position = index_.find(ctx.id)) {
    return records_[*position - evicted_];
  }
  while (records_.size() >= max_messages_) {
    index_.erase(records_.front().id);
    records_.pop_front();
    ++evicted_;
    if (evictions_ != nullptr) {
      evictions_->Add();
    }
  }
  index_.try_emplace(ctx.id, evicted_ + records_.size());
  LifecycleRecord& record = records_.emplace_back();
  record.id = ctx.id;
  record.origin = ctx.origin;
  record.first_seq = next_seq_;
  return record;
}

void LifecycleTracker::Observe(const CausalContext& ctx, LifecycleStage stage,
                               NodeId node, ProcessId process) {
  if (!ctx.valid()) {
    return;
  }
  LifecycleEvent event;
  event.ctx = ctx;
  event.stage = stage;
  event.time = sim_->Now();
  event.node = node;
  event.process = process;
  ObserveEvent(event);
}

void LifecycleTracker::ObserveForwarded(const CausalContext& ctx, NodeId node,
                                        int32_t from_segment, int32_t to_segment) {
  if (!ctx.valid()) {
    return;
  }
  LifecycleEvent event;
  event.ctx = ctx;
  event.stage = LifecycleStage::kForwarded;
  event.time = sim_->Now();
  event.node = node;
  event.from_segment = from_segment;
  event.to_segment = to_segment;
  ObserveEvent(event);
}

void LifecycleTracker::ObserveEvent(LifecycleEvent& event) {
  const CausalContext& ctx = event.ctx;
  const LifecycleStage stage = event.stage;
  const NodeId node = event.node;
  const ProcessId process = event.process;
  event.seq = next_seq_++;

  const size_t s = static_cast<size_t>(stage);
  LifecycleRecord& rec = FindOrCreate(ctx);
  rec.flags |= ctx.flags;
  if (ctx.hop > rec.max_hop) {
    rec.max_hop = ctx.hop;
  }
  const bool stage_first = rec.count[s] == 0;
  ++rec.count[s];
  if (stage_first) {
    rec.first_time[s] = event.time;
    if (stage == LifecycleStage::kDelivered || stage == LifecycleStage::kReplayed) {
      rec.dst_node = node;
    }
    if (stage == LifecycleStage::kRead && process.IsValid()) {
      rec.dst_process = process;
    }
  }
  if (stage == LifecycleStage::kForwarded &&
      rec.forwards.size() < LifecycleRecord::kMaxForwardPairs) {
    const std::pair<int32_t, int32_t> hop{event.from_segment, event.to_segment};
    bool known = false;
    for (const auto& seen : rec.forwards) {
      if (seen == hop) {
        known = true;
        break;
      }
    }
    if (!known) {
      rec.forwards.push_back(hop);
    }
  }

  if (stage_counters_[s] != nullptr) {
    stage_counters_[s]->Add();
  }
  const SimTime sent_at = rec.FirstTime(LifecycleStage::kSent);
  if (since_sent_ms_[s] != nullptr && sent_at >= 0 && stage != LifecycleStage::kSent) {
    since_sent_ms_[s]->Observe(ToMillis(event.time - sent_at));
  }

  if (tracer_ != nullptr) {
    if (stage == LifecycleStage::kSent && stage_first) {
      rec.span_id = tracer_->BeginSpan("msg.lifecycle", "lifecycle",
                                       obs_track::kLifecycle,
                                       {{"id", ToString(ctx.id)}});
    }
    if (stage_first && stage != LifecycleStage::kSent) {
      tracer_->Instant(std::string("msg.") + LifecycleStageName(stage), "lifecycle",
                       obs_track::kLifecycle, {{"id", ToString(ctx.id)}});
    }
    if (stage == LifecycleStage::kRead && rec.span_id != 0) {
      tracer_->EndSpan(rec.span_id, "msg.lifecycle", "lifecycle",
                       obs_track::kLifecycle, {{"id", ToString(ctx.id)}});
      rec.span_id = 0;
    }
  }

  // Flight recorder before the oracle: a violation dump must include the
  // event that tripped it.
  if (flight_ != nullptr) {
    flight_->Record(event);
  }
  if (oracle_ != nullptr) {
    oracle_->OnEvent(event);
  }
}

void LifecycleTracker::ObserveMigrated(const CausalContext& ctx, NodeId node,
                                       ProcessId process, int32_t from_segment,
                                       int32_t to_segment) {
  if (!ctx.valid()) {
    return;
  }
  LifecycleEvent event;
  event.ctx = ctx;
  event.stage = LifecycleStage::kMigrated;
  event.time = sim_->Now();
  event.node = node;
  event.process = process;
  event.from_segment = from_segment;
  event.to_segment = to_segment;
  ObserveEvent(event);
}

void LifecycleTracker::NoteMigrationStart(const ProcessId& pid, NodeId from_node,
                                          NodeId to_node) {
  if (tracer_ != nullptr) {
    tracer_->Instant("process.migration_start", "lifecycle", obs_track::kLifecycle,
                     {{"process", ToString(pid)},
                      {"from", std::to_string(from_node.value)},
                      {"to", std::to_string(to_node.value)}});
  }
  if (oracle_ != nullptr) {
    oracle_->OnMigrationStart(pid, from_node, to_node);
  }
}

void LifecycleTracker::NoteMigrationAborted(const ProcessId& pid) {
  if (tracer_ != nullptr) {
    tracer_->Instant("process.migration_aborted", "lifecycle", obs_track::kLifecycle,
                     {{"process", ToString(pid)}});
  }
  if (oracle_ != nullptr) {
    oracle_->OnMigrationAborted(pid);
  }
}

void LifecycleTracker::NoteProcessReset(const ProcessId& pid) {
  if (tracer_ != nullptr) {
    tracer_->Instant("process.reset", "lifecycle", obs_track::kLifecycle,
                     {{"process", ToString(pid)}});
  }
  if (oracle_ != nullptr) {
    oracle_->OnProcessReset(pid);
  }
}

void LifecycleTracker::NoteFault(const std::string& kind, const std::string& detail) {
  if (faults_ != nullptr) {
    faults_->Add();
  }
  if (tracer_ != nullptr) {
    tracer_->Instant("fault." + kind, "lifecycle", obs_track::kLifecycle,
                     {{"detail", detail}});
  }
  if (flight_ != nullptr) {
    flight_->Dump(kind, detail);
  }
}

const LifecycleRecord* LifecycleTracker::Find(const MessageId& id) const {
  const uint64_t* position = index_.find(id);
  return position == nullptr ? nullptr : &records_[*position - evicted_];
}

std::vector<std::reference_wrapper<const LifecycleRecord>> LifecycleTracker::SortedRecords()
    const {
  std::vector<std::reference_wrapper<const LifecycleRecord>> records(records_.begin(),
                                                                      records_.end());
  std::sort(records.begin(), records.end(),
            [](const LifecycleRecord& a, const LifecycleRecord& b) { return a.id < b.id; });
  return records;
}

std::string LifecycleTracker::TableToJson() const {
  std::string out = "{\"messages\":[";
  bool first_rec = true;
  for (const LifecycleRecord& rec : SortedRecords()) {
    if (!first_rec) {
      out += ',';
    }
    first_rec = false;
    out += "{\"id\":\"" + JsonEscape(ToString(rec.id)) + '"';
    out += ",\"origin\":" + std::to_string(rec.origin.value);
    out += ",\"dst_node\":" + std::to_string(rec.dst_node.value);
    if (rec.dst_process.IsValid()) {
      out += ",\"dst_process\":\"" + JsonEscape(ToString(rec.dst_process)) + '"';
    }
    out += ",\"flags\":" + std::to_string(rec.flags);
    out += ",\"hops\":" + std::to_string(rec.max_hop);
    if (!rec.forwards.empty()) {
      out += ",\"forwards\":[";
      bool first_fwd = true;
      for (const auto& [from, to] : rec.forwards) {
        if (!first_fwd) {
          out += ',';
        }
        first_fwd = false;
        out += "{\"from\":" + std::to_string(from);
        out += ",\"to\":" + std::to_string(to) + '}';
      }
      out += ']';
    }
    out += ",\"stages\":{";
    bool first_stage = true;
    for (size_t s = 0; s < kLifecycleStageCount; ++s) {
      if (rec.count[s] == 0) {
        continue;
      }
      if (!first_stage) {
        out += ',';
      }
      first_stage = false;
      out += '"';
      out += LifecycleStageName(static_cast<LifecycleStage>(s));
      out += "\":{\"first_ms\":" + FormatMetricValue(ToMillis(rec.first_time[s]));
      out += ",\"count\":" + std::to_string(rec.count[s]) + '}';
    }
    out += "}}";
  }
  out += "],\"observed\":" + std::to_string(next_seq_);
  out += ",\"evicted\":" + std::to_string(evicted_) + '}';
  return out;
}

std::string LifecycleTracker::TableToCsv() const {
  std::string out = "id,origin,dst_node,flags,hops,stage,first_ms,count\n";
  for (const LifecycleRecord& rec : SortedRecords()) {
    for (size_t s = 0; s < kLifecycleStageCount; ++s) {
      if (rec.count[s] == 0) {
        continue;
      }
      out += '"' + ToString(rec.id) + "\",";
      out += std::to_string(rec.origin.value) + ',';
      out += std::to_string(rec.dst_node.value) + ',';
      out += std::to_string(rec.flags) + ',';
      out += std::to_string(rec.max_hop) + ',';
      out += LifecycleStageName(static_cast<LifecycleStage>(s));
      out += ',';
      out += FormatMetricValue(ToMillis(rec.first_time[s]));
      out += ',' + std::to_string(rec.count[s]) + '\n';
    }
  }
  return out;
}

bool LifecycleTracker::WriteJsonFile(const std::string& path) const {
  return WriteTextFile(path, TableToJson());
}

bool LifecycleTracker::WriteCsvFile(const std::string& path) const {
  return WriteTextFile(path, TableToCsv());
}

}  // namespace publishing
