#include "src/obs/oracle.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace publishing {

const char* OracleMonitorName(OracleMonitor monitor) {
  switch (monitor) {
    case OracleMonitor::kRecorderCompleteness:
      return "recorder_completeness";
    case OracleMonitor::kReceiveOrder:
      return "receive_order";
    case OracleMonitor::kDuplicateDelivery:
      return "duplicate_delivery";
    case OracleMonitor::kDurabilityBeforeAck:
      return "durability_before_ack";
    case OracleMonitor::kGatewayForwarding:
      return "gateway_forwarding";
    case OracleMonitor::kMigrationAtomicity:
      return "migration_atomicity";
  }
  return "unknown";
}

InvariantOracle::InvariantOracle(Options options) : options_(options) {
  if (options_.max_retained_violations == 0) {
    options_.max_retained_violations = 1;
  }
}

void InvariantOracle::AttachMetrics(MetricsRegistry* metrics) {
  for (size_t i = 0; i < kOracleMonitorCount; ++i) {
    violation_counters_[i] =
        metrics == nullptr
            ? nullptr
            : metrics->GetCounter(
                  "oracle.violations",
                  {{"monitor", OracleMonitorName(static_cast<OracleMonitor>(i))}});
  }
}

void InvariantOracle::Violate(OracleMonitor monitor, const LifecycleEvent& event,
                              std::string detail) {
  Violate(monitor, event.ctx.id, event.process, event.time, std::move(detail));
}

void InvariantOracle::Violate(OracleMonitor monitor, const MessageId& id,
                              ProcessId process, SimTime time, std::string detail) {
  const size_t m = static_cast<size_t>(monitor);
  ++total_violations_;
  ++violation_counts_[m];
  if (violation_counters_[m] != nullptr) {
    violation_counters_[m]->Add();
  }

  OracleViolation violation;
  violation.monitor = monitor;
  violation.id = id;
  violation.process = process;
  violation.time = time;
  violation.detail = std::move(detail);
  recent_.push_back(violation);
  while (recent_.size() > options_.max_retained_violations) {
    recent_.pop_front();
  }

  // One dump per run: the first violation is where the causal history still
  // surrounds the offending message; later violations are usually cascade.
  if (flight_ != nullptr && total_violations_ == 1) {
    flight_->Dump("oracle_violation", std::string(OracleMonitorName(monitor)) +
                                          ": " + violation.detail);
  }
  if (hook_) {
    hook_(violation);
  }

  if (options_.policy != OraclePolicy::kCount) {
    PUB_LOG_ERROR("oracle violation [%s] %s %s: %s", OracleMonitorName(monitor),
                  ToString(id).c_str(),
                  process.IsValid() ? ToString(process).c_str() : "",
                  violation.detail.c_str());
  }
  if (options_.policy == OraclePolicy::kAbort) {
    std::abort();
  }
}

void InvariantOracle::OnEvent(const LifecycleEvent& event) {
  const CausalContext& ctx = event.ctx;
  // The per-message guarantees only bind guaranteed, non-control payload
  // traffic: unguaranteed sends are best-effort and control packets (crash
  // notices, recovery handshakes) are acked but deliberately unpublished.
  const bool bound = ctx.guaranteed() && !ctx.control();

  switch (event.stage) {
    case LifecycleStage::kSent:
      break;
    case LifecycleStage::kOnWire: {
      MessageState& ms = messages_[ctx.id];
      ms.guaranteed = ms.guaranteed || ctx.guaranteed();
      ms.control = ms.control || ctx.control();
      // A replay transmission re-sends an already-published message; it must
      // not re-arm the completeness obligation.
      if (!ctx.replay()) {
        ms.on_wire = true;
      }
      break;
    }
    case LifecycleStage::kOverheard:
      break;
    case LifecycleStage::kPublished: {
      MessageState& ms = messages_[ctx.id];
      ms.published = true;
      if (segment_resolver_) {
        // `event.node` is the publishing recorder's node; the resolver maps
        // it to the segment that recorder is responsible for.
        const int32_t segment = segment_resolver_(event.node);
        if (segment >= 0) {
          ms.published_segments |= uint64_t{1} << std::min<int32_t>(segment, 63);
        }
      }
      break;
    }
    case LifecycleStage::kDurable:
      messages_[ctx.id].durable = true;
      break;
    case LifecycleStage::kDelivered: {
      MessageState& ms = messages_[ctx.id];
      ms.delivered = true;
      if (!bound || ctx.replay()) {
        break;
      }
      if (options_.recorder_completeness && !ms.published) {
        Violate(OracleMonitor::kRecorderCompleteness, event,
                "delivered before the recorder published it (gating breached)");
      }
      if (options_.durability_before_ack && !ms.durable) {
        Violate(OracleMonitor::kDurabilityBeforeAck, event,
                "delivered before the publication was journaled");
      }
      if (segment_resolver_) {
        const int32_t dst_segment = segment_resolver_(event.node);
        const int32_t src_segment = segment_resolver_(ctx.origin);
        // Per-segment completeness: delivery on segment S requires a
        // publication by S's responsible recorder, not just any recorder.
        if (options_.recorder_completeness && ms.published && dst_segment >= 0 &&
            (ms.published_segments &
             (uint64_t{1} << std::min<int32_t>(dst_segment, 63))) == 0) {
          Violate(OracleMonitor::kRecorderCompleteness, event,
                  "delivered on segment " + std::to_string(dst_segment) +
                      " without a publication by that segment's recorder");
        }
        if (options_.gateway_forwarding && src_segment >= 0 && dst_segment >= 0 &&
            src_segment != dst_segment && !ms.forwarded) {
          Violate(OracleMonitor::kGatewayForwarding, event,
                  "delivered across segments (" + std::to_string(src_segment) +
                      " -> " + std::to_string(dst_segment) +
                      ") without any gateway forward");
        }
      }
      break;
    }
    case LifecycleStage::kAcked: {
      if (!bound || ctx.replay()) {
        break;
      }
      if (options_.durability_before_ack && !messages_[ctx.id].durable) {
        Violate(OracleMonitor::kDurabilityBeforeAck, event,
                "end-to-end ack before the publication was journaled");
      }
      break;
    }
    case LifecycleStage::kReplayed:
      // Replay *delivery* is not a read: the recovering process re-reads the
      // message later through the normal read path, which emits kRead.
      // Feeding both into the per-process monitors would double-count.
      messages_[ctx.id].delivered = true;
      break;
    case LifecycleStage::kForwarded: {
      MessageState& ms = messages_[ctx.id];
      ms.guaranteed = ms.guaranteed || ctx.guaranteed();
      ms.control = ms.control || ctx.control();
      ms.forwarded = true;
      if (options_.gateway_forwarding && !ctx.replay()) {
        // One transmission attempt (hop) may legitimately cross several
        // gateways and a retransmission crosses them again with a higher
        // hop, but the same attempt crossing the same segment pair twice
        // means a gateway duplicated it (routing loop or double ownership).
        const uint64_t tuple =
            (uint64_t{ctx.hop} << 32) |
            (uint64_t{static_cast<uint16_t>(event.from_segment)} << 16) |
            uint64_t{static_cast<uint16_t>(event.to_segment)};
        if (!forward_tuples_[ctx.id].insert(tuple)) {
          Violate(OracleMonitor::kGatewayForwarding, event,
                  "transmission forwarded twice across segments " +
                      std::to_string(event.from_segment) + " -> " +
                      std::to_string(event.to_segment) +
                      " (gateway duplication)");
        }
      }
      break;
    }
    case LifecycleStage::kMigrated: {
      if (!event.process.IsValid() || !options_.migration_atomicity) {
        break;
      }
      auto it = migrations_.find(event.process);
      if (it == migrations_.end() || !it->second.in_flight) {
        Violate(OracleMonitor::kMigrationAtomicity, event,
                "migration completed without an open move");
        break;
      }
      MigrationState& ms = it->second;
      ms.in_flight = false;
      if (event.node != ms.to) {
        Violate(OracleMonitor::kMigrationAtomicity, event,
                "migration completed on node " + std::to_string(event.node.value) +
                    " but the move targeted node " + std::to_string(ms.to.value));
      }
      // The destination owns the PID from here on; a read anywhere else is
      // two nodes owning one process.
      ProcessState& ps = processes_[event.process];
      ps.has_owner = true;
      ps.owner = event.node;
      break;
    }
    case LifecycleStage::kRead: {
      if (!event.process.IsValid()) {
        break;
      }
      ProcessState& ps = processes_[event.process];
      if (options_.migration_atomicity) {
        auto mit = migrations_.find(event.process);
        MigrationState* ms = mit == migrations_.end() ? nullptr : &mit->second;
        if (ms != nullptr && ms->in_flight) {
          // Freeze-barrier semantics: once the move opened, only the
          // destination may read (replay re-reads land there).
          if (event.node == ms->from) {
            Violate(OracleMonitor::kMigrationAtomicity, event,
                    "read at the source node after the freeze barrier");
          } else if (event.node != ms->to) {
            Violate(OracleMonitor::kMigrationAtomicity, event,
                    "read at node " + std::to_string(event.node.value) +
                        " while migrating to node " + std::to_string(ms->to.value));
          }
        } else {
          if (ps.has_owner && event.node != ps.owner) {
            Violate(OracleMonitor::kMigrationAtomicity, event,
                    "read at node " + std::to_string(event.node.value) +
                        " but node " + std::to_string(ps.owner.value) +
                        " owns the process (two nodes owning a PID)");
          }
          ps.has_owner = true;
          ps.owner = event.node;
        }
        if (ms != nullptr) {
          // Exactly-once across moves: the same message read on two
          // different nodes means a delivery was duplicated by the move.
          auto [first_node, fresh] = ms->read_node.try_emplace(ctx.id, event.node);
          if (!fresh && *first_node != event.node) {
            Violate(OracleMonitor::kMigrationAtomicity, event,
                    "message read on node " + std::to_string(event.node.value) +
                        " after being read on node " +
                        std::to_string(first_node->value) +
                        " (delivery duplicated across a move)");
            *first_node = event.node;
          }
        }
      }
      if (!ps.read_this_incarnation.insert(ctx.id)) {
        if (options_.duplicate_delivery) {
          Violate(OracleMonitor::kDuplicateDelivery, event,
                  "message read twice within one process incarnation");
        }
        break;
      }
      ps.read_log.push_back(ctx.id);
      // Re-reading something the previous incarnation read: replay must
      // preserve the original read order.
      if (const size_t* prev = ps.prev_read_index.find(ctx.id)) {
        const int64_t index = static_cast<int64_t>(*prev);
        if (options_.receive_order && index <= ps.last_prev_index) {
          Violate(OracleMonitor::kReceiveOrder, event,
                  "replayed read out of original order (index " +
                      std::to_string(index) + " after " +
                      std::to_string(ps.last_prev_index) + ")");
        }
        ps.last_prev_index = std::max(ps.last_prev_index, index);
      }
      break;
    }
  }
  last_event_time_ = event.time;
}

void InvariantOracle::OnProcessReset(const ProcessId& pid) {
  ProcessState& ps = processes_[pid];
  ps.prev_read_index.clear();
  for (size_t i = 0; i < ps.read_log.size(); ++i) {
    ps.prev_read_index.try_emplace(ps.read_log[i], i);
  }
  ps.read_log.clear();
  ps.last_prev_index = -1;
  ps.read_this_incarnation.clear();
  // A recreate may legitimately land on a different node (spare-node
  // recovery); ownership re-establishes at the first read there.  The
  // migration window, if one is open, survives the reset — the recreate on
  // the destination is part of the move.
  ps.has_owner = false;
}

void InvariantOracle::OnMigrationStart(const ProcessId& pid, NodeId from, NodeId to) {
  MigrationState& ms = migrations_[pid];
  if (options_.migration_atomicity && ms.in_flight) {
    Violate(OracleMonitor::kMigrationAtomicity, MessageId{}, pid, last_event_time_,
            "migration to node " + std::to_string(to.value) +
                " started while a move to node " + std::to_string(ms.to.value) +
                " is still in flight");
  }
  ms.in_flight = true;
  ms.from = from;
  ms.to = to;
}

void InvariantOracle::OnMigrationAborted(const ProcessId& pid) {
  auto it = migrations_.find(pid);
  if (it != migrations_.end()) {
    it->second.in_flight = false;
  }
}

void InvariantOracle::CheckQuiescent() {
  if (options_.recorder_completeness) {
    // Deterministic violation order despite the hash table's slot order.
    std::vector<MessageId> unpublished;
    for (const auto& [id, ms] : messages_) {
      if (ms.on_wire && ms.guaranteed && !ms.control && !ms.published) {
        unpublished.push_back(id);
      }
    }
    std::sort(unpublished.begin(), unpublished.end());
    for (const MessageId& id : unpublished) {
      Violate(OracleMonitor::kRecorderCompleteness, id, ProcessId{}, last_event_time_,
              "reached the wire but was never published (checked at quiescence)");
    }
  }
  if (options_.gateway_forwarding) {
    // Nothing a gateway forwarded may be silently dropped: a guaranteed,
    // non-control message that crossed a gateway must eventually reach its
    // destination (retransmission covers transient queue drops, so at
    // quiescence the obligation is unconditional).
    std::vector<MessageId> dropped;
    for (const auto& [id, ms] : messages_) {
      if (ms.forwarded && ms.guaranteed && !ms.control && !ms.delivered) {
        dropped.push_back(id);
      }
    }
    std::sort(dropped.begin(), dropped.end());
    for (const MessageId& id : dropped) {
      Violate(OracleMonitor::kGatewayForwarding, id, ProcessId{}, last_event_time_,
              "forwarded across a gateway but never delivered (checked at "
              "quiescence)");
    }
  }
  if (options_.migration_atomicity) {
    // `migrations_` is ordered, so leftover moves are flagged
    // deterministically.
    for (const auto& [pid, ms] : migrations_) {
      if (ms.in_flight) {
        Violate(OracleMonitor::kMigrationAtomicity, MessageId{}, pid, last_event_time_,
                "migration still in flight at quiescence (move to node " +
                    std::to_string(ms.to.value) + " never completed)");
      }
    }
  }
}

void InvariantOracle::NoteHealthAlert(const std::string& rule, SimTime time) {
  ++health_total_;
  ++health_counts_[rule];
  if (time > health_last_time_) {
    health_last_time_ = time;
  }
}

std::string InvariantOracle::ReportJson() const {
  std::string out = "{\"monitors\":{";
  const bool enabled[kOracleMonitorCount] = {
      options_.recorder_completeness, options_.receive_order,
      options_.duplicate_delivery, options_.durability_before_ack,
      options_.gateway_forwarding, options_.migration_atomicity};
  for (size_t i = 0; i < kOracleMonitorCount; ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"';
    out += OracleMonitorName(static_cast<OracleMonitor>(i));
    out += "\":{\"enabled\":";
    out += enabled[i] ? '1' : '0';
    out += ",\"violations\":" + std::to_string(violation_counts_[i]) + '}';
  }
  out += "},\"health\":{\"alerts\":" + std::to_string(health_total_);
  out += ",\"last_alert_ms\":" + FormatMetricValue(ToMillis(health_last_time_));
  out += ",\"rules\":{";
  bool first_rule = true;
  for (const auto& [rule, count] : health_counts_) {
    if (!first_rule) {
      out += ',';
    }
    first_rule = false;
    out += '"' + JsonEscape(rule) + "\":" + std::to_string(count);
  }
  out += "}},\"total_violations\":" + std::to_string(total_violations_);
  out += ",\"violations\":[";
  bool first = true;
  for (const OracleViolation& v : recent_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"monitor\":\"";
    out += OracleMonitorName(v.monitor);
    out += "\",\"id\":\"" + JsonEscape(ToString(v.id)) + '"';
    if (v.process.IsValid()) {
      out += ",\"process\":\"" + JsonEscape(ToString(v.process)) + '"';
    }
    out += ",\"time_ms\":" + FormatMetricValue(ToMillis(v.time));
    out += ",\"detail\":\"" + JsonEscape(v.detail) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace publishing
