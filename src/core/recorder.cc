#include "src/core/recorder.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/net/link_layer.h"
#include "src/transport/packet.h"

namespace publishing {

SimDuration PublishCpuCost(PublishPath path) {
  switch (path) {
    case PublishPath::kFullProtocol:
      return Millis(57);  // §5.2.2: "This time was 57 ms per message."
    case PublishPath::kInlined:
      return Millis(12);  // "...we reduced this number to 12 ms."
    case PublishPath::kMediaLayer:
      return MillisF(0.8);  // "...can be reduced to the desired 0.8 ms".
  }
  return 0;
}

Recorder::Recorder(Simulator* sim, Medium* medium, NameService* names, StableStorage* storage,
                   RecorderOptions options)
    : sim_(sim), names_(names), storage_(storage), options_(options) {
  // Stamp journal appends with virtual time so a durable backend can group
  // commits over time windows.
  storage_->set_clock([this] { return static_cast<uint64_t>(sim_->Now()); });
  endpoint_ = std::make_unique<TransportEndpoint>(
      sim_, medium, options_.node, options_.transport,
      [this](const Packet& packet) { OnPacketDelivered(packet); });
  medium->AttachListener(this, options_.node);
  names_->SetLocation(RecorderPid(), options_.node);
}

Recorder::~Recorder() = default;

void Recorder::SetObservability(const Observability& obs) {
  tracer_ = obs.tracer;
  lifecycle_ = obs.lifecycle;
  if (obs.metrics != nullptr) {
    obs_frames_seen_ = obs.metrics->GetCounter("recorder.frames_seen");
    obs_messages_published_ = obs.metrics->GetCounter("recorder.messages_published");
    obs_bytes_published_ = obs.metrics->GetCounter("recorder.bytes_published");
    obs_checkpoints_stored_ = obs.metrics->GetCounter("recorder.checkpoints_stored");
    obs_publish_cost_ = obs.metrics->GetHistogram("recorder.publish_cost_ms");
    // Cumulative publish CPU as a gauge: the watchdog's saturation rule reads
    // its per-window growth rate (ms of CPU per ms of virtual time).
    obs_publish_cpu_ = obs.metrics->GetGauge(
        "recorder.publish_cpu_ms", {{"node", ToString(options_.node)}});
    obs_publish_cpu_->Set(ToMillis(stats_.publish_cpu));
  } else {
    obs_frames_seen_ = nullptr;
    obs_messages_published_ = nullptr;
    obs_bytes_published_ = nullptr;
    obs_checkpoints_stored_ = nullptr;
    obs_publish_cost_ = nullptr;
    obs_publish_cpu_ = nullptr;
  }
  endpoint_->SetObservability(obs);
}

bool Recorder::OnWireFrame(const Frame& frame) {
  if (down_) {
    // §3.3.4: "all message traffic to processes must be suspended whenever
    // the recorder goes down" — vetoing every frame suspends it.
    return false;
  }
  ++stats_.frames_seen;
  if (obs_frames_seen_ != nullptr) {
    obs_frames_seen_->Add(1);
  }
  if (!frame.segments.empty()) {
    // Replay-burst gather frames.  Counted before the own-transmission check
    // below: bursts originate from the recovery manager on this node, and
    // these stats are how benches and tests see them at all.
    ++stats_.replay_bursts_seen;
    stats_.replay_segments_seen += frame.segments.size();
  }
  if (frame.src == options_.node) {
    // Our own transmissions (replays, acks) need no recording.
    return true;
  }
  if (frame.type == FrameType::kAck) {
    ++stats_.acks_seen;
    return true;
  }
  auto body = LinkUnwrap(frame.payload);
  if (!body.ok()) {
    return false;  // We could not read it; nobody may use it.
  }
  auto header = ParsePacketHeader(*body);
  if (!header.ok()) {
    return false;
  }
  return RecordParsedPacket(*header, *body);
}

bool Recorder::RecordParsedPacket(const PacketHeader& header, const Buffer& wire_body) {
  if (down_) {
    return false;
  }
  // Responsibility scoping (src/internet): a frame in transit between two
  // foreign nodes crosses this segment only to reach a gateway.  It is not
  // ours to record or veto — the destination's home recorder gates it on the
  // segment where it is finally delivered.
  const bool src_scope =
      !options_.responsible_for || options_.responsible_for(header.src_node);
  const bool dst_scope =
      header.dst_node == kBroadcastNode
          ? src_scope
          : !options_.responsible_for ||
                options_.responsible_for(header.dst_node);
  if (!src_scope && !dst_scope) {
    ++stats_.transit_skipped;
    return true;
  }
  const size_t wire_bytes = wire_body.size();
  if (lifecycle_ != nullptr) {
    CausalContext ctx;
    ctx.id = header.id;
    ctx.origin = header.src_node;
    ctx.flags = header.flags;
    lifecycle_->Observe(ctx, LifecycleStage::kOverheard, options_.node);
  }
  if (header.replay()) {
    ++stats_.replay_seen;
    return true;  // Recovery injections are already in the log.
  }
  // Track the sender's high-water mark even for control traffic — restart
  // floors (§4.7) need the kernel processes' sequence numbers too.  Scoped to
  // our own senders: a foreign sender's watermark lives with its home
  // recorder, which overhears every frame that sender puts on its segment.
  if (src_scope) {
    storage_->RecordSent(header.src_process, header.id.sequence);
  }
  if (header.control()) {
    ++stats_.control_seen;
    return true;
  }
  if (!header.guaranteed()) {
    // Unguaranteed messages carry dated data by contract (§4.3.3) and are
    // not replayed.
    return true;
  }
  if (!dst_scope) {
    // Outbound cross-segment traffic: the destination's home recorder
    // publishes it where it is delivered; we only needed the send watermark.
    ++stats_.foreign_dst_skipped;
    return true;
  }
  const SimDuration publish_cost = PublishCpuCost(options_.path);
  stats_.publish_cpu += publish_cost;
  ++stats_.messages_published;
  stats_.bytes_published += wire_bytes;
  if (obs_messages_published_ != nullptr) {
    obs_messages_published_->Add(1);
    obs_bytes_published_->Add(wire_bytes);
    obs_publish_cost_->Observe(ToMillis(publish_cost));
    obs_publish_cpu_->Set(ToMillis(stats_.publish_cpu));
  }
  if (tracer_ != nullptr) {
    // The publish span covers the recorder CPU spent on this message,
    // anchored at the moment the frame was overheard.
    const SimTime span_start = std::max<SimTime>(0, sim_->Now() - publish_cost);
    tracer_->Complete(span_start, "recorder.publish", "recorder",
                      obs_track::kRecorder,
                      {{"bytes", std::to_string(wire_bytes)},
                       {"dst_node", std::to_string(header.dst_node.value)}});
  }
  // Append the overheard wire bytes themselves (ParsePacket is the exact
  // inverse of SerializePacket, so `wire_body` IS the serialized packet):
  // the log entry shares the frame's storage instead of re-serializing.
  if (options_.node_unit) {
    storage_->AppendNodeMessage(header.dst_node, header.id, wire_body);
  } else {
    storage_->AppendMessage(header.dst_process, header.id, wire_body);
  }
  if (lifecycle_ != nullptr) {
    CausalContext ctx;
    ctx.id = header.id;
    ctx.origin = header.src_node;
    ctx.flags = header.flags;
    lifecycle_->Observe(ctx, LifecycleStage::kPublished, options_.node);
  }
  return true;
}

void Recorder::OnMessageRead(const ProcessId& reader, const MessageId& id) {
  if (down_) {
    return;
  }
  storage_->RecordRead(reader, id);
}

void Recorder::OnExtranodeArrival(NodeId node, const MessageId& id, uint64_t step) {
  if (down_) {
    return;
  }
  storage_->StampNodeMessage(node, id, step);
}

void Recorder::OnPacketDelivered(const Packet& packet) {
  if (down_) {
    return;
  }
  if (packet.header.dst_process != RecorderPid()) {
    for (const auto& handler : packet_handlers_) {
      if (handler(packet)) {
        return;
      }
    }
    return;
  }
  if (ApplyNotice(packet)) {
    return;
  }
  if (PeekOp(packet.body) == KernelOp::kNoticeCrash) {
    auto target = DecodeRecoveryTarget(packet.body);
    if (target.ok() && crash_notice_handler_) {
      crash_notice_handler_(target->pid);
    }
    return;
  }
  for (const auto& handler : packet_handlers_) {
    if (handler(packet)) {
      return;
    }
  }
  PUB_LOG_DEBUG("recorder: unhandled packet op %u",
                static_cast<unsigned>(PeekOp(packet.body)));
}

bool Recorder::ApplyNotice(const Packet& packet) {
  switch (PeekOp(packet.body)) {
    case KernelOp::kNoticeCreated: {
      auto notice = DecodeProcessNotice(packet.body);
      if (notice.ok()) {
        storage_->RecordCreation(notice->pid, notice->program, notice->initial_links,
                                 packet.header.src_node, notice->recoverable);
      }
      return true;
    }
    case KernelOp::kNoticeDestroyed: {
      auto notice = DecodeProcessNotice(packet.body);
      if (notice.ok()) {
        storage_->RecordDestruction(notice->pid);
      }
      return true;
    }
    case KernelOp::kCheckpoint: {
      auto checkpoint = DecodeCheckpoint(packet.body);
      if (checkpoint.ok()) {
        ++stats_.checkpoints_stored;
        if (obs_checkpoints_stored_ != nullptr) {
          obs_checkpoints_stored_->Add(1);
        }
        storage_->StoreCheckpoint(checkpoint->pid, std::move(checkpoint->state),
                                  checkpoint->reads_done);
      }
      return true;
    }
    case KernelOp::kCheckpointNode: {
      auto checkpoint = DecodeNodeCheckpoint(packet.body);
      if (checkpoint.ok()) {
        ++stats_.checkpoints_stored;
        if (obs_checkpoints_stored_ != nullptr) {
          obs_checkpoints_stored_->Add(1);
        }
        storage_->StoreNodeCheckpoint(checkpoint->node, std::move(checkpoint->image),
                                      checkpoint->node_step);
      }
      return true;
    }
    default:
      return false;
  }
}

void Recorder::Crash() {
  down_ = true;
  endpoint_->set_online(false);
  endpoint_->Reset();
  if (tracer_ != nullptr) {
    tracer_->Instant("recorder.crash", "recorder", obs_track::kRecorder, {});
  }
}

void Recorder::Restart() {
  if (!down_) {
    return;
  }
  down_ = false;
  endpoint_->set_online(true);
  const uint64_t restart_number = storage_->IncrementRestartNumber();
  if (tracer_ != nullptr) {
    tracer_->Instant("recorder.restart", "recorder", obs_track::kRecorder,
                     {{"restart", std::to_string(restart_number)}});
  }
  PUB_LOG_INFO("recorder: restart #%llu", static_cast<unsigned long long>(restart_number));
  if (restart_handler_) {
    restart_handler_(restart_number);
  }
}

}  // namespace publishing
