#include "src/transport/endpoint.h"

#include <algorithm>

#include "src/common/logging.h"

namespace publishing {

// The CausalContext mirrors the packet flag bit layout so src/obs can reason
// about guaranteed/replay/control without depending on src/transport.
static_assert(kCausalGuaranteed == kFlagGuaranteed);
static_assert(kCausalReplay == kFlagReplay);
static_assert(kCausalControl == kFlagControl);

namespace {

CausalContext MakeCausal(const PacketHeader& header, NodeId origin, uint32_t hop) {
  CausalContext ctx;
  ctx.id = header.id;
  ctx.origin = origin;
  ctx.hop = hop;
  ctx.flags = header.flags;
  return ctx;
}

}  // namespace

TransportEndpoint::TransportEndpoint(Simulator* sim, Medium* medium, NodeId node,
                                     TransportOptions options,
                                     std::function<void(const Packet&)> deliver)
    : sim_(sim), medium_(medium), node_(node), options_(options), deliver_(std::move(deliver)) {
  medium_->Attach(this);
}

TransportEndpoint::~TransportEndpoint() { medium_->Detach(node_); }

void TransportEndpoint::SetObservability(const Observability& obs) {
  tracer_ = obs.tracer;
  lifecycle_ = obs.lifecycle;
  if (obs.metrics != nullptr) {
    obs_data_sent_ = obs.metrics->GetCounter("transport.data_sent");
    obs_data_delivered_ = obs.metrics->GetCounter("transport.data_delivered");
    obs_acks_sent_ = obs.metrics->GetCounter("transport.acks_sent");
    obs_retransmits_ = obs.metrics->GetCounter("transport.retransmits");
    obs_dup_hits_ = obs.metrics->GetCounter("transport.dup_cache_hits");
    obs_corrupt_dropped_ = obs.metrics->GetCounter("transport.corrupt_dropped");
    obs_ack_latency_ = obs.metrics->GetHistogram("transport.ack_latency_ms");
  } else {
    obs_data_sent_ = nullptr;
    obs_data_delivered_ = nullptr;
    obs_acks_sent_ = nullptr;
    obs_retransmits_ = nullptr;
    obs_dup_hits_ = nullptr;
    obs_corrupt_dropped_ = nullptr;
    obs_ack_latency_ = nullptr;
  }
}

void TransportEndpoint::Send(Packet packet) {
  packet.header.src_node = node_;
  if (!packet.header.guaranteed()) {
    // "Unguaranteed messages exist ... for sending dated or statistical
    // information": transmit immediately, never retransmit.
    Frame frame;
    frame.src = node_;
    frame.dst = packet.header.dst_node;
    frame.type = packet.header.control() ? FrameType::kControl : FrameType::kData;
    frame.payload = LinkWrap(SerializePacket(packet));
    // Gather segments ride on the frame as shared views (no payload copy);
    // WireBytes accounts for their transmit time.
    frame.segments = std::move(packet.segments);
    frame.causal = MakeCausal(packet.header, node_, 0);
    ++stats_.data_sent;
    if (obs_data_sent_ != nullptr) {
      obs_data_sent_->Add(1);
    }
    if (lifecycle_ != nullptr) {
      lifecycle_->Observe(frame.causal, LifecycleStage::kSent, node_);
    }
    medium_->Send(std::move(frame));
    return;
  }
  const NodeId dst = packet.header.dst_node;
  send_queue_.push_back(std::move(packet));
  TrySendNext(dst);
}

void TransportEndpoint::Reset() {
  for (InFlight& inflight : in_flight_) {
    sim_->Cancel(inflight.timer);
  }
  in_flight_.clear();
  send_queue_.clear();
  dup_cache_.clear();
  dup_order_.clear();
}

void TransportEndpoint::TrySendNext(NodeId dst) {
  size_t outstanding = 0;
  for (const InFlight& inflight : in_flight_) {
    if (inflight.packet.header.dst_node == dst) {
      ++outstanding;
    }
  }
  for (auto it = send_queue_.begin();
       it != send_queue_.end() && outstanding < options_.window;) {
    if (it->header.dst_node != dst) {
      ++it;
      continue;
    }
    ++outstanding;
    InFlight inflight;
    inflight.packet = std::move(*it);
    it = send_queue_.erase(it);
    inflight.timeout = options_.retransmit_timeout;
    inflight.first_sent = sim_->Now();
    if (tracer_ != nullptr) {
      inflight.span_id = tracer_->BeginSpan(
          "transport.rtt", "transport", obs_track::kTransport,
          {{"dst_node", std::to_string(inflight.packet.header.dst_node.value)}});
    }
    in_flight_.push_back(std::move(inflight));
    TransmitInFlight(in_flight_.size() - 1);
  }
}

void TransportEndpoint::TransmitInFlight(size_t index) {
  InFlight& inflight = in_flight_[index];
  Frame frame;
  frame.src = node_;
  frame.dst = inflight.packet.header.dst_node;
  frame.type =
      inflight.packet.header.control() ? FrameType::kControl : FrameType::kData;
  frame.payload = LinkWrap(SerializePacket(inflight.packet));
  frame.causal = MakeCausal(inflight.packet.header, node_, inflight.attempts++);
  ++stats_.data_sent;
  if (obs_data_sent_ != nullptr) {
    obs_data_sent_->Add(1);
  }
  if (lifecycle_ != nullptr) {
    lifecycle_->Observe(frame.causal, LifecycleStage::kSent, node_);
  }
  medium_->Send(std::move(frame));

  const MessageId id = inflight.packet.header.id;
  inflight.timer = sim_->ScheduleAfter(inflight.timeout, [this, id] { OnRetransmitTimer(id); });
}

void TransportEndpoint::OnRetransmitTimer(MessageId id) {
  if (!online_) {
    return;
  }
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].packet.header.id == id) {
      ++stats_.retransmits;
      if (obs_retransmits_ != nullptr) {
        obs_retransmits_->Add(1);
      }
      if (tracer_ != nullptr) {
        tracer_->Instant("transport.retransmit", "transport", obs_track::kTransport,
                         {{"dst_node",
                           std::to_string(in_flight_[i].packet.header.dst_node.value)}});
      }
      in_flight_[i].timeout =
          std::min(in_flight_[i].timeout * 2, options_.max_retransmit_timeout);
      TransmitInFlight(i);
      return;
    }
  }
}

void TransportEndpoint::OnFrame(const Frame& frame) {
  if (!online_) {
    return;
  }
  // Fault injection damaged our copy: substitute a CoW-damaged clone and let
  // the CRC catch it.  The clean path unwraps the shared payload in place.
  auto body = frame.corrupted
                  ? LinkUnwrap(LinkCorrupt(frame.payload, frame.payload.size() / 2))
                  : LinkUnwrap(frame.payload);
  if (!body.ok()) {
    NoteCorruptDropped();
    return;
  }
  if (frame.type == FrameType::kAck) {
    auto ack = ParseAck(*body);
    if (!ack.ok()) {
      NoteCorruptDropped();
      return;
    }
    if (ack->to == node_) {
      HandleAck(*ack);
    }
    return;
  }
  auto packet = ParsePacket(*body);
  if (!packet.ok()) {
    NoteCorruptDropped();
    return;
  }
  if (packet->header.dst_node == node_ || packet->header.dst_node == kBroadcastNode) {
    // Re-attach the frame's gather segments (shared views — a refcount bump,
    // not a payload copy) so the receiver sees the same scatter/gather packet
    // the sender handed the medium.
    packet->segments = frame.segments;
    HandleData(*packet);
  }
}

void TransportEndpoint::HandleData(const Packet& packet) {
  if (packet.header.guaranteed()) {
    // Acknowledge even duplicates: the original ack may have been lost.
    AckPacket ack{packet.header.id, node_, packet.header.src_node};
    Frame frame;
    frame.src = node_;
    frame.dst = packet.header.src_node;
    frame.type = FrameType::kAck;
    frame.payload = LinkWrap(SerializeAck(ack));
    ++stats_.acks_sent;
    if (obs_acks_sent_ != nullptr) {
      obs_acks_sent_->Add(1);
    }
    // The ack stage is observed here — not at the ack frame on the medium —
    // because only this layer still knows the acked packet's flags, which
    // the durability-before-ack monitor needs to exempt control traffic.
    if (lifecycle_ != nullptr) {
      lifecycle_->Observe(MakeCausal(packet.header, packet.header.src_node, 0),
                          LifecycleStage::kAcked, node_);
    }
    medium_->Send(std::move(frame));
  }
  if (!packet.header.replay() && !RememberId(packet.header.id)) {
    ++stats_.duplicates_suppressed;
    if (obs_dup_hits_ != nullptr) {
      obs_dup_hits_->Add(1);
    }
    return;
  }
  ++stats_.data_delivered;
  if (obs_data_delivered_ != nullptr) {
    obs_data_delivered_->Add(1);
  }
  if (lifecycle_ != nullptr) {
    lifecycle_->Observe(
        MakeCausal(packet.header, packet.header.src_node, 0),
        packet.header.replay() ? LifecycleStage::kReplayed : LifecycleStage::kDelivered,
        node_, packet.header.dst_process);
  }
  deliver_(packet);
}

void TransportEndpoint::HandleAck(const AckPacket& ack) {
  for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
    if (it->packet.header.id == ack.acked) {
      sim_->Cancel(it->timer);
      if (obs_ack_latency_ != nullptr) {
        obs_ack_latency_->Observe(ToMillis(sim_->Now() - it->first_sent));
      }
      if (tracer_ != nullptr && it->span_id != 0) {
        tracer_->EndSpan(it->span_id, "transport.rtt", "transport",
                         obs_track::kTransport);
      }
      const NodeId dst = it->packet.header.dst_node;
      in_flight_.erase(it);
      TrySendNext(dst);
      return;
    }
  }
}

void TransportEndpoint::NoteCorruptDropped() {
  ++stats_.corrupt_dropped;
  if (obs_corrupt_dropped_ != nullptr) {
    obs_corrupt_dropped_->Add(1);
  }
}

bool TransportEndpoint::RememberId(const MessageId& id) {
  if (!dup_cache_.insert(id)) {
    return false;
  }
  // Only a newly cached id joins the FIFO.  A second entry for a re-noted id
  // would age out first and evict the id while it is still among the last
  // dup_cache_size distinct ids.
  dup_order_.push_back(id);
  while (dup_order_.size() > options_.dup_cache_size) {
    dup_cache_.erase(dup_order_.front());
    dup_order_.pop_front();
  }
  return true;
}

}  // namespace publishing
