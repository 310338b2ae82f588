#include "src/internet/gateway.h"

#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"

namespace publishing {

Gateway::Gateway(Simulator* sim, const SegmentMap* map, size_t index, NodeId node,
                 GatewayOptions options)
    : sim_(sim), map_(map), index_(index), node_(node), options_(options) {}

Gateway::~Gateway() {
  for (auto& egress : egresses_) {
    egress->medium->DetachForwarder(egress->port.get());
  }
}

void Gateway::AttachSegment(size_t segment, Medium* medium) {
  auto egress = std::make_unique<Egress>();
  egress->segment = segment;
  egress->medium = medium;
  egress->port = std::make_unique<Port>();
  egress->port->gateway = this;
  egress->port->segment = segment;
  medium->AttachForwarder(egress->port.get());
  egresses_.push_back(std::move(egress));
}

void Gateway::SetObservability(const Observability& obs, std::string_view label) {
  lifecycle_ = obs.lifecycle;
  if (obs.metrics != nullptr) {
    const MetricLabels labels = {{"gateway", std::string(label)}};
    obs_forwarded_ = obs.metrics->GetCounter("gateway.frames_forwarded", labels);
    obs_bytes_forwarded_ = obs.metrics->GetCounter("gateway.bytes_forwarded", labels);
    obs_dropped_queue_full_ =
        obs.metrics->GetCounter("gateway.dropped_queue_full", labels);
    obs_dropped_down_ = obs.metrics->GetCounter("gateway.dropped_down", labels);
    for (auto& egress : egresses_) {
      egress->depth_gauge = obs.metrics->GetGauge(
          "gateway.queue_depth",
          {{"gateway", std::string(label)},
           {"egress", std::to_string(egress->segment)}});
      egress->depth_gauge->Set(static_cast<double>(egress->queue.size()));
    }
  } else {
    obs_forwarded_ = nullptr;
    obs_bytes_forwarded_ = nullptr;
    obs_dropped_queue_full_ = nullptr;
    obs_dropped_down_ = nullptr;
    for (auto& egress : egresses_) {
      egress->depth_gauge = nullptr;
    }
  }
}

void Gateway::SetDown(bool down) {
  down_ = down;
  if (down_) {
    for (auto& egress : egresses_) {
      stats_.dropped_down += egress->queue.size();
      if (obs_dropped_down_ != nullptr) {
        obs_dropped_down_->Add(egress->queue.size());
      }
      egress->queue.clear();
      egress->queued_bytes = 0;
      egress->draining = false;
      egress->drain_sim = nullptr;
      if (egress->depth_gauge != nullptr) {
        egress->depth_gauge->Set(0);
      }
    }
  }
}

Gateway::Egress* Gateway::FindEgress(size_t segment) {
  for (auto& egress : egresses_) {
    if (egress->segment == segment) {
      return egress.get();
    }
  }
  return nullptr;
}

void Gateway::OnIngress(size_t segment, const Frame& frame) {
  const int32_t dst_segment =
      frame.dst == kBroadcastNode ? -1 : map_->SegmentOf(frame.dst);
  if (dst_segment < 0 || static_cast<size_t>(dst_segment) == segment) {
    // Unknown destination or local traffic a partition hid; not ours.
    return;
  }
  auto hop = map_->Route(segment, static_cast<size_t>(dst_segment));
  if (!hop.has_value()) {
    ++stats_.ignored_unroutable;
    return;
  }
  if (hop->gateway != index_) {
    // The designated next hop is another gateway; staying silent here is
    // what guarantees no frame is forwarded twice.
    ++stats_.ignored_not_owner;
    return;
  }
  if (down_) {
    // The supervisor still routes through us but we are dead: the frame is
    // lost until the map reroutes or we restart (retransmission covers it).
    ++stats_.dropped_down;
    if (obs_dropped_down_ != nullptr) {
      obs_dropped_down_->Add(1);
    }
    return;
  }
  Egress* egress = FindEgress(hop->egress);
  if (egress == nullptr) {
    ++stats_.ignored_unroutable;
    return;
  }
  const size_t wire_bytes = frame.WireBytes();
  if (egress->queue.size() >= options_.max_queue_frames ||
      egress->queued_bytes + wire_bytes > options_.max_queue_bytes) {
    // Bounded store-and-forward: drop and let the end-to-end retransmission
    // back-pressure the sender.
    ++stats_.dropped_queue_full;
    if (obs_dropped_queue_full_ != nullptr) {
      obs_dropped_queue_full_->Add(1);
    }
    return;
  }
  // The frame's payload and gather segments are shared buffers — queueing is
  // a refcount bump, not a copy.  The pacing timer runs on the ingress
  // segment's domain.
  egress->queue.emplace_back(frame, segment);
  egress->queued_bytes += wire_bytes;
  if (egress->depth_gauge != nullptr) {
    egress->depth_gauge->Set(static_cast<double>(egress->queue.size()));
  }
  if (!egress->draining) {
    egress->draining = true;
    egress->drain_sim = FindEgress(segment)->medium->sim();
    for (size_t i = 0; i < egresses_.size(); ++i) {
      if (egresses_[i].get() == egress) {
        egress->drain_sim->ScheduleAfter(options_.forward_latency,
                                         [this, i] { DrainOne(i); });
        break;
      }
    }
  }
}

void Gateway::DrainOne(size_t egress_index) {
  Egress& egress = *egresses_[egress_index];
  if (down_ || egress.queue.empty()) {
    // SetDown already accounted for dropped queue entries.
    egress.draining = false;
    return;
  }
  auto [frame, from_segment] = std::move(egress.queue.front());
  egress.queue.pop_front();
  egress.queued_bytes -= frame.WireBytes();
  if (egress.depth_gauge != nullptr) {
    egress.depth_gauge->Set(static_cast<double>(egress.queue.size()));
  }

  ++stats_.frames_forwarded;
  stats_.bytes_forwarded += frame.WireBytes();
  if (obs_forwarded_ != nullptr) {
    obs_forwarded_->Add(1);
    obs_bytes_forwarded_->Add(frame.WireBytes());
  }
  // Ack frames carry no causal stamp; ObserveForwarded's validity guard
  // skips them, matching the medium's kOnWire convention.
  if (lifecycle_ != nullptr && frame.causal.valid() &&
      frame.type != FrameType::kAck) {
    lifecycle_->ObserveForwarded(frame.causal, node_,
                                 static_cast<int32_t>(from_segment),
                                 static_cast<int32_t>(egress.segment));
  }
  // The actual egress transmission crosses into the egress segment's domain
  // after handoff_latency — the gateway's only cross-domain effect.
  egress.drain_sim->ScheduleOnAfter(
      egress.medium->sim(), options_.handoff_latency,
      [medium = egress.medium, f = std::move(frame)]() mutable {
        medium->Send(std::move(f));
      });

  if (!egress.queue.empty()) {
    egress.drain_sim->ScheduleAfter(options_.forward_latency,
                                    [this, egress_index] { DrainOne(egress_index); });
  } else {
    egress.draining = false;
  }
}

}  // namespace publishing
