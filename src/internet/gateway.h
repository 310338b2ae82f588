// Gateway: store-and-forward bridge between media segments (DESIGN.md §13).
//
// A gateway attaches one forwarder port per segment (Medium::AttachForwarder)
// and receives exactly the unicast frames whose destination is not local to
// that segment.  For each such frame it consults the SegmentMap: if this
// gateway is the designated next hop from the ingress segment toward the
// destination's home segment, the frame enters a bounded per-egress FIFO and
// is retransmitted onto the egress segment after a fixed store-and-forward
// latency; otherwise the frame is ignored (exactly one gateway owns any
// segment-pair flow, so no frame is ever duplicated).
//
// Back-pressure is by loss: a full queue drops the frame and the sender's
// end-to-end retransmission recovers it — the same contract as a vetoed or
// collided frame on a single segment.  Forwarding re-enters Medium::Send
// with the original frame (shared payload buffers, no copy), so the original
// source address, causal context, and gather segments all survive the hop;
// the destination segment's recorder overhears the final transmission and
// publishes it there, which is what keeps the responsibility invariant true
// across segments.
//
// Simulation domains (DESIGN.md §15): every segment runs on its own domain.
// The queue and pacing timer of an egress run on the domain of the segment
// that fed it (`drain_sim`); the final `Medium::Send` onto the egress segment
// crosses domains through `Simulator::ScheduleOnAfter` after
// `handoff_latency`.

#ifndef SRC_INTERNET_GATEWAY_H_
#define SRC_INTERNET_GATEWAY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "src/internet/segment_map.h"
#include "src/net/medium.h"

namespace publishing {

struct GatewayOptions {
  // Per-egress store-and-forward queue bounds; overflow drops the frame.
  size_t max_queue_frames = 64;
  size_t max_queue_bytes = 256 * 1024;
  // Fixed per-frame processing latency before the egress transmission; also
  // the pacing interval between successive forwards on one egress.
  SimDuration forward_latency = MillisF(0.2);
  // Latency of the cross-domain hop that puts the frame onto the egress
  // segment (the wire-transfer half of store-and-forward).
  SimDuration handoff_latency = MillisF(0.2);
};

struct GatewayStats {
  uint64_t frames_forwarded = 0;
  uint64_t bytes_forwarded = 0;
  uint64_t dropped_queue_full = 0;  // Back-pressure losses.
  uint64_t dropped_down = 0;        // Arrived or queued while the gateway was down.
  uint64_t ignored_not_owner = 0;   // Another gateway owns the route.
  uint64_t ignored_unroutable = 0;  // No up-gateway path to the home segment.
};

class Gateway {
 public:
  Gateway(Simulator* sim, const SegmentMap* map, size_t index, NodeId node,
          GatewayOptions options);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Attaches a forwarder port on `medium` (the map's segment `segment`).
  // The gateway must outlive the medium detach (the destructor detaches).
  void AttachSegment(size_t segment, Medium* medium);

  // A downed gateway drops everything: queued frames are lost (end-to-end
  // retransmission recovers them once a route exists again) and new ingress
  // is ignored.  The SegmentMap is NOT updated here — the supervisor does
  // that separately, which lets tests model the window where the map still
  // routes through a dead gateway.
  void SetDown(bool down);
  bool down() const { return down_; }

  NodeId node() const { return node_; }
  size_t index() const { return index_; }

  const GatewayStats& stats() const { return stats_; }

  // Resolves the gateway's instruments under `gateway.*{gateway=label}` —
  // including one `gateway.queue_depth{gateway,egress}` gauge per attached
  // egress, updated on every enqueue/drain/flush — and keeps the lifecycle
  // tracker for kForwarded observations.  Attach every segment before
  // enabling observability so each egress gets its gauge.
  void SetObservability(const Observability& obs, std::string_view label);

 private:
  struct Port : Station {
    Gateway* gateway = nullptr;
    size_t segment = 0;
    NodeId Address() const override { return gateway->node_; }
    void OnFrame(const Frame& frame) override {
      gateway->OnIngress(segment, frame);
    }
  };

  struct Egress {
    size_t segment = 0;
    Medium* medium = nullptr;
    std::unique_ptr<Port> port;

    // Store-and-forward state *toward* this segment.  `drain_sim` is the
    // domain of the segment that fed the queue, latched at enqueue: the
    // pacing timer runs there.  Queued frames carry their ingress segment
    // (for the forwarded stage).
    std::deque<std::pair<Frame, size_t>> queue;
    size_t queued_bytes = 0;
    bool draining = false;
    Simulator* drain_sim = nullptr;
    Gauge* depth_gauge = nullptr;  // gateway.queue_depth{gateway,egress}.
  };

  void OnIngress(size_t segment, const Frame& frame);
  void DrainOne(size_t egress_index);
  Egress* FindEgress(size_t segment);

  Simulator* sim_;  // The domain the gateway was created on (control).
  const SegmentMap* map_;
  size_t index_;
  NodeId node_;
  GatewayOptions options_;
  bool down_ = false;
  std::vector<std::unique_ptr<Egress>> egresses_;
  GatewayStats stats_;

  // Observability handles (null = detached).
  LifecycleTracker* lifecycle_ = nullptr;
  Counter* obs_forwarded_ = nullptr;
  Counter* obs_bytes_forwarded_ = nullptr;
  Counter* obs_dropped_queue_full_ = nullptr;
  Counter* obs_dropped_down_ = nullptr;
};

}  // namespace publishing

#endif  // SRC_INTERNET_GATEWAY_H_
