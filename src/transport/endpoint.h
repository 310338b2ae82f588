// Per-node transport endpoint (§4.3.3).
//
// Provides, over any Medium, the three guarantees DEMOS/MP's network layer
// gives the message kernel when neither endpoint crashes:
//   * messages are not duplicated (id cache),
//   * all guaranteed messages sent arrive (end-to-end ack + retransmit),
//   * messages from one process to another arrive in send order (at most one
//     unacknowledged guaranteed message in transit per processor — the
//     paper's stop-and-wait scheme; a windowed mode is provided as the
//     "future work" §4.3.3 footnote describes).
//
// Publication gating (§3.3.4/§6.1) lives *below* this layer: every medium in
// src/net only delivers frames the recorder successfully recorded, so a
// frame the recorder missed simply looks like a lost frame here and is
// retransmitted.

#ifndef SRC_TRANSPORT_ENDPOINT_H_
#define SRC_TRANSPORT_ENDPOINT_H_

#include <deque>
#include <functional>

#include "src/common/flat_table.h"
#include "src/net/link_layer.h"
#include "src/net/medium.h"
#include "src/transport/packet.h"

namespace publishing {

struct TransportOptions {
  // Retransmission timeout for unacknowledged guaranteed packets.
  SimDuration retransmit_timeout = Millis(40);
  // Exponential backoff cap.
  SimDuration max_retransmit_timeout = Millis(640);
  // Maximum guaranteed packets in flight from this node *per destination
  // node*.  1 reproduces the paper's ordering scheme (stop-and-wait); larger
  // values model the windowing follow-up.  Scoping the window to the
  // destination keeps an unreachable node from blocking traffic to everyone
  // else while preserving per-destination FIFO — the ordering the recovery
  // protocol depends on.
  size_t window = 1;
  // Entries retained in the duplicate-suppression cache.  "The size of the
  // cache is adjusted to make the lifetime of a message in the cache many
  // times greater than the time for a message to follow the longest path
  // through the network."
  size_t dup_cache_size = 4096;
};

struct TransportStats {
  uint64_t data_sent = 0;
  uint64_t data_delivered = 0;
  uint64_t acks_sent = 0;
  uint64_t retransmits = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t corrupt_dropped = 0;
};

class TransportEndpoint : public Station {
 public:
  // `deliver` receives each accepted inbound packet exactly once, in arrival
  // order.
  TransportEndpoint(Simulator* sim, Medium* medium, NodeId node, TransportOptions options,
                    std::function<void(const Packet&)> deliver);
  ~TransportEndpoint() override;

  TransportEndpoint(const TransportEndpoint&) = delete;
  TransportEndpoint& operator=(const TransportEndpoint&) = delete;

  // Queues a packet.  Guaranteed packets (kFlagGuaranteed) are retransmitted
  // until acknowledged; others are fire-and-forget.
  void Send(Packet packet);

  // Marks a message id as already delivered, so any later live copy (e.g. a
  // retransmission racing a completed recovery) is suppressed.  The kernel
  // calls this for every replayed message it accepts.
  void NoteDelivered(const MessageId& id) { RememberId(id); }

  // Drops all transport state (outstanding sends, dup cache).  Used when the
  // node crashes: a restarted node remembers nothing (§3.3.2 treats a
  // processor crash as the crash of every process on it).
  void Reset();

  // Suspends/resumes frame processing, simulating a crashed node that is
  // physically attached but silent.
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  NodeId Address() const override { return node_; }
  void OnFrame(const Frame& frame) override;

  const TransportStats& stats() const { return stats_; }

  // Resolves the shared transport instruments (all endpoints aggregate into
  // the same `transport.*` series) and keeps the tracer for per-packet
  // round-trip spans.  Null members detach.
  void SetObservability(const Observability& obs);

 private:
  struct InFlight {
    Packet packet;
    SimDuration timeout;
    EventId timer;
    SimTime first_sent = 0;   // For the ack-latency histogram.
    uint64_t span_id = 0;     // Open transport.rtt async span, 0 = none.
    uint32_t attempts = 0;    // Transmissions so far (CausalContext hop).
  };

  // Moves `dst`'s queued packets, in FIFO order, into flight until its
  // window is full.  Every pump leaves each still-queued packet behind a
  // full window, so only the destination whose packet was just queued
  // (Send) or acknowledged (HandleAck) can have room.
  void TrySendNext(NodeId dst);
  void TransmitInFlight(size_t index);
  void OnRetransmitTimer(MessageId id);
  void HandleData(const Packet& packet);
  void HandleAck(const AckPacket& ack);
  void NoteCorruptDropped();
  // Caches `id` for duplicate suppression; false if it was already cached.
  bool RememberId(const MessageId& id);

  Simulator* sim_;
  Medium* medium_;
  NodeId node_;
  TransportOptions options_;
  std::function<void(const Packet&)> deliver_;
  bool online_ = true;

  std::deque<Packet> send_queue_;       // Guaranteed packets awaiting a window slot.
  std::deque<InFlight> in_flight_;      // Unacknowledged guaranteed packets.
  FlatSet<MessageId> dup_cache_;
  std::deque<MessageId> dup_order_;     // FIFO eviction for the cache.
  TransportStats stats_;

  // Observability handles (null = detached).
  Tracer* tracer_ = nullptr;
  LifecycleTracker* lifecycle_ = nullptr;
  Counter* obs_data_sent_ = nullptr;
  Counter* obs_data_delivered_ = nullptr;
  Counter* obs_acks_sent_ = nullptr;
  Counter* obs_retransmits_ = nullptr;
  Counter* obs_dup_hits_ = nullptr;
  Counter* obs_corrupt_dropped_ = nullptr;
  Histogram* obs_ack_latency_ = nullptr;
};

}  // namespace publishing

#endif  // SRC_TRANSPORT_ENDPOINT_H_
