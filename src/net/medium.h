// Abstract broadcast medium with promiscuous-listener support.
//
// Publishing needs exactly one property from the network (§3.2.4): a point
// where a passive recorder can copy — and, when its own reception fails,
// veto — every frame.  Each concrete medium (Ethernet, Acknowledging
// Ethernet, token ring, star hub) provides that property in its own way; the
// PromiscuousListener interface is how the recorder plugs into all of them.

#ifndef SRC_NET_MEDIUM_H_
#define SRC_NET_MEDIUM_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/net/frame.h"
#include "src/obs/observability.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace publishing {

// A node's network attachment.  Concrete stations are the per-node transport
// endpoints and the recorder.
class Station {
 public:
  virtual ~Station() = default;

  virtual NodeId Address() const = 0;

  // Called when a frame addressed to this station (or broadcast) finishes
  // arriving.  The frame may be corrupted; the link layer CRC check decides.
  virtual void OnFrame(const Frame& frame) = 0;
};

// Sees every frame on the wire, before delivery.  Returns true if it
// successfully recorded the frame; media that support recorder gating use a
// false return to prevent any station from receiving the frame (§4.4.1:
// "the recorder can block the transmission, ensuring that no other processor
// correctly receives it").
class PromiscuousListener {
 public:
  virtual ~PromiscuousListener() = default;

  virtual bool OnWireFrame(const Frame& frame) = 0;
};

// Per-medium fault injection.  Rates are independent per delivery.
struct MediumFaults {
  double receiver_error_rate = 0.0;  // P(a receiver's copy is damaged).
  double listener_miss_rate = 0.0;   // P(the recorder fails to record).
};

struct MediumStats {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t frames_vetoed = 0;      // Blocked because a listener missed them.
  uint64_t frames_corrupted = 0;   // Damaged copies handed to receivers.
  uint64_t collisions = 0;         // CSMA collision rounds (Ethernet only).
  StatAccumulator queue_delay_ms;  // Send-request to transmission-start.
  UtilizationTracker channel;      // Busy fraction of the shared channel.
};

struct MediumTimings {
  // Fixed per-frame cost before bits flow (Fig. 5.2: 1.6 ms).
  SimDuration interpacket_delay = MillisF(1.6);
  // Channel bandwidth in bits per second (Fig. 5.2: 10 Mbit/s).
  double bits_per_second = 10e6;

  SimDuration TransmitTime(size_t wire_bytes) const {
    return interpacket_delay +
           SecondsF(static_cast<double>(wire_bytes) * 8.0 / bits_per_second);
  }
};

class Medium {
 public:
  Medium(Simulator* sim, MediumTimings timings, MediumFaults faults, uint64_t fault_seed)
      : sim_(sim), timings_(timings), faults_(faults), fault_rng_(fault_seed) {}
  virtual ~Medium() = default;

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  // Detach leaves the address in the attach order, so a station re-attached
  // under it keeps its ring position and receives one copy of a broadcast.
  void Attach(Station* station) {
    const NodeId address = station->Address();
    stations_[address] = station;
    if (std::find(attach_order_.begin(), attach_order_.end(), address) ==
        attach_order_.end()) {
      attach_order_.push_back(address);
    }
  }
  void Detach(NodeId node) { stations_.erase(node); }

  // Attaches a promiscuous listener.  `home` is the node the listener's
  // hardware sits on; it matters only under network partitions (§3.6): a
  // listener overhears exactly the frames its partition carries.  The
  // default home (kBroadcastNode) observes every partition — the
  // single-recorder, never-partitioned configuration.
  void AttachListener(PromiscuousListener* listener, NodeId home = kBroadcastNode) {
    listeners_.push_back(ListenerEntry{listener, home});
  }
  void DetachListener(PromiscuousListener* listener) {
    std::erase_if(listeners_,
                  [listener](const ListenerEntry& e) { return e.listener == listener; });
  }

  // --- Gateway forwarding (src/internet) ---
  // A forwarder is a station that receives the unicast frames whose
  // destination is not attached to this medium — the link-layer hook a
  // gateway uses to pick inter-segment traffic off its attached segments.
  // Forwarders never shadow local delivery: if the destination is attached
  // (even partition-hidden), the frame stays local.  Broadcast frames are
  // segment-local by design and are never handed to forwarders.
  void AttachForwarder(Station* forwarder) { forwarders_.push_back(forwarder); }
  void DetachForwarder(Station* forwarder) {
    std::erase_if(forwarders_, [forwarder](Station* s) { return s == forwarder; });
  }

  // --- Network partitions (§3.6) ---
  // Places `node` into partition `group` (default group is 0).  Frames only
  // reach stations and listeners in the sender's group; guaranteed traffic
  // across a partition simply retransmits until the partition heals.
  void SetPartitionGroup(NodeId node, int group) { partitions_[node] = group; }
  void HealPartitions() { partitions_.clear(); }
  int PartitionGroupOf(NodeId node) const {
    auto it = partitions_.find(node);
    return it == partitions_.end() ? 0 : it->second;
  }

  // Queues `frame` for transmission.  Delivery is asynchronous on the
  // simulator; ordering/latency semantics are medium-specific.
  virtual void Send(Frame frame) = 0;

  const MediumStats& stats() const { return stats_; }
  MediumStats& mutable_stats() { return stats_; }
  Simulator* sim() const { return sim_; }
  const MediumTimings& timings() const { return timings_; }

  // Resolves the medium's instruments under `net.*{medium=label}` and keeps
  // the tracer for per-transmission spans.  Null members detach.
  void SetObservability(const Observability& obs, std::string_view label) {
    tracer_ = obs.tracer;
    lifecycle_ = obs.lifecycle;
    if (obs.metrics != nullptr) {
      const MetricLabels labels = {{"medium", std::string(label)}};
      obs_frames_sent_ = obs.metrics->GetCounter("net.frames_sent", labels);
      obs_bytes_sent_ = obs.metrics->GetCounter("net.bytes_sent", labels);
      obs_frames_delivered_ = obs.metrics->GetCounter("net.frames_delivered", labels);
      obs_frames_vetoed_ = obs.metrics->GetCounter("net.frames_vetoed", labels);
      obs_frames_corrupted_ = obs.metrics->GetCounter("net.frames_corrupted", labels);
      obs_collisions_ = obs.metrics->GetCounter("net.collisions", labels);
      obs_queue_delay_ = obs.metrics->GetHistogram("net.queue_delay_ms", labels);
      obs_utilization_ = obs.metrics->GetGauge("net.channel_utilization", labels);
    } else {
      obs_frames_sent_ = nullptr;
      obs_bytes_sent_ = nullptr;
      obs_frames_delivered_ = nullptr;
      obs_frames_vetoed_ = nullptr;
      obs_frames_corrupted_ = nullptr;
      obs_collisions_ = nullptr;
      obs_queue_delay_ = nullptr;
      obs_utilization_ = nullptr;
    }
  }

 protected:
  // Runs the listeners that share the sender's partition; returns true iff
  // every such listener recorded the frame (the multi-recorder rule of §6.3:
  // a message may be used only once all recorders acknowledge it).
  bool RunListeners(const Frame& frame) {
    const int group = PartitionGroupOf(frame.src);
    bool all_ok = true;
    bool any_reachable = false;
    for (const ListenerEntry& entry : listeners_) {
      if (entry.home != kBroadcastNode && PartitionGroupOf(entry.home) != group) {
        continue;  // The partition hides this frame from the listener.
      }
      any_reachable = true;
      bool miss = faults_.listener_miss_rate > 0.0 &&
                  fault_rng_.NextBernoulli(faults_.listener_miss_rate);
      if (miss || !entry.listener->OnWireFrame(frame)) {
        all_ok = false;
      }
    }
    if (!listeners_.empty() && !any_reachable) {
      // Recorders exist but the partition cut them all off: no publication
      // acknowledgement can arrive, so nothing may be received (§3.6).
      return false;
    }
    return all_ok;
  }

  // Delivers `frame` to its destination (every station except the sender for
  // broadcast), applying receiver fault injection and partition filtering.
  void DeliverToStations(const Frame& frame) {
    const int group = PartitionGroupOf(frame.src);
    if (frame.dst == kBroadcastNode) {
      for (NodeId addr : attach_order_) {
        auto it = stations_.find(addr);
        if (it == stations_.end() || addr == frame.src ||
            PartitionGroupOf(addr) != group) {
          continue;
        }
        DeliverCopy(it->second, frame);
      }
      return;
    }
    auto it = stations_.find(frame.dst);
    if (it != stations_.end()) {
      if (PartitionGroupOf(frame.dst) == group) {
        DeliverCopy(it->second, frame);
      }
      // Attached but partition-hidden: the node is local, merely cut off.
      // Handing the frame to a forwarder would route around the partition.
      return;
    }
    // Destination not on this medium: offer the frame to each forwarder that
    // shares the sender's partition (a gateway decides whether it owns the
    // route).
    for (Station* forwarder : forwarders_) {
      if (PartitionGroupOf(forwarder->Address()) == group) {
        DeliverCopy(forwarder, frame);
      }
    }
  }

  bool HasListeners() const { return !listeners_.empty(); }
  size_t station_count() const { return stations_.size(); }
  const std::vector<NodeId>& attach_order() const { return attach_order_; }
  Rng& fault_rng() { return fault_rng_; }
  const MediumFaults& faults() const { return faults_; }

  // --- Accounting helpers shared by the concrete media ---
  // Each updates the legacy MediumStats and, when attached, the registry;
  // concrete media call these instead of poking stats_ fields directly.
  void NoteFrameSent(const Frame& frame) {
    ++stats_.frames_sent;
    stats_.bytes_sent += frame.WireBytes();
    if (obs_frames_sent_ != nullptr) {
      obs_frames_sent_->Add(1);
      obs_bytes_sent_->Add(frame.WireBytes());
    }
    // Ack frames carry no causal stamp (the ack stage is observed by the
    // transport, which still knows the acked packet's flags).
    if (lifecycle_ != nullptr && frame.causal.valid() && frame.type != FrameType::kAck) {
      lifecycle_->Observe(frame.causal, LifecycleStage::kOnWire, frame.src);
    }
  }
  void NoteQueueDelay(double delay_ms) {
    stats_.queue_delay_ms.Add(delay_ms);
    if (obs_queue_delay_ != nullptr) {
      obs_queue_delay_->Observe(delay_ms);
    }
  }
  void NoteCollision() {
    ++stats_.collisions;
    if (obs_collisions_ != nullptr) {
      obs_collisions_->Add(1);
    }
  }
  void NoteVetoed(const Frame& frame) {
    ++stats_.frames_vetoed;
    if (obs_frames_vetoed_ != nullptr) {
      obs_frames_vetoed_->Add(1);
    }
    if (tracer_ != nullptr) {
      tracer_->Instant("net.veto", "net", obs_track::kNet,
                       {{"type", FrameTypeName(frame.type)}});
    }
  }
  // Marks the shared channel busy/idle, keeping the utilization gauge fresh.
  void NoteChannelBusy(bool busy) {
    stats_.channel.SetBusy(sim_->Now(), busy);
    if (obs_utilization_ != nullptr) {
      obs_utilization_->Set(stats_.channel.Utilization());
    }
  }
  // One complete span per on-wire transmission, [start, now].
  void TraceTransmission(SimTime start, FrameType type, size_t wire_bytes) {
    if (tracer_ != nullptr) {
      tracer_->Complete(start, "net.transmit", "net", obs_track::kNet,
                        {{"type", FrameTypeName(type)},
                         {"bytes", std::to_string(wire_bytes)}});
    }
  }
  void TraceTransmission(SimTime start, const Frame& frame) {
    TraceTransmission(start, frame.type, frame.WireBytes());
  }

 private:
  void DeliverCopy(Station* station, const Frame& frame) {
    Frame copy = frame;
    if (faults_.receiver_error_rate > 0.0 &&
        fault_rng_.NextBernoulli(faults_.receiver_error_rate)) {
      copy.corrupted = true;
      ++stats_.frames_corrupted;
      if (obs_frames_corrupted_ != nullptr) {
        obs_frames_corrupted_->Add(1);
      }
    }
    ++stats_.frames_delivered;
    if (obs_frames_delivered_ != nullptr) {
      obs_frames_delivered_->Add(1);
    }
    station->OnFrame(copy);
  }

  struct ListenerEntry {
    PromiscuousListener* listener;
    NodeId home;
  };

  Simulator* sim_;
  MediumTimings timings_;
  MediumFaults faults_;
  Rng fault_rng_;
  std::unordered_map<NodeId, Station*> stations_;
  std::vector<NodeId> attach_order_;
  std::vector<ListenerEntry> listeners_;
  std::vector<Station*> forwarders_;
  std::unordered_map<NodeId, int> partitions_;

  // Observability handles (null = detached).
  Tracer* tracer_ = nullptr;
  LifecycleTracker* lifecycle_ = nullptr;
  Counter* obs_frames_sent_ = nullptr;
  Counter* obs_bytes_sent_ = nullptr;
  Counter* obs_frames_delivered_ = nullptr;
  Counter* obs_frames_vetoed_ = nullptr;
  Counter* obs_frames_corrupted_ = nullptr;
  Counter* obs_collisions_ = nullptr;
  Histogram* obs_queue_delay_ = nullptr;
  Gauge* obs_utilization_ = nullptr;

 protected:
  MediumStats stats_;
};

}  // namespace publishing

#endif  // SRC_NET_MEDIUM_H_
