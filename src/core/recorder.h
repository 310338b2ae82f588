// The recorder: publishing's central contribution (§3.3, §4.5).
//
// A passive promiscuous listener on the medium.  Every data frame it records
// goes into stable storage; a frame it fails to record is vetoed so that "no
// other processor correctly receives it" (§4.4.1) — the medium models
// provide the veto mechanics.  The recorder also owns a transport endpoint
// on the recording node for the traffic explicitly addressed to it:
// creation/destruction notices, crash traps, and checkpoint images.
//
// Crashing the recorder suspends all network traffic (every frame is vetoed
// while it is down, §3.3.4); restart bumps the stable-storage restart number
// and hands control to the recovery manager's state-query protocol.

#ifndef SRC_CORE_RECORDER_H_
#define SRC_CORE_RECORDER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/stable_storage.h"
#include "src/demos/node_kernel.h"
#include "src/transport/endpoint.h"

namespace publishing {

// §5.2.2: per-message publishing cost depends on how deep in the protocol
// stack the recorder intercepts messages.
enum class PublishPath {
  kFullProtocol,  // Unmodified DEMOS/MP kernel as recorder software: 57 ms.
  kInlined,       // Subroutine calls replaced by inline routines: 12 ms.
  kMediaLayer,    // Interception at the media layer: the 0.8 ms design goal.
};

SimDuration PublishCpuCost(PublishPath path);

struct RecorderOptions {
  NodeId node{0};
  PublishPath path = PublishPath::kMediaLayer;
  // §6.6.2 node-unit mode: log per destination NODE (with execution-step
  // stamps) instead of per process; intranode traffic never reaches the wire
  // in this mode.
  bool node_unit = false;
  TransportOptions transport;
  // Multi-segment responsibility partition (src/internet).  When set, this
  // recorder records send watermarks only for frames whose *source* node it
  // is responsible for and publishes only messages whose *destination* node
  // it is responsible for; frames between two foreign nodes are in transit
  // through this segment and pass un-vetoed and unrecorded — their home
  // recorders overhear them on their own segments.  Broadcast destinations
  // inherit the source's scope (broadcasts never cross a gateway).  Null
  // (the default): responsible for every node, the single-segment paper
  // configuration.
  std::function<bool(NodeId)> responsible_for;
};

struct RecorderStats {
  uint64_t frames_seen = 0;
  uint64_t messages_published = 0;
  uint64_t bytes_published = 0;
  uint64_t acks_seen = 0;
  uint64_t control_seen = 0;
  uint64_t replay_seen = 0;
  uint64_t replay_bursts_seen = 0;    // Burst frames overheard on the wire.
  uint64_t replay_segments_seen = 0;  // Logged packets riding in those bursts.
  uint64_t checkpoints_stored = 0;
  uint64_t transit_skipped = 0;      // Neither endpoint in scope (internet).
  uint64_t foreign_dst_skipped = 0;  // Sender in scope, destination not:
                                     // watermark recorded, publish left to
                                     // the destination's home recorder.
  SimDuration publish_cpu = 0;
};

class Recorder : public PromiscuousListener, public ReadOrderFeed {
 public:
  Recorder(Simulator* sim, Medium* medium, NameService* names, StableStorage* storage,
           RecorderOptions options);
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // PromiscuousListener: returns false (veto) while down or on parse failure.
  bool OnWireFrame(const Frame& frame) override;

  // ReadOrderFeed: the kernels report each message read (models the paper's
  // passive ack tracing + out-of-order notices, §4.4.1/§4.4.2).
  void OnMessageRead(const ProcessId& reader, const MessageId& id) override;
  // §6.6.2: a node reported the scheduler position of an extranode arrival.
  void OnExtranodeArrival(NodeId node, const MessageId& id, uint64_t step) override;

  // --- Crash / restart (§3.3.4) ---
  void Crash();
  void Restart();
  bool down() const { return down_; }

  // Invoked with the pid from each kNoticeCrash trap.
  void set_crash_notice_handler(std::function<void(const ProcessId&)> handler) {
    crash_notice_handler_ = std::move(handler);
  }
  // Invoked after Restart() with the new restart number.
  void set_restart_handler(std::function<void(uint64_t)> handler) {
    restart_handler_ = std::move(handler);
  }
  // Packets addressed to the recording node that are not recorder notices
  // (recovery- and migration-process traffic) are offered to each registered
  // handler in registration order until one returns true (consumed).  The
  // recovery manager registers first; the migration manager rides behind it.
  void add_packet_handler(std::function<bool(const Packet&)> handler) {
    packet_handlers_.push_back(std::move(handler));
  }

  // Applies a creation/destruction/checkpoint notice to stable storage.
  // Normally invoked from this recorder's own endpoint; in multi-recorder
  // groups (§6.3) the secondaries overhear notices off the wire and apply
  // them here.  Returns true if the packet was a notice.
  bool ApplyNotice(const Packet& packet);

  // Records one overheard data packet.  `wire_body` is the link-unwrapped
  // frame payload — the exact SerializePacket bytes, shared with the frame —
  // and `header` its parsed header (ParsePacketHeader), all the recorder
  // reads; appending `wire_body` directly is what keeps the publish path
  // zero-copy (no re-serialization).  Returns false if this recorder is
  // down.  Factored out so a RecorderGroup can share the parse across
  // members.
  bool RecordParsedPacket(const PacketHeader& header, const Buffer& wire_body);

  // Resolves the recorder's instruments (recorder.* series) and keeps the
  // tracer for per-message publish spans.  Forwards to the owned endpoint.
  void SetObservability(const Observability& obs);

  ProcessId RecorderPid() const { return ProcessId{options_.node, NodeKernel::kKernelLocalId}; }
  NodeId node() const { return options_.node; }
  StableStorage& storage() { return *storage_; }
  const StableStorage& storage() const { return *storage_; }
  TransportEndpoint& endpoint() { return *endpoint_; }
  const RecorderStats& stats() const { return stats_; }

 private:
  void OnPacketDelivered(const Packet& packet);

  Simulator* sim_;
  NameService* names_;
  StableStorage* storage_;
  RecorderOptions options_;
  std::unique_ptr<TransportEndpoint> endpoint_;
  bool down_ = false;
  std::function<void(const ProcessId&)> crash_notice_handler_;
  std::function<void(uint64_t)> restart_handler_;
  std::vector<std::function<bool(const Packet&)>> packet_handlers_;
  RecorderStats stats_;

  // Observability handles (null = detached).
  Tracer* tracer_ = nullptr;
  LifecycleTracker* lifecycle_ = nullptr;
  Counter* obs_frames_seen_ = nullptr;
  Counter* obs_messages_published_ = nullptr;
  Counter* obs_bytes_published_ = nullptr;
  Counter* obs_checkpoints_stored_ = nullptr;
  Histogram* obs_publish_cost_ = nullptr;
  Gauge* obs_publish_cpu_ = nullptr;
};

}  // namespace publishing

#endif  // SRC_CORE_RECORDER_H_
