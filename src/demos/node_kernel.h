// The DEMOS/MP per-node message kernel (§4.2, §4.3), modified for published
// communications (§4.4–4.7).
//
// Responsibilities:
//   * link tables and the kernel-call surface user programs see (KernelApi);
//   * per-process message queues with channel-selective receive (§4.2.2.2);
//   * the kernel process: process creation/destruction, DELIVERTOKERNEL
//     process control executed "as" the controlled process (§4.4.3), watchdog
//     replies, and the recovery-side protocol (recreate, replay completion,
//     recorder state queries §3.3.4);
//   * publishing modifications (§4.4.1): with publishing enabled, every
//     message — including intranode ones — is transmitted on the network so
//     the recorder can record it; creation/destruction notices and checkpoint
//     images are sent to the recorder; message sends during recovery with
//     sequence numbers at or below the pre-crash high-water mark are
//     suppressed (§4.7).
//
// Process-control semantics: DELIVERTOKERNEL messages travel through the
// destination process's message queue and take effect in read order, so that
// replaying the published stream reproduces link-table mutations at exactly
// the same point in the process's execution (§4.4.3's MOVELINK problem).

#ifndef SRC_DEMOS_NODE_KERNEL_H_
#define SRC_DEMOS_NODE_KERNEL_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/demos/link.h"
#include "src/demos/process_image.h"
#include "src/demos/program.h"
#include "src/demos/protocol.h"
#include "src/sim/simulator.h"
#include "src/transport/endpoint.h"

namespace publishing {

class Gauge;

// Read-order feed: how the recorder learns the order in which a process
// consumed its messages.  In the paper the recorder infers this passively
// from transport acknowledgements plus explicit out-of-order notices
// (§4.4.1/§4.4.2); our transport acks do not carry read positions, so the
// kernel reports each read through this interface instead.  The information
// content is identical; see DESIGN.md.
class ReadOrderFeed {
 public:
  virtual ~ReadOrderFeed() = default;

  virtual void OnMessageRead(const ProcessId& reader, const MessageId& id) = 0;

  // Node-unit recovery (§6.6.2): an extranode message arrived when the
  // node's deterministic-scheduler event counter read `step`.  Models the
  // paper's "whenever an extranode message is received ... inform the
  // recorder of how many instructions have been executed prior to receipt".
  virtual void OnExtranodeArrival(NodeId node, const MessageId& id, uint64_t step) {
    (void)node;
    (void)id;
    (void)step;
  }
};

// Cluster-wide process location registry (models the kernels' routing
// tables, §4.3.3).  Updated on creation, destruction, and recovery; shared
// across every kernel of an internetwork.
class NameService {
 public:
  void SetLocation(const ProcessId& pid, NodeId node) { table_[pid] = node; }
  void Remove(const ProcessId& pid) { table_.erase(pid); }

  Result<NodeId> Locate(const ProcessId& pid) const {
    auto it = table_.find(pid);
    if (it == table_.end()) {
      return Status(StatusCode::kNotFound, "no location for " + ToString(pid));
    }
    return it->second;
  }

 private:
  std::unordered_map<ProcessId, NodeId> table_;
};

// Virtual CPU cost model; the Figure 5.7/5.8 benches read these back out of
// KernelStats.  Defaults are calibrated to the paper's measurements: an
// intranode send/receive pair costs ~4 ms of kernel CPU without publishing
// and ~30 ms with it, the difference being "due entirely to the network
// protocol and to the servicing of the network device interrupts" (§5.2.1).
struct KernelCosts {
  SimDuration send_cpu = Millis(2);          // Kernel-call side of a send.
  SimDuration receive_cpu = Millis(2);       // Queue manipulation on receive.
  SimDuration net_protocol_cpu = Millis(13); // Full protocol stack traversal.
  SimDuration dispatch_latency = Micros(500);
  SimDuration create_latency = Millis(2);
};

struct KernelOptions {
  // When false, intranode messages bypass the network and no recorder
  // traffic is generated — the paper's unmodified DEMOS/MP baseline.
  bool publishing_enabled = true;
  // §6.6.2: recover the node as a unit.  Intranode messages stay off the
  // network (the dominant publishing cost disappears); the kernel runs a
  // deterministic scheduler and stamps every extranode arrival with its
  // event-counter position so replay can reproduce the interleaving.
  bool node_unit_mode = false;
  NodeId recorder_node{0};
  // Where create requests are routed (the process-manager system process).
  ProcessId process_manager;
  KernelCosts costs;
  TransportOptions transport;
};

struct KernelStats {
  uint64_t sends = 0;
  uint64_t intranode_sends = 0;
  uint64_t wire_sends = 0;
  uint64_t receives = 0;
  uint64_t program_reads = 0;
  uint64_t sends_suppressed = 0;       // Recovery resend suppression (§4.7).
  uint64_t replay_accepted = 0;
  uint64_t replay_bursts_accepted = 0;  // In-order bursts unpacked (§11).
  uint64_t live_held_during_recovery = 0;
  uint64_t checkpoints_sent = 0;
  uint64_t processes_created = 0;
  uint64_t processes_destroyed = 0;
  uint64_t migrate_freezes = 0;     // Freeze barriers completed (src/migrate).
  uint64_t migrate_evictions = 0;   // Records handed off after a move.
  uint64_t migrate_forwards = 0;    // Stragglers re-sent via forwarding pointers.
  SimDuration kernel_cpu = 0;          // Accumulated virtual kernel CPU.
  SimDuration program_cpu = 0;         // Accumulated Charge()d program CPU.
};

enum class ProcessRunState : uint8_t {
  kRunning = 0,
  kStopped = 1,
  kRecovering = 2,
  kCrashed = 3,
};

class NodeKernel {
 public:
  NodeKernel(Simulator* sim, Medium* medium, NodeId node, const ProgramRegistry* registry,
             NameService* names, KernelOptions options);
  ~NodeKernel();

  NodeKernel(const NodeKernel&) = delete;
  NodeKernel& operator=(const NodeKernel&) = delete;

  // --- Bootstrap / direct control (used by Cluster and tests) ---

  // Creates a process directly on this node, bypassing the process-manager
  // chain (how system processes are started at boot, §4.2.1).  A process
  // spawned with recoverable=false is exempt from publishing (§6.6.1: "there
  // are a large number of processes which do not need to be recoverable" —
  // equipotent status commands, backups); the recorder stores nothing for it
  // and crashes of it are final.
  Result<ProcessId> SpawnProcess(const std::string& program, std::vector<Link> initial_links,
                                 bool recoverable = true);

  // Captures and publishes a checkpoint for `pid` (invoked by checkpoint
  // policies; transparent to the process, §3.2.2).  If the process is mid-
  // handler the capture is deferred until the handler completes.
  Status CheckpointProcess(const ProcessId& pid);

  // §6.6.2: captures the entire node (all processes, queues, kernel
  // counters) and publishes it as one checkpoint.  Returns kUnavailable if a
  // handler is mid-flight (callers retry on the next poll).
  Status CheckpointNode();
  Result<Bytes> CaptureNodeImage() const;

  uint64_t node_step() const { return node_step_; }
  bool node_recovering() const { return node_recovering_; }

  // --- Live migration (src/migrate) ---

  // Per-process queue depths (message queue + held live messages), sorted by
  // pid.  The elastic balancer uses this to pick the hottest process on a
  // saturated node; crashed processes are excluded.
  std::vector<std::pair<ProcessId, uint64_t>> QueueDepths() const;

  // --- Fault injection ---

  // Simulates a detected sporadic fault in one process: the process halts
  // and the kernel notifies the recovery manager (§3.3.2).
  Status CrashProcess(const ProcessId& pid);

  // Simulates a processor crash: every process is lost, the node falls
  // silent (watchdog timeouts will detect it, §4.6).
  void CrashNode();

  // Brings a crashed node back up with empty state.
  void RestartNode();

  bool node_up() const { return up_; }

  // Scheduling control (§4.2.3); also reachable over the wire via
  // kStopProcess/kStartProcess kernel-process requests.
  Status StopProcess(const ProcessId& pid);
  Status StartProcess(const ProcessId& pid);

  // --- Introspection ---

  NodeId node() const { return node_; }
  ProcessId KernelProcessId() const { return ProcessId{node_, kKernelLocalId}; }
  ProcessStateAnswer QueryProcessState(const ProcessId& pid) const;
  // Program instance for white-box assertions in tests; null if absent.
  const UserProgram* ProgramFor(const ProcessId& pid) const;
  Result<uint64_t> ReadsDone(const ProcessId& pid) const;
  std::vector<ProcessId> LiveProcesses() const;
  const KernelStats& stats() const { return stats_; }
  TransportEndpoint& endpoint() { return *endpoint_; }

  // Forwards to the transport endpoint and keeps the lifecycle sink for the
  // kernel's own stages (message reads, process recreation).
  void SetObservability(const Observability& obs);

  void set_read_order_feed(ReadOrderFeed* feed) { read_order_feed_ = feed; }

  // Wires the process-manager address once the system processes exist.
  void set_process_manager(const ProcessId& pid) { options_.process_manager = pid; }

  static constexpr uint32_t kKernelLocalId = 1;

 private:
  struct QueuedMessage {
    MessageId id;
    ProcessId from;
    uint16_t channel = 0;
    uint32_t code = 0;
    uint8_t packet_flags = 0;
    Bytes link_blob;
    Bytes body;

    bool deliver_to_kernel() const { return (packet_flags & kFlagDeliverToKernel) != 0; }
  };

  struct ProcessRecord {
    ProcessId pid;
    std::string program_name;
    std::unique_ptr<UserProgram> program;
    ProcessRunState state = ProcessRunState::kRunning;
    bool stopped = false;
    // Migration freeze barrier (kMigrateFreeze): pauses dispatch like
    // `stopped` but is NOT part of the checkpoint image — the freeze pins
    // the SOURCE record only, and the destination must restore unfrozen.
    bool frozen = false;

    std::map<uint32_t, Link> links;
    uint32_t next_link_id = 1;

    std::deque<QueuedMessage> queue;
    uint64_t next_send_seq = 1;
    uint64_t suppress_through = 0;  // Sends with seq <= this are dropped.
    uint64_t reads_done = 0;

    bool handler_busy = false;
    SimTime busy_until = 0;  // Charge()d CPU keeps the process off the queue.
    bool exit_requested = false;
    bool checkpoint_pending = false;
    // A migration freeze (kMigrateFreeze) arrived mid-handler: the barrier
    // checkpoint and freeze-ack are deferred to CompleteHandler, mirroring
    // checkpoint_pending.
    bool freeze_pending = false;
    uint64_t freeze_round = 0;
    ProcessId freeze_reply_to;
    std::vector<Link> initial_links;  // For restart-from-image bookkeeping.

    // Recovery bookkeeping (§3.3.3): live messages held until replay ends,
    // and the ids already replayed (to drop duplicates from the held set).
    std::deque<QueuedMessage> pending_live;
    FlatSet<MessageId> replayed_ids;
    uint64_t recovery_round = 0;  // Attempt nonce; stale completions ignored.

    // Pipelined replay reassembly (DESIGN.md §11): bursts unpack strictly in
    // burst_seq order; arrivals past a gap buffer here until the go-back-N
    // sender fills it.  Cumulative ack value = next_burst_seq - 1.
    uint64_t next_burst_seq = 1;
    std::map<uint64_t, std::vector<Buffer>> pending_bursts;
  };

  class ApiImpl;
  friend class ApiImpl;

  // --- Send/receive plumbing ---
  void OnPacket(const Packet& packet);
  void RouteArrival(const Packet& packet);
  void SendPacket(Packet packet);
  Status SendFromProcess(ProcessRecord& proc, const Link& link, Bytes body, Bytes link_blob);
  void SendKernelMessage(const ProcessId& dst, Bytes body, uint8_t extra_flags, Bytes link_blob);
  void NotifyRecorder(KernelOp op, const ProcessNotice& notice);

  // --- Dispatch ---
  void ScheduleDispatch(const ProcessId& pid);
  void DispatchLoop(const ProcessId& pid);
  void RunHandler(const ProcessId& pid, QueuedMessage msg);
  void CompleteHandler(const ProcessId& pid, const QueuedMessage& msg, SimDuration charged);
  bool ChannelEligible(const std::vector<uint16_t>& wanted, uint16_t channel) const;

  // --- Kernel process ---
  void HandleKernelPacket(const Packet& packet);
  void HandleDeliverToKernel(ProcessRecord& proc, const QueuedMessage& msg);
  void HandleCreateOnThisNode(const CreateProcessRequest& req, const ProcessId& requester);
  void HandleRecreateRequest(const Packet& packet);
  void HandleRecoveryComplete(const Packet& packet);
  void HandleReplayBurst(const Packet& packet);
  void UnpackReplaySegment(ProcessRecord& proc, const Buffer& segment);
  void SendReplayBurstAck(const ProcessId& dst, const ProcessRecord& proc);
  void HandleStateQuery(const Packet& packet);
  void HandleMigrateFreeze(const Packet& packet);
  void HandleMigrateEvict(const Packet& packet);
  void FinishFreeze(ProcessRecord& proc, uint64_t round, const ProcessId& reply_to);
  Result<ProcessId> CreateProcessInternal(const std::string& program,
                                          std::vector<Link> initial_links, bool recoverable);
  // `pid` is taken by value: callers pass ids that live inside the record
  // this function erases (e.g. proc.pid from HandleDeliverToKernel).
  void DestroyProcessInternal(ProcessId pid, bool notify);

  // --- Checkpoint capture ---
  ProcessImage BuildProcessImage(const ProcessRecord& proc) const;
  Bytes CaptureState(const ProcessRecord& proc) const;
  Status RestoreState(ProcessRecord& proc, const Bytes& state);
  void EmitCheckpoint(ProcessRecord& proc);

  // --- Node-unit recovery (§6.6.2) ---
  void BumpNodeStep();
  void DrainStagedReplays();
  void FinishNodeRecoveryIfDone();
  void HandleRestoreNodeRequest(const Packet& packet);
  void HandleNodeReplayMessage(const Packet& packet);
  void HandleNodeRecoveryComplete(const Packet& packet);

  ProcessRecord* Find(const ProcessId& pid);
  const ProcessRecord* Find(const ProcessId& pid) const;
  void ChargeKernel(SimDuration cpu);
  void ObserveRead(const ProcessId& reader, const QueuedMessage& msg);
  bool InService(const ProcessRecord& proc) const;
  void UpdateQueueGauge();

  Simulator* sim_;
  Medium* medium_;
  NodeId node_;
  const ProgramRegistry* registry_;
  NameService* names_;
  KernelOptions options_;
  std::unique_ptr<TransportEndpoint> endpoint_;
  ReadOrderFeed* read_order_feed_ = nullptr;
  LifecycleTracker* lifecycle_ = nullptr;

  bool up_ = true;
  uint32_t next_local_id_ = 2;  // 1 is the kernel process.
  uint64_t kernel_send_seq_ = 1;
  std::unordered_map<ProcessId, std::unique_ptr<ProcessRecord>> processes_;
  KernelStats stats_;

  // Forwarding pointers left behind by migration evictions (the §4.4.3
  // MOVELINK problem, applied to whole processes): a straggler addressed to
  // a process that moved away is re-sent to its new home under the same
  // message id.  Erased if the process is ever recreated here; lost on a
  // node crash (the restarted node never knew the process).
  std::unordered_map<ProcessId, NodeId> forward_;
  // kernel.queue_depth{node=N} gauge: total queued messages on this node
  // (per-process queues plus live messages held during recovery).  Null when
  // metrics are detached.
  Gauge* queue_depth_gauge_ = nullptr;

  // §6.6.2 deterministic-scheduler state.  node_step_ counts node events
  // (handler completions, control-message consumptions, extranode arrivals)
  // — the "instruction counter" replay synchronizes against.
  uint64_t node_step_ = 0;
  bool node_recovering_ = false;
  uint64_t node_recovery_round_ = 0;
  bool node_complete_seen_ = false;
  ProcessId node_complete_reply_to_;
  std::deque<std::pair<uint64_t, Packet>> staged_replays_;
  std::deque<Packet> node_pending_live_;
  FlatSet<MessageId> node_replayed_ids_;
  // Intranode messages between send and local delivery: they are in no
  // process queue yet, so a node checkpoint must capture them explicitly.
  std::deque<Packet> local_in_flight_;
};

}  // namespace publishing

#endif  // SRC_DEMOS_NODE_KERNEL_H_
