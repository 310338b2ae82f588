#include "src/demos/node_kernel.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/demos/node_image.h"
#include "src/demos/process_image.h"
#include "src/obs/metrics.h"

namespace publishing {

// ---------------------------------------------------------------------------
// KernelApi adapter handed to program handlers.
// ---------------------------------------------------------------------------

class NodeKernel::ApiImpl : public KernelApi {
 public:
  ApiImpl(NodeKernel* kernel, ProcessRecord* proc) : kernel_(kernel), proc_(proc) {}

  ProcessId Self() const override { return proc_->pid; }
  NodeId CurrentNode() const override { return kernel_->node_; }

  Result<LinkId> CreateLink(uint16_t channel, uint32_t code) override {
    LinkId id{proc_->next_link_id++};
    proc_->links[id.value] = Link{proc_->pid, channel, code, 0};
    return id;
  }

  Status DestroyLink(LinkId link) override {
    if (proc_->links.erase(link.value) == 0) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    return Status::Ok();
  }

  Result<LinkId> DuplicateLink(LinkId link) override {
    auto it = proc_->links.find(link.value);
    if (it == proc_->links.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    LinkId id{proc_->next_link_id++};
    proc_->links[id.value] = it->second;
    return id;
  }

  Result<Link> InspectLink(LinkId link) const override {
    auto it = proc_->links.find(link.value);
    if (it == proc_->links.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    return it->second;
  }

  Status Send(LinkId link, Bytes body, LinkId pass_link) override {
    auto it = proc_->links.find(link.value);
    if (it == proc_->links.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    Bytes link_blob;
    if (pass_link.IsValid()) {
      auto pass_it = proc_->links.find(pass_link.value);
      if (pass_it == proc_->links.end()) {
        return Status(StatusCode::kNotFound, "no such passed link");
      }
      // "The link is removed from the sender's link table and copied into
      // the message" (§4.2.2.3).
      link_blob = LinkToBytes(pass_it->second);
      proc_->links.erase(pass_it);
    }
    return kernel_->SendFromProcess(*proc_, it->second, std::move(body), std::move(link_blob));
  }

  Status RequestCreateProcess(const std::string& program, NodeId target_node,
                              uint16_t reply_channel, std::vector<LinkId> links_to_move) override {
    CreateProcessRequest req;
    req.program = program;
    req.target_node = target_node;
    req.requester = proc_->pid;
    req.reply_channel = reply_channel;
    for (LinkId id : links_to_move) {
      auto it = proc_->links.find(id.value);
      if (it == proc_->links.end()) {
        return Status(StatusCode::kNotFound, "no such link to move");
      }
      req.initial_links.push_back(it->second);
      proc_->links.erase(it);
    }
    // Route to the process manager if one is configured; otherwise straight
    // to the target node's kernel process (small single-purpose systems).
    ProcessId dst = kernel_->options_.process_manager;
    if (!dst.IsValid()) {
      NodeId node = (target_node == kAnyNode) ? kernel_->node_ : target_node;
      dst = ProcessId{node, kKernelLocalId};
    }
    Link synthetic{dst, kProcessServiceChannel, 0, 0};
    return kernel_->SendFromProcess(*proc_, synthetic, EncodeCreateProcessRequest(req), {});
  }

  void Charge(SimDuration cpu_time) override { charged_ += cpu_time; }
  void Exit() override { proc_->exit_requested = true; }

  SimDuration charged() const { return charged_; }

 private:
  NodeKernel* kernel_;
  ProcessRecord* proc_;
  SimDuration charged_ = 0;
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

NodeKernel::NodeKernel(Simulator* sim, Medium* medium, NodeId node,
                       const ProgramRegistry* registry, NameService* names,
                       KernelOptions options)
    : sim_(sim),
      medium_(medium),
      node_(node),
      registry_(registry),
      names_(names),
      options_(options) {
  endpoint_ = std::make_unique<TransportEndpoint>(
      sim_, medium_, node_, options_.transport, [this](const Packet& packet) {
        ChargeKernel(options_.costs.receive_cpu + options_.costs.net_protocol_cpu);
        ++stats_.receives;
        OnPacket(packet);
      });
  names_->SetLocation(KernelProcessId(), node_);
}

NodeKernel::~NodeKernel() = default;

void NodeKernel::ChargeKernel(SimDuration cpu) { stats_.kernel_cpu += cpu; }

// ---------------------------------------------------------------------------
// Send paths
// ---------------------------------------------------------------------------

Status NodeKernel::SendFromProcess(ProcessRecord& proc, const Link& link, Bytes body,
                                   Bytes link_blob) {
  const uint64_t seq = proc.next_send_seq++;
  ++stats_.sends;
  auto location = names_->Locate(link.dest);
  if (seq <= proc.suppress_through) {
    // The original process already sent this message before the crash; the
    // receiver has it (or the recorder will replay it).  Drop at the source
    // (§4.7: "the message kernel has been modified to not send any messages
    // with ids less than this id").
    //
    // Node-unit mode (§6.6.2) is the exception for *intranode* sends: those
    // are never published, so the restored co-resident process needs the
    // re-send — it is replaying too.
    const bool intranode_unit =
        options_.node_unit_mode && location.ok() && *location == node_;
    if (!intranode_unit) {
      ++stats_.sends_suppressed;
      return Status::Ok();
    }
  }
  if (!location.ok()) {
    return location.status();
  }
  Packet packet;
  packet.header.id = MessageId{proc.pid, seq};
  packet.header.src_process = proc.pid;
  packet.header.dst_process = link.dest;
  packet.header.src_node = node_;
  packet.header.dst_node = *location;
  packet.header.channel = link.channel;
  packet.header.code = link.code;
  packet.header.flags = kFlagGuaranteed;
  if (link.deliver_to_kernel()) {
    packet.header.flags |= kFlagDeliverToKernel;
  }
  packet.link_blob = std::move(link_blob);
  packet.body = std::move(body);
  SendPacket(std::move(packet));
  return Status::Ok();
}

void NodeKernel::SendKernelMessage(const ProcessId& dst, Bytes body, uint8_t extra_flags,
                                   Bytes link_blob) {
  auto location = names_->Locate(dst);
  if (!location.ok()) {
    PUB_LOG_DEBUG("%s: dropping kernel message to unlocatable %s", ToString(node_).c_str(),
                  ToString(dst).c_str());
    return;
  }
  Packet packet;
  packet.header.id = MessageId{KernelProcessId(), kernel_send_seq_++};
  packet.header.src_process = KernelProcessId();
  packet.header.dst_process = dst;
  packet.header.src_node = node_;
  packet.header.dst_node = *location;
  packet.header.flags = extra_flags;
  packet.link_blob = std::move(link_blob);
  packet.body = std::move(body);
  SendPacket(std::move(packet));
}

void NodeKernel::SendPacket(Packet packet) {
  if (!up_) {
    return;
  }
  // Node-unit mode keeps intranode messages off the network (§6.6.2: the
  // whole point is "not to put intranode messages onto the network").
  const bool wire_intranode = options_.publishing_enabled && !options_.node_unit_mode;
  if (wire_intranode || packet.header.dst_node != node_) {
    // §4.4.1: "we have modified the message kernel in DEMOS/MP to send all
    // messages, including intranode messages, on the network".
    ChargeKernel(options_.costs.send_cpu + options_.costs.net_protocol_cpu);
    ++stats_.wire_sends;
    endpoint_->Send(std::move(packet));
    return;
  }
  // Intranode messages short-circuit the network (the unmodified-DEMOS
  // baseline of Figure 5.7, and the whole point of node-unit mode).
  ChargeKernel(options_.costs.send_cpu);
  ++stats_.intranode_sends;
  local_in_flight_.push_back(packet);
  sim_->ScheduleAfter(options_.costs.dispatch_latency, [this, packet = std::move(packet)] {
    if (!up_) {
      return;
    }
    // Deliveries are FIFO (constant latency), so the front is this packet —
    // unless a node restore already consumed the in-flight set.
    if (!local_in_flight_.empty() && local_in_flight_.front().header.id == packet.header.id) {
      local_in_flight_.pop_front();
    } else {
      return;  // Superseded by a node restore; the image carried it.
    }
    ChargeKernel(options_.costs.receive_cpu);
    ++stats_.receives;
    // Local messages bypass the extranode bookkeeping in OnPacket: they are
    // regenerated deterministically on replay, never recorded.
    RouteArrival(packet);
  });
}

void NodeKernel::NotifyRecorder(KernelOp op, const ProcessNotice& notice) {
  if (!options_.publishing_enabled) {
    return;
  }
  ProcessId recorder{options_.recorder_node, kKernelLocalId};
  SendKernelMessage(recorder, EncodeProcessNotice(op, notice),
                    kFlagGuaranteed | kFlagControl, {});
}

// ---------------------------------------------------------------------------
// Inbound packets
// ---------------------------------------------------------------------------

void NodeKernel::OnPacket(const Packet& packet) {
  if (!up_) {
    return;
  }
  if (options_.node_unit_mode && !packet.header.control()) {
    // §6.6.2: an extranode (published) arrival.  While the node replays, it
    // is held; live, it advances the event counter and is stamped for the
    // recorder before normal routing.
    if (node_recovering_) {
      ++stats_.live_held_during_recovery;
      node_pending_live_.push_back(packet);
      return;
    }
    ++node_step_;
    if (read_order_feed_ != nullptr && options_.publishing_enabled) {
      read_order_feed_->OnExtranodeArrival(node_, packet.header.id, node_step_);
    }
  }
  RouteArrival(packet);
}

void NodeKernel::RouteArrival(const Packet& packet) {
  if (packet.header.dst_process == KernelProcessId()) {
    HandleKernelPacket(packet);
    return;
  }
  ProcessRecord* proc = Find(packet.header.dst_process);
  if (proc == nullptr) {
    auto fwd = forward_.find(packet.header.dst_process);
    if (fwd != forward_.end() && !packet.header.replay()) {
      // Migration forwarding pointer: the transport acked this arrival before
      // routing, so the original sender will never retransmit it — this node
      // must re-send it to the process's new home itself, under the same
      // message id (the destination's duplicate cache handles races with a
      // copy that took the direct path).  src_node is rewritten to this node
      // so the destination's transport ack comes back to the re-sender.
      Packet redirected = packet;
      redirected.header.src_node = node_;
      redirected.header.dst_node = fwd->second;
      ++stats_.migrate_forwards;
      SendPacket(std::move(redirected));
      return;
    }
  }
  if (proc == nullptr || proc->state == ProcessRunState::kCrashed) {
    // Unknown or halted destination: the message is still published (the
    // recorder saw it on the wire) and will be replayed after recovery.
    return;
  }

  QueuedMessage msg;
  msg.id = packet.header.id;
  msg.from = packet.header.src_process;
  msg.channel = packet.header.channel;
  msg.code = packet.header.code;
  msg.packet_flags = packet.header.flags;
  msg.link_blob = packet.link_blob;
  msg.body = packet.body;

  if (proc->state == ProcessRunState::kRecovering) {
    if (packet.header.replay()) {
      if (!proc->replayed_ids.insert(msg.id)) {
        return;  // A superseded recovery attempt already injected this one.
      }
      // Seed the duplicate cache: a live retransmission of this message may
      // still arrive after recovery completes and must be suppressed.
      endpoint_->NoteDelivered(msg.id);
      ++stats_.replay_accepted;
      proc->queue.push_back(std::move(msg));
      UpdateQueueGauge();
      ScheduleDispatch(proc->pid);
    } else {
      // §3.3.3: non-replay messages are held until the last recovery message
      // has been delivered; those the recovery process also replayed are
      // filtered by id at completion.
      ++stats_.live_held_during_recovery;
      proc->pending_live.push_back(std::move(msg));
      UpdateQueueGauge();
    }
    return;
  }
  if (packet.header.replay()) {
    // Straggler replay for a process that already finished recovering.
    return;
  }
  proc->queue.push_back(std::move(msg));
  UpdateQueueGauge();
  ScheduleDispatch(proc->pid);
}

// ---------------------------------------------------------------------------
// Dispatch / program execution
// ---------------------------------------------------------------------------

bool NodeKernel::ChannelEligible(const std::vector<uint16_t>& wanted, uint16_t channel) const {
  if (wanted.empty()) {
    return true;
  }
  return std::find(wanted.begin(), wanted.end(), channel) != wanted.end();
}

void NodeKernel::ScheduleDispatch(const ProcessId& pid) {
  sim_->ScheduleAfter(0, [this, pid] { DispatchLoop(pid); });
}

void NodeKernel::DispatchLoop(const ProcessId& pid) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr || !up_) {
    return;
  }
  for (;;) {
    if (proc->handler_busy || proc->stopped || proc->frozen ||
        proc->state == ProcessRunState::kCrashed) {
      return;
    }
    if (sim_->Now() < proc->busy_until) {
      sim_->ScheduleAt(proc->busy_until, [this, pid] { DispatchLoop(pid); });
      return;
    }
    // Pick the first message the process is willing to read.  Kernel-destined
    // (DELIVERTOKERNEL) messages are always eligible: they take effect at
    // their position in the read stream (§4.4.3).
    const std::vector<uint16_t> wanted =
        proc->program ? proc->program->ReceiveChannels() : std::vector<uint16_t>{};
    size_t index = proc->queue.size();
    for (size_t i = 0; i < proc->queue.size(); ++i) {
      if (proc->queue[i].deliver_to_kernel() || ChannelEligible(wanted, proc->queue[i].channel)) {
        index = i;
        break;
      }
    }
    if (index == proc->queue.size()) {
      return;
    }
    QueuedMessage msg = std::move(proc->queue[index]);
    proc->queue.erase(proc->queue.begin() + static_cast<ptrdiff_t>(index));
    UpdateQueueGauge();

    if (msg.deliver_to_kernel()) {
      // Consume atomically: count the read, then apply the control action
      // while "assuming the identity of the controlled process" (§4.4.3).
      ++proc->reads_done;
      ++stats_.program_reads;
      if (read_order_feed_ != nullptr && options_.publishing_enabled &&
          !options_.node_unit_mode) {
        read_order_feed_->OnMessageRead(proc->pid, msg.id);
      }
      ObserveRead(proc->pid, msg);
      HandleDeliverToKernel(*proc, msg);
      BumpNodeStep();
      if (Find(pid) == nullptr) {
        return;  // The control action destroyed the process.
      }
      continue;
    }

    proc->handler_busy = true;
    sim_->ScheduleAfter(options_.costs.dispatch_latency,
                        [this, pid, msg = std::move(msg)]() mutable {
                          RunHandler(pid, std::move(msg));
                        });
    return;
  }
}

void NodeKernel::RunHandler(const ProcessId& pid, QueuedMessage msg) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr || !up_ || proc->state == ProcessRunState::kCrashed) {
    return;
  }
  DeliveredMessage delivered;
  delivered.id = msg.id;
  delivered.from = msg.from;
  delivered.channel = msg.channel;
  delivered.code = msg.code;
  delivered.body = std::move(msg.body);
  if (!msg.link_blob.empty()) {
    auto link = LinkFromBytes(msg.link_blob);
    if (link.ok()) {
      // "When the message is read the link is moved into the receiver's link
      // table" (§4.2.2.3).
      LinkId id{proc->next_link_id++};
      proc->links[id.value] = *link;
      delivered.passed_link = id;
    }
  }

  ApiImpl api(this, proc);
  proc->program->OnMessage(api, delivered);
  CompleteHandler(pid, msg, api.charged());
}

void NodeKernel::CompleteHandler(const ProcessId& pid, const QueuedMessage& msg,
                                 SimDuration charged) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return;
  }
  ++proc->reads_done;
  ++stats_.program_reads;
  stats_.program_cpu += charged;
  if (read_order_feed_ != nullptr && options_.publishing_enabled &&
      !options_.node_unit_mode) {
    read_order_feed_->OnMessageRead(proc->pid, msg.id);
  }
  ObserveRead(proc->pid, msg);
  proc->handler_busy = false;
  proc->busy_until = sim_->Now() + charged;
  BumpNodeStep();
  if (proc->exit_requested) {
    DestroyProcessInternal(pid, /*notify=*/true);
    return;
  }
  if (proc->checkpoint_pending) {
    proc->checkpoint_pending = false;
    EmitCheckpoint(*proc);
  }
  if (proc->freeze_pending) {
    // The freeze barrier lands here, on the handler boundary.  `frozen` is
    // already set, so no further dispatch happens on this node.
    proc->freeze_pending = false;
    FinishFreeze(*proc, proc->freeze_round, proc->freeze_reply_to);
    return;
  }
  ScheduleDispatch(pid);
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

Result<ProcessId> NodeKernel::SpawnProcess(const std::string& program,
                                           std::vector<Link> initial_links, bool recoverable) {
  if (!up_) {
    return Status(StatusCode::kUnavailable, "node is down");
  }
  return CreateProcessInternal(program, std::move(initial_links), recoverable);
}

Result<ProcessId> NodeKernel::CreateProcessInternal(const std::string& program,
                                                    std::vector<Link> initial_links,
                                                    bool recoverable) {
  auto instance = registry_->Instantiate(program);
  if (!instance.ok()) {
    return instance.status();
  }
  ProcessId pid{node_, next_local_id_++};
  auto record = std::make_unique<ProcessRecord>();
  record->pid = pid;
  record->program_name = program;
  record->program = std::move(*instance);
  record->initial_links = initial_links;
  for (const Link& link : initial_links) {
    record->links[record->next_link_id++] = link;
  }
  record->handler_busy = true;  // Held until OnStart completes.
  ProcessRecord* raw = record.get();
  processes_[pid] = std::move(record);
  names_->SetLocation(pid, node_);
  ++stats_.processes_created;

  ProcessNotice notice;
  notice.pid = pid;
  notice.program = program;
  notice.initial_links = initial_links;
  notice.recoverable = recoverable;
  NotifyRecorder(KernelOp::kNoticeCreated, notice);

  sim_->ScheduleAfter(options_.costs.create_latency, [this, pid, raw] {
    ProcessRecord* proc = Find(pid);
    if (proc == nullptr || proc != raw || proc->state == ProcessRunState::kCrashed) {
      return;
    }
    ApiImpl api(this, proc);
    proc->program->OnStart(api);
    proc->handler_busy = false;
    proc->busy_until = sim_->Now() + api.charged();
    stats_.program_cpu += api.charged();
    if (proc->exit_requested) {
      DestroyProcessInternal(pid, /*notify=*/true);
      return;
    }
    ScheduleDispatch(pid);
  });
  return pid;
}

void NodeKernel::DestroyProcessInternal(ProcessId pid, bool notify) {
  auto it = processes_.find(pid);
  if (it == processes_.end()) {
    return;
  }
  std::string program = it->second->program_name;
  processes_.erase(it);
  names_->Remove(pid);
  ++stats_.processes_destroyed;
  UpdateQueueGauge();
  if (notify) {
    ProcessNotice notice;
    notice.pid = pid;
    notice.program = program;
    NotifyRecorder(KernelOp::kNoticeDestroyed, notice);
  }
}

Status NodeKernel::StopProcess(const ProcessId& pid) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return Status(StatusCode::kNotFound, "no such process");
  }
  proc->stopped = true;
  return Status::Ok();
}

Status NodeKernel::StartProcess(const ProcessId& pid) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return Status(StatusCode::kNotFound, "no such process");
  }
  proc->stopped = false;
  // Also thaws a migration freeze: the manager's abort path unfreezes the
  // source with kStartProcess when the move cannot proceed.
  proc->frozen = false;
  ScheduleDispatch(pid);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

Status NodeKernel::CrashProcess(const ProcessId& pid) {
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return Status(StatusCode::kNotFound, "no such process");
  }
  // "Such errors cause traps to the operating system kernel, which stops the
  // process and sends a message to the recovery manager" (§3.3.2).
  proc->state = ProcessRunState::kCrashed;
  proc->program.reset();
  proc->queue.clear();
  proc->pending_live.clear();
  proc->replayed_ids.clear();
  proc->pending_bursts.clear();
  proc->next_burst_seq = 1;
  proc->links.clear();
  proc->handler_busy = false;
  UpdateQueueGauge();
  if (options_.publishing_enabled) {
    ProcessId recorder{options_.recorder_node, kKernelLocalId};
    SendKernelMessage(recorder, EncodeRecoveryTarget(KernelOp::kNoticeCrash, {pid}),
                      kFlagGuaranteed | kFlagControl, {});
  }
  return Status::Ok();
}

void NodeKernel::CrashNode() {
  up_ = false;
  processes_.clear();
  endpoint_->Reset();
  endpoint_->set_online(false);
  node_step_ = 0;
  node_recovering_ = false;
  node_complete_seen_ = false;
  node_complete_reply_to_ = ProcessId{};
  staged_replays_.clear();
  node_pending_live_.clear();
  node_replayed_ids_.clear();
  local_in_flight_.clear();
  forward_.clear();  // The restarted incarnation never knew the movers.
  UpdateQueueGauge();
}

void NodeKernel::RestartNode() {
  up_ = true;
  next_local_id_ = 2;
  kernel_send_seq_ = 1;
  endpoint_->set_online(true);
}

// ---------------------------------------------------------------------------
// Kernel process: control, recovery, watchdog
// ---------------------------------------------------------------------------

void NodeKernel::HandleKernelPacket(const Packet& packet) {
  switch (PeekOp(packet.body)) {
    case KernelOp::kCreateProcessRequest: {
      auto req = DecodeCreateProcessRequest(packet.body);
      if (!req.ok()) {
        return;
      }
      HandleCreateOnThisNode(*req, req->requester);
      return;
    }
    case KernelOp::kPing: {
      auto ping = DecodePing(packet.body);
      if (!ping.ok()) {
        return;
      }
      SendKernelMessage(packet.header.src_process, EncodePing(KernelOp::kPong, *ping),
                        kFlagControl, {});
      return;
    }
    case KernelOp::kStopProcess: {
      auto target = DecodeRecoveryTarget(packet.body);
      if (target.ok()) {
        StopProcess(target->pid);
      }
      return;
    }
    case KernelOp::kStartProcess: {
      auto target = DecodeRecoveryTarget(packet.body);
      if (target.ok()) {
        StartProcess(target->pid);
      }
      return;
    }
    case KernelOp::kRecreateRequest:
      HandleRecreateRequest(packet);
      return;
    case KernelOp::kRecoveryComplete:
      HandleRecoveryComplete(packet);
      return;
    case KernelOp::kReplayBurst:
      HandleReplayBurst(packet);
      return;
    case KernelOp::kSetLocalIdFloor: {
      auto floor = DecodeLocalIdFloor(packet.body);
      if (floor.ok()) {
        next_local_id_ = std::max(next_local_id_, floor->floor + 1);
        kernel_send_seq_ = std::max(kernel_send_seq_, floor->kernel_seq_floor + 1);
      }
      return;
    }
    case KernelOp::kStateQuery:
      HandleStateQuery(packet);
      return;
    case KernelOp::kMigrateFreeze:
      HandleMigrateFreeze(packet);
      return;
    case KernelOp::kMigrateEvict:
      HandleMigrateEvict(packet);
      return;
    case KernelOp::kRestoreNodeRequest:
      HandleRestoreNodeRequest(packet);
      return;
    case KernelOp::kNodeReplayMessage:
      HandleNodeReplayMessage(packet);
      return;
    case KernelOp::kNodeRecoveryComplete:
      HandleNodeRecoveryComplete(packet);
      return;
    default:
      PUB_LOG_DEBUG("%s: unhandled kernel op %u", ToString(node_).c_str(),
                    static_cast<unsigned>(PeekOp(packet.body)));
      return;
  }
}

void NodeKernel::HandleDeliverToKernel(ProcessRecord& proc, const QueuedMessage& msg) {
  switch (PeekOp(msg.body)) {
    case KernelOp::kMoveLink: {
      if (msg.link_blob.empty()) {
        return;
      }
      auto link = LinkFromBytes(msg.link_blob);
      if (link.ok()) {
        proc.links[proc.next_link_id++] = *link;
      }
      return;
    }
    case KernelOp::kDestroyProcess:
      DestroyProcessInternal(proc.pid, /*notify=*/true);
      return;
    case KernelOp::kStopProcess:
      proc.stopped = true;
      return;
    case KernelOp::kStartProcess:
      proc.stopped = false;
      return;
    default:
      return;
  }
}

void NodeKernel::HandleCreateOnThisNode(const CreateProcessRequest& req,
                                        const ProcessId& requester) {
  CreateProcessReply reply;
  auto created = CreateProcessInternal(req.program, req.initial_links, /*recoverable=*/true);
  reply.ok = created.ok();
  Bytes dtk_blob;
  if (created.ok()) {
    reply.created = *created;
    Link dtk{*created, req.reply_channel, 0, kLinkDeliverToKernel};
    dtk_blob = LinkToBytes(dtk);
  }
  if (requester.IsValid()) {
    // The reply — and the DELIVERTOKERNEL link granting control of the new
    // process — goes back to the requester as an ordinary published message.
    Packet packet;
    packet.header.id = MessageId{KernelProcessId(), kernel_send_seq_++};
    packet.header.src_process = KernelProcessId();
    packet.header.dst_process = requester;
    packet.header.src_node = node_;
    packet.header.flags = kFlagGuaranteed;
    packet.header.channel = req.reply_channel;
    auto location = names_->Locate(requester);
    if (!location.ok()) {
      return;
    }
    packet.header.dst_node = *location;
    packet.link_blob = std::move(dtk_blob);
    packet.body = EncodeCreateProcessReply(reply);
    SendPacket(std::move(packet));
  }
}

void NodeKernel::SetObservability(const Observability& obs) {
  endpoint_->SetObservability(obs);
  lifecycle_ = obs.lifecycle;
  queue_depth_gauge_ =
      obs.metrics == nullptr
          ? nullptr
          : obs.metrics->GetGauge("kernel.queue_depth",
                                  {{"node", std::to_string(node_.value)}});
  UpdateQueueGauge();
}

// A message being served counts toward queue depth: on a CPU-bound node the
// backlog drains into handler charges as fast as it arrives, so queues read
// near-empty while every handler is pinned — exactly the saturation the
// depth signal exists to expose (the ElasticBalancer keys off it).
bool NodeKernel::InService(const ProcessRecord& proc) const {
  return proc.handler_busy || proc.busy_until > sim_->Now();
}

void NodeKernel::UpdateQueueGauge() {
  if (queue_depth_gauge_ == nullptr) {
    return;
  }
  uint64_t total = 0;
  for (const auto& [pid, proc] : processes_) {
    total += proc->queue.size() + proc->pending_live.size();
    total += InService(*proc) ? 1 : 0;
  }
  queue_depth_gauge_->Set(static_cast<double>(total));
}

std::vector<std::pair<ProcessId, uint64_t>> NodeKernel::QueueDepths() const {
  std::vector<std::pair<ProcessId, uint64_t>> out;
  for (const auto& [pid, proc] : processes_) {
    if (proc->state == ProcessRunState::kCrashed) {
      continue;
    }
    out.emplace_back(pid, proc->queue.size() + proc->pending_live.size() +
                              (InService(*proc) ? 1 : 0));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void NodeKernel::ObserveRead(const ProcessId& reader, const QueuedMessage& msg) {
  if (lifecycle_ == nullptr) {
    return;
  }
  CausalContext ctx;
  ctx.id = msg.id;
  ctx.origin = msg.id.sender.origin;
  ctx.flags = msg.packet_flags;
  lifecycle_->Observe(ctx, LifecycleStage::kRead, node_, reader);
}

void NodeKernel::HandleRecreateRequest(const Packet& packet) {
  auto req = DecodeRecreateRequest(packet.body);
  if (!req.ok()) {
    return;
  }
  // "If the process already exists, it is destroyed" (§4.7).
  DestroyProcessInternal(req->pid, /*notify=*/false);
  processes_.erase(req->pid);
  // The process lives here again: a stale migration forwarding pointer would
  // otherwise bounce its messages away (or loop, if it migrated back).
  forward_.erase(req->pid);
  // New incarnation: per-incarnation invariants (duplicate delivery,
  // receive-order across recovery) roll their state here.
  if (lifecycle_ != nullptr) {
    lifecycle_->NoteProcessReset(req->pid);
  }

  auto instance = registry_->Instantiate(req->program);
  if (!instance.ok()) {
    PUB_LOG_ERROR("%s: cannot recreate %s: no program '%s'", ToString(node_).c_str(),
                  ToString(req->pid).c_str(), req->program.c_str());
    return;
  }
  auto record = std::make_unique<ProcessRecord>();
  record->pid = req->pid;
  record->program_name = req->program;
  record->program = std::move(*instance);
  record->state = ProcessRunState::kRecovering;
  record->suppress_through = req->last_sent_seq;
  record->recovery_round = req->recovery_round;

  if (req->has_checkpoint) {
    Status restored = RestoreState(*record, req->checkpoint_state);
    if (!restored.ok()) {
      PUB_LOG_ERROR("%s: checkpoint restore failed for %s: %s", ToString(node_).c_str(),
                    ToString(req->pid).c_str(), restored.ToString().c_str());
      return;
    }
    // suppress_through comes from the recorder, not the (older) checkpoint.
    record->suppress_through = req->last_sent_seq;
  } else {
    // Restart from the binary image: initial links, then OnStart re-runs
    // with its sends suppressed.
    record->initial_links = req->initial_links;
    for (const Link& link : req->initial_links) {
      record->links[record->next_link_id++] = link;
    }
    record->handler_busy = true;
    ProcessId pid = req->pid;
    sim_->ScheduleAfter(options_.costs.create_latency, [this, pid] {
      ProcessRecord* proc = Find(pid);
      if (proc == nullptr || proc->program == nullptr) {
        return;
      }
      ApiImpl api(this, proc);
      proc->program->OnStart(api);
      proc->handler_busy = false;
      proc->busy_until = sim_->Now() + api.charged();
      stats_.program_cpu += api.charged();
      ScheduleDispatch(pid);
    });
  }
  ProcessId pid = req->pid;
  processes_[pid] = std::move(record);
  names_->SetLocation(pid, node_);

  SendKernelMessage(packet.header.src_process,
                    EncodeRecoveryTarget(KernelOp::kRecreateAck, {pid, req->recovery_round}),
                    kFlagGuaranteed | kFlagControl, {});
}

void NodeKernel::HandleReplayBurst(const Packet& packet) {
  auto burst = DecodeReplayBurst(packet.body);
  if (!burst.ok()) {
    return;
  }
  ProcessRecord* proc = Find(burst->pid);
  if (proc == nullptr || proc->state != ProcessRunState::kRecovering ||
      proc->recovery_round != burst->recovery_round) {
    return;  // Stale attempt (§3.5) or not recovering: drop, no ack.
  }
  if (packet.segments.size() != burst->segment_count) {
    return;  // Garbled gather frame: let the sender's timer resend it.
  }
  if (burst->burst_seq < proc->next_burst_seq) {
    // Duplicate of an already-unpacked burst (our ack was lost, or a
    // go-back-N resend overlapped it): re-ack so the sender advances.
    SendReplayBurstAck(packet.header.src_process, *proc);
    return;
  }
  proc->pending_bursts[burst->burst_seq] = packet.segments;
  // Unpack strictly in burst_seq order — this is what preserves the paper's
  // replay-in-recorded-read-order semantics across an unordered window.
  for (auto it = proc->pending_bursts.find(proc->next_burst_seq);
       it != proc->pending_bursts.end();
       it = proc->pending_bursts.find(proc->next_burst_seq)) {
    std::vector<Buffer> segments = std::move(it->second);
    proc->pending_bursts.erase(it);
    ++proc->next_burst_seq;
    ++stats_.replay_bursts_accepted;
    for (const Buffer& segment : segments) {
      UnpackReplaySegment(*proc, segment);
    }
    // Unpacking can crash the process recursively; stop if the record is
    // no longer the same recovering incarnation.
    proc = Find(burst->pid);
    if (proc == nullptr || proc->state != ProcessRunState::kRecovering ||
        proc->recovery_round != burst->recovery_round) {
      return;
    }
  }
  SendReplayBurstAck(packet.header.src_process, *proc);
}

void NodeKernel::UnpackReplaySegment(ProcessRecord& proc, const Buffer& segment) {
  auto packet = ParsePacket(segment);
  if (!packet.ok()) {
    PUB_LOG_ERROR("%s: corrupt replay segment for %s", ToString(node_).c_str(),
                  ToString(proc.pid).c_str());
    return;
  }
  packet->header.flags |= kFlagReplay | kFlagGuaranteed;
  packet->header.dst_node = node_;
  // The lifecycle's `replayed` stage counts once per message per recovery
  // round: the in-order unpack above already drops whole duplicate bursts,
  // and replayed_ids filters re-injections across superseded rounds.
  if (lifecycle_ != nullptr && !proc.replayed_ids.contains(packet->header.id)) {
    CausalContext ctx;
    ctx.id = packet->header.id;
    ctx.origin = packet->header.src_node;
    ctx.flags = packet->header.flags;
    lifecycle_->Observe(ctx, LifecycleStage::kReplayed, node_, packet->header.dst_process);
  }
  RouteArrival(*packet);
}

void NodeKernel::SendReplayBurstAck(const ProcessId& dst, const ProcessRecord& proc) {
  // Unguaranteed: a lost ack just means the sender's go-back-N timer fires
  // and the duplicate burst is re-acked above.
  SendKernelMessage(dst,
                    EncodeReplayBurstAck({proc.pid, proc.recovery_round,
                                          proc.next_burst_seq - 1}),
                    kFlagControl, {});
}

void NodeKernel::HandleRecoveryComplete(const Packet& packet) {
  auto target = DecodeRecoveryTarget(packet.body);
  if (!target.ok()) {
    return;
  }
  ProcessRecord* proc = Find(target->pid);
  if (proc != nullptr && proc->state == ProcessRunState::kRecovering &&
      proc->recovery_round == target->recovery_round) {
    // Release live messages that were held during replay, minus those the
    // recovery process also delivered (id filter, §3.3.3).
    for (QueuedMessage& msg : proc->pending_live) {
      if (!proc->replayed_ids.contains(msg.id)) {
        proc->queue.push_back(std::move(msg));
      }
    }
    proc->pending_live.clear();
    proc->replayed_ids.clear();
    proc->pending_bursts.clear();
    proc->next_burst_seq = 1;
    proc->state = ProcessRunState::kRunning;
    UpdateQueueGauge();
    ScheduleDispatch(proc->pid);
  }
  SendKernelMessage(
      packet.header.src_process,
      EncodeRecoveryTarget(KernelOp::kRecoveryCompleteAck,
                           {target->pid, target->recovery_round}),
      kFlagGuaranteed | kFlagControl, {});
}

// ---------------------------------------------------------------------------
// Live migration (src/migrate)
// ---------------------------------------------------------------------------

void NodeKernel::HandleMigrateFreeze(const Packet& packet) {
  auto target = DecodeRecoveryTarget(packet.body);
  if (!target.ok()) {
    return;
  }
  ProcessRecord* proc = Find(target->pid);
  // The kernel serializes freeze against every competing state: a crashed or
  // recovering process is already owned by the recovery protocol, a stopped
  // one is owned by whoever stopped it, a frozen one by a concurrent move.
  // Nack and let the manager abort.
  if (proc == nullptr || proc->state != ProcessRunState::kRunning || proc->stopped ||
      proc->frozen) {
    MigrateFreezeAck nack;
    nack.pid = target->pid;
    nack.migration_round = target->recovery_round;
    SendKernelMessage(packet.header.src_process, EncodeMigrateFreezeAck(nack),
                      kFlagGuaranteed | kFlagControl, {});
    return;
  }
  // The freeze barrier: no further message is dispatched to the process on
  // this node.  Anything it was mid-way through finishes first — the barrier
  // checkpoint must land on a handler boundary.  `frozen`, not `stopped`:
  // the flag pins only this record, never the checkpoint image, so the
  // destination restores the process runnable.
  proc->frozen = true;
  if (proc->handler_busy) {
    proc->freeze_pending = true;
    proc->freeze_round = target->recovery_round;
    proc->freeze_reply_to = packet.header.src_process;
    return;
  }
  FinishFreeze(*proc, target->recovery_round, packet.header.src_process);
}

void NodeKernel::FinishFreeze(ProcessRecord& proc, uint64_t round,
                              const ProcessId& reply_to) {
  // Checkpoint first, ack second: the per-destination stop-and-wait transport
  // delivers both to the recorder's node in order, so by the time the
  // migration manager sees ok=true the barrier image is already stored.
  EmitCheckpoint(proc);
  ++stats_.migrate_freezes;
  MigrateFreezeAck ack;
  ack.pid = proc.pid;
  ack.migration_round = round;
  ack.ok = true;
  ack.reads_done = proc.reads_done;
  SendKernelMessage(reply_to, EncodeMigrateFreezeAck(ack),
                    kFlagGuaranteed | kFlagControl, {});
}

void NodeKernel::HandleMigrateEvict(const Packet& packet) {
  auto evict = DecodeMigrateEvict(packet.body);
  if (!evict.ok()) {
    return;
  }
  // The record dies silently: no destruction notice (the process lives on at
  // the destination) and no name-table removal (the manager already
  // re-pointed the name there).
  auto it = processes_.find(evict->pid);
  if (it != processes_.end()) {
    // Freeze-window stragglers: frames that arrived between the barrier
    // checkpoint and this evict were acked by the transport (so the sender
    // will never retransmit) and post-date the exported image (so the new
    // home never saw them).  Destroying the queue would lose them outright —
    // re-send each under its original id; the destination's duplicate cache
    // filters any copy that raced there directly.
    ProcessRecord& proc = *it->second;
    auto redirect = [&](const QueuedMessage& msg) {
      Packet fwd;
      fwd.header.id = msg.id;
      fwd.header.src_process = msg.from;
      fwd.header.src_node = node_;
      fwd.header.dst_process = proc.pid;
      fwd.header.dst_node = evict->forward_node;
      fwd.header.channel = msg.channel;
      fwd.header.code = msg.code;
      fwd.header.flags = msg.packet_flags;
      fwd.link_blob = msg.link_blob;
      fwd.body = msg.body;
      ++stats_.migrate_forwards;
      SendPacket(std::move(fwd));
    };
    for (const QueuedMessage& msg : proc.queue) {
      redirect(msg);
    }
    for (const QueuedMessage& msg : proc.pending_live) {
      redirect(msg);
    }
    processes_.erase(it);
    ++stats_.migrate_evictions;
  }
  forward_[evict->pid] = evict->forward_node;
  UpdateQueueGauge();
}

void NodeKernel::HandleStateQuery(const Packet& packet) {
  auto query = DecodeStateQuery(packet.body);
  if (!query.ok()) {
    return;
  }
  StateReply reply;
  reply.restart_number = query->restart_number;
  reply.node = node_;
  for (const ProcessId& pid : query->pids) {
    reply.answers.emplace_back(pid, QueryProcessState(pid));
  }
  SendKernelMessage(packet.header.src_process, EncodeStateReply(reply),
                    kFlagGuaranteed | kFlagControl, {});
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

Status NodeKernel::CheckpointProcess(const ProcessId& pid) {
  if (!options_.publishing_enabled) {
    return Status(StatusCode::kUnavailable, "publishing disabled");
  }
  ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return Status(StatusCode::kNotFound, "no such process");
  }
  if (proc->state != ProcessRunState::kRunning) {
    return Status(StatusCode::kUnavailable, "process not in a checkpointable state");
  }
  if (proc->handler_busy) {
    proc->checkpoint_pending = true;  // Captured when the handler completes.
    return Status::Ok();
  }
  EmitCheckpoint(*proc);
  return Status::Ok();
}

void NodeKernel::EmitCheckpoint(ProcessRecord& proc) {
  CheckpointPayload payload;
  payload.pid = proc.pid;
  payload.reads_done = proc.reads_done;
  payload.state = CaptureState(proc);
  ++stats_.checkpoints_sent;
  ProcessId recorder{options_.recorder_node, kKernelLocalId};
  SendKernelMessage(recorder, EncodeCheckpoint(payload), kFlagGuaranteed | kFlagControl, {});
}

ProcessImage NodeKernel::BuildProcessImage(const ProcessRecord& proc) const {
  ProcessImage image;
  image.program_name = proc.program_name;
  image.stopped = proc.stopped;
  image.next_send_seq = proc.next_send_seq;
  image.reads_done = proc.reads_done;
  image.next_link_id = proc.next_link_id;
  for (const auto& [id, link] : proc.links) {
    image.links.emplace_back(id, link);
  }
  Writer program_state;
  proc.program->SaveState(program_state);
  image.program_state = program_state.TakeBytes();
  return image;
}

Bytes NodeKernel::CaptureState(const ProcessRecord& proc) const {
  return EncodeProcessImage(BuildProcessImage(proc));
}

Status NodeKernel::RestoreState(ProcessRecord& proc, const Bytes& state) {
  auto image = DecodeProcessImage(state);
  if (!image.ok()) {
    return image.status();
  }
  proc.stopped = image->stopped;
  proc.next_send_seq = image->next_send_seq;
  proc.reads_done = image->reads_done;
  proc.next_link_id = image->next_link_id;
  proc.links.clear();
  for (const auto& [id, link] : image->links) {
    proc.links[id] = link;
  }
  Reader pr(std::span<const uint8_t>(image->program_state.data(), image->program_state.size()));
  return proc.program->LoadState(pr);
}

// ---------------------------------------------------------------------------
// Node-unit recovery (§6.6.2)
// ---------------------------------------------------------------------------

void NodeKernel::BumpNodeStep() {
  ++node_step_;
  if (node_recovering_) {
    DrainStagedReplays();
  }
}

void NodeKernel::DrainStagedReplays() {
  // Inject each staged extranode message exactly when the event counter
  // reaches the position at which the original run received it ("the
  // recovering node will not use the message until that time", §6.6.2).
  while (!staged_replays_.empty() && staged_replays_.front().first == node_step_ + 1) {
    Packet packet = std::move(staged_replays_.front().second);
    staged_replays_.pop_front();
    ++node_step_;
    ++stats_.replay_accepted;
    RouteArrival(packet);
  }
  FinishNodeRecoveryIfDone();
}

void NodeKernel::FinishNodeRecoveryIfDone() {
  if (!node_recovering_ || !node_complete_seen_ || !staged_replays_.empty()) {
    return;
  }
  node_recovering_ = false;
  node_complete_seen_ = false;
  // Release extranode messages that arrived during the replay, minus those
  // the replay itself delivered.
  std::deque<Packet> pending = std::move(node_pending_live_);
  node_pending_live_.clear();
  for (Packet& packet : pending) {
    if (node_replayed_ids_.contains(packet.header.id)) {
      continue;
    }
    ++node_step_;
    if (read_order_feed_ != nullptr && options_.publishing_enabled) {
      read_order_feed_->OnExtranodeArrival(node_, packet.header.id, node_step_);
    }
    RouteArrival(packet);
  }
  node_replayed_ids_.clear();
  if (node_complete_reply_to_.IsValid()) {
    SendKernelMessage(
        node_complete_reply_to_,
        EncodeNodeRecoveryRound(KernelOp::kNodeRecoveryCompleteAck,
                                {node_, node_recovery_round_}),
        kFlagGuaranteed | kFlagControl, {});
    node_complete_reply_to_ = ProcessId{};
  }
  PUB_LOG_INFO("%s: node-unit recovery complete at step %llu", ToString(node_).c_str(),
               static_cast<unsigned long long>(node_step_));
}

void NodeKernel::HandleRestoreNodeRequest(const Packet& packet) {
  auto req = DecodeRestoreNodeRequest(packet.body);
  if (!req.ok() || req->node != node_) {
    return;
  }
  // Wipe the incarnation: every process, the transport's in-flight state,
  // the scheduler counter.
  processes_.clear();
  endpoint_->Reset();
  staged_replays_.clear();
  node_pending_live_.clear();
  node_replayed_ids_.clear();
  local_in_flight_.clear();  // The wiped incarnation's deliveries die with it.
  node_recovering_ = true;
  node_complete_seen_ = false;
  node_recovery_round_ = req->recovery_round;
  node_step_ = 0;
  next_local_id_ = 2;
  kernel_send_seq_ = 1;

  std::map<ProcessId, uint64_t> last_sent(req->last_sent.begin(), req->last_sent.end());
  // Jump the kernel-process sequence well past anything the dead incarnation
  // may have consumed (including unpublished control traffic the recorder
  // never saw; the stride bounds that slack).
  auto kernel_floor = last_sent.find(KernelProcessId());
  if (kernel_floor != last_sent.end()) {
    kernel_send_seq_ = std::max(kernel_send_seq_, kernel_floor->second + (uint64_t{1} << 20));
  }
  if (req->has_image) {
    auto image = DecodeNodeImage(req->image);
    if (!image.ok()) {
      PUB_LOG_ERROR("%s: corrupt node image: %s", ToString(node_).c_str(),
                    image.status().ToString().c_str());
      return;
    }
    node_step_ = image->node_step;
    next_local_id_ = image->next_local_id;
    // max(): keep the anti-reuse floor applied above.
    kernel_send_seq_ = std::max(kernel_send_seq_, image->kernel_send_seq);
    for (const NodeProcessEntry& entry : image->processes) {
      auto instance = registry_->Instantiate(entry.image.program_name);
      if (!instance.ok()) {
        PUB_LOG_ERROR("%s: cannot restore %s: no program '%s'", ToString(node_).c_str(),
                      ToString(entry.pid).c_str(), entry.image.program_name.c_str());
        continue;
      }
      auto record = std::make_unique<ProcessRecord>();
      record->pid = entry.pid;
      record->program_name = entry.image.program_name;
      record->program = std::move(*instance);
      Status restored = RestoreState(*record, EncodeProcessImage(entry.image));
      if (!restored.ok()) {
        PUB_LOG_ERROR("%s: node image restore failed for %s", ToString(node_).c_str(),
                      ToString(entry.pid).c_str());
        continue;
      }
      auto sent_it = last_sent.find(entry.pid);
      record->suppress_through = sent_it == last_sent.end() ? 0 : sent_it->second;
      for (const QueuedMessageImage& msg : entry.queue) {
        QueuedMessage queued;
        queued.id = msg.id;
        queued.from = msg.from;
        queued.channel = msg.channel;
        queued.code = msg.code;
        queued.packet_flags = msg.packet_flags;
        queued.link_blob = msg.link_blob;
        queued.body = msg.body;
        record->queue.push_back(std::move(queued));
      }
      ProcessId pid = entry.pid;
      processes_[pid] = std::move(record);
      names_->SetLocation(pid, node_);
      ScheduleDispatch(pid);
    }
  }
  SendKernelMessage(packet.header.src_process,
                    EncodeNodeRecoveryRound(KernelOp::kRestoreNodeAck,
                                            {node_, req->recovery_round}),
                    kFlagGuaranteed | kFlagControl, {});
  DrainStagedReplays();
}

void NodeKernel::HandleNodeReplayMessage(const Packet& packet) {
  if (!node_recovering_) {
    return;  // Stale replay from a superseded attempt.
  }
  auto replay = DecodeNodeReplayMessage(packet.body);
  if (!replay.ok()) {
    return;
  }
  auto original = ParsePacket(replay->packet);
  if (!original.ok()) {
    return;
  }
  node_replayed_ids_.insert(original->header.id);
  // A live retransmission of the same message may still be in flight.
  endpoint_->NoteDelivered(original->header.id);
  staged_replays_.emplace_back(replay->step, std::move(*original));
  DrainStagedReplays();
}

void NodeKernel::HandleNodeRecoveryComplete(const Packet& packet) {
  auto round = DecodeNodeRecoveryRound(packet.body);
  if (!round.ok()) {
    return;
  }
  if (!node_recovering_ || round->recovery_round != node_recovery_round_) {
    // Stale attempt: acknowledge so the old recovery process terminates.
    SendKernelMessage(packet.header.src_process,
                      EncodeNodeRecoveryRound(KernelOp::kNodeRecoveryCompleteAck, *round),
                      kFlagGuaranteed | kFlagControl, {});
    return;
  }
  node_complete_seen_ = true;
  node_complete_reply_to_ = packet.header.src_process;
  FinishNodeRecoveryIfDone();
}

Result<Bytes> NodeKernel::CaptureNodeImage() const {
  if (node_recovering_) {
    return Status(StatusCode::kUnavailable, "node is recovering");
  }
  NodeImage image;
  image.node = node_;
  image.node_step = node_step_;
  image.next_local_id = next_local_id_;
  image.kernel_send_seq = kernel_send_seq_;
  for (const auto& [pid, proc] : processes_) {
    if (proc->state == ProcessRunState::kCrashed) {
      continue;
    }
    if (proc->handler_busy) {
      return Status(StatusCode::kUnavailable, "a handler is mid-flight; retry");
    }
    NodeProcessEntry entry;
    entry.pid = pid;
    entry.image = BuildProcessImage(*proc);
    for (const QueuedMessage& msg : proc->queue) {
      QueuedMessageImage queued;
      queued.id = msg.id;
      queued.from = msg.from;
      queued.channel = msg.channel;
      queued.code = msg.code;
      queued.packet_flags = msg.packet_flags;
      queued.link_blob = msg.link_blob;
      queued.body = msg.body;
      entry.queue.push_back(std::move(queued));
    }
    image.processes.push_back(std::move(entry));
  }
  // Deterministic ordering for bit-identical images.
  std::sort(image.processes.begin(), image.processes.end(),
            [](const NodeProcessEntry& a, const NodeProcessEntry& b) { return a.pid < b.pid; });
  // Intranode messages between send and delivery exist in no queue yet; fold
  // them into their destinations' queues (they would arrive next anyway).
  for (const Packet& packet : local_in_flight_) {
    NodeProcessEntry* entry = nullptr;
    for (NodeProcessEntry& candidate : image.processes) {
      if (candidate.pid == packet.header.dst_process) {
        entry = &candidate;
        break;
      }
    }
    if (entry == nullptr) {
      // Kernel-addressed (instant-execution) message in flight: no queue can
      // hold it; wait for a quieter instant.
      return Status(StatusCode::kUnavailable, "kernel-bound intranode message in flight");
    }
    QueuedMessageImage queued;
    queued.id = packet.header.id;
    queued.from = packet.header.src_process;
    queued.channel = packet.header.channel;
    queued.code = packet.header.code;
    queued.packet_flags = packet.header.flags;
    queued.link_blob = packet.link_blob;
    queued.body = packet.body;
    entry->queue.push_back(std::move(queued));
  }
  return EncodeNodeImage(image);
}

Status NodeKernel::CheckpointNode() {
  if (!options_.publishing_enabled || !options_.node_unit_mode) {
    return Status(StatusCode::kUnavailable, "node-unit mode is off");
  }
  auto image = CaptureNodeImage();
  if (!image.ok()) {
    return image.status();
  }
  NodeCheckpointPayload payload;
  payload.node = node_;
  payload.node_step = node_step_;
  payload.image = std::move(*image);
  ++stats_.checkpoints_sent;
  ProcessId recorder{options_.recorder_node, kKernelLocalId};
  SendKernelMessage(recorder, EncodeNodeCheckpoint(payload), kFlagGuaranteed | kFlagControl,
                    {});
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

ProcessStateAnswer NodeKernel::QueryProcessState(const ProcessId& pid) const {
  const ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return ProcessStateAnswer::kUnknown;
  }
  switch (proc->state) {
    case ProcessRunState::kRunning:
    case ProcessRunState::kStopped:
      return ProcessStateAnswer::kFunctioning;
    case ProcessRunState::kRecovering:
      return ProcessStateAnswer::kRecovering;
    case ProcessRunState::kCrashed:
      return ProcessStateAnswer::kCrashed;
  }
  return ProcessStateAnswer::kUnknown;
}

const UserProgram* NodeKernel::ProgramFor(const ProcessId& pid) const {
  const ProcessRecord* proc = Find(pid);
  return proc == nullptr ? nullptr : proc->program.get();
}

Result<uint64_t> NodeKernel::ReadsDone(const ProcessId& pid) const {
  const ProcessRecord* proc = Find(pid);
  if (proc == nullptr) {
    return Status(StatusCode::kNotFound, "no such process");
  }
  return proc->reads_done;
}

std::vector<ProcessId> NodeKernel::LiveProcesses() const {
  std::vector<ProcessId> out;
  for (const auto& [pid, proc] : processes_) {
    if (proc->state != ProcessRunState::kCrashed) {
      out.push_back(pid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

NodeKernel::ProcessRecord* NodeKernel::Find(const ProcessId& pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

const NodeKernel::ProcessRecord* NodeKernel::Find(const ProcessId& pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

}  // namespace publishing
