#include "src/core/recorder_group.h"

#include <optional>

#include "src/net/link_layer.h"

namespace publishing {

RecorderGroup::RecorderGroup(Cluster* cluster, size_t member_count,
                             RecoveryManagerOptions recovery_options,
                             BackendFactory backend_factory)
    : cluster_(cluster) {
  for (size_t i = 0; i < member_count; ++i) {
    auto member = std::make_unique<Member>();
    member->storage = std::make_unique<StableStorage>();
    if (backend_factory) {
      member->backend = backend_factory(i);
      if (member->backend != nullptr) {
        member->storage->AttachBackend(member->backend.get());
      }
    }
    RecorderOptions options;
    options.node = (i == 0) ? Cluster::kRecorderNode : NodeId{1000 + static_cast<uint32_t>(i)};
    member->recorder = std::make_unique<Recorder>(&cluster_->sim(), &cluster_->medium(),
                                                  &cluster_->names(), member->storage.get(),
                                                  options);
    // The group is the sole promiscuous listener; members only keep their
    // endpoints attached.
    cluster_->medium().DetachListener(member->recorder.get());
    member->manager = std::make_unique<RecoveryManager>(cluster_, member->recorder.get(),
                                                        recovery_options);
    const size_t index = i;
    member->manager->set_responsibility_filter([this, index](NodeId node) {
      auto responsible = ResponsibleFor(node);
      return responsible.ok() && *responsible == index;
    });
    member->manager->Start();
    members_.push_back(std::move(member));
  }
  cluster_->medium().AttachListener(this);
  for (NodeId node : cluster_->node_ids()) {
    cluster_->kernel(node)->set_read_order_feed(this);
  }
}

RecorderGroup::~RecorderGroup() { cluster_->medium().DetachListener(this); }

bool RecorderGroup::OnWireFrame(const Frame& frame) {
  // Parse once, fan out to every functioning member.
  if (frame.type == FrameType::kAck) {
    bool any_up = false;
    for (auto& member : members_) {
      if (!member->recorder->down()) {
        any_up = true;
        member->recorder->OnWireFrame(frame);
      }
    }
    return any_up;
  }
  if (frame.src == Cluster::kRecorderNode || frame.src.value >= 1000) {
    return true;  // One of our own transmissions.
  }
  auto body = LinkUnwrap(frame.payload);
  if (!body.ok()) {
    return false;
  }
  auto header = ParsePacketHeader(*body);
  if (!header.ok()) {
    return false;
  }
  // Recording reads only the header.  The body is parsed only for a notice
  // a secondary applies, once per frame.
  const bool is_notice =
      header->control() &&
      header->dst_process == ProcessId{Cluster::kRecorderNode, NodeKernel::kKernelLocalId};
  std::optional<Packet> notice;

  bool any_up = false;
  bool all_functioning_recorded = true;
  for (auto& member : members_) {
    if (member->recorder->down()) {
      continue;
    }
    any_up = true;
    if (!member->recorder->RecordParsedPacket(*header, *body)) {
      all_functioning_recorded = false;
    }
    // Secondaries overhear the notices the primary receives over its
    // endpoint; applying them at the tap keeps every member's database
    // current (idempotent, so the primary applying twice is harmless —
    // except for the primary itself, which applies via its endpoint).
    if (member->recorder->node() != Cluster::kRecorderNode && is_notice) {
      if (!notice) {
        // Cannot fail: ParsePacketHeader accepted the same framing.
        notice = ParsePacket(*body).value();
      }
      member->recorder->ApplyNotice(*notice);
      if (PeekOp(notice->body) == KernelOp::kNoticeCrash) {
        auto target = DecodeRecoveryTarget(notice->body);
        if (target.ok()) {
          member->manager->OnProcessCrashNotice(target->pid);
        }
      }
    }
  }
  return any_up && all_functioning_recorded;
}

void RecorderGroup::OnMessageRead(const ProcessId& reader, const MessageId& id) {
  for (auto& member : members_) {
    member->recorder->OnMessageRead(reader, id);
  }
}

void RecorderGroup::SetPriorityVector(NodeId node, std::vector<size_t> order) {
  priority_vectors_[node] = std::move(order);
}

std::vector<size_t> RecorderGroup::PriorityFor(NodeId node) const {
  auto it = priority_vectors_.find(node);
  if (it != priority_vectors_.end()) {
    return it->second;
  }
  std::vector<size_t> order(members_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  return order;
}

Result<size_t> RecorderGroup::ResponsibleFor(NodeId node) const {
  for (size_t index : PriorityFor(node)) {
    if (index < members_.size() && !members_[index]->recorder->down()) {
      return index;
    }
  }
  return Status(StatusCode::kUnavailable, "no functioning recorder");
}

void RecorderGroup::CrashRecorder(size_t index) { members_[index]->recorder->Crash(); }

void RecorderGroup::RestartRecorder(size_t index) { members_[index]->recorder->Restart(); }

bool RecorderGroup::AllDown() const {
  for (const auto& member : members_) {
    if (!member->recorder->down()) {
      return false;
    }
  }
  return true;
}

}  // namespace publishing
