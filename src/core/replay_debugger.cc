#include "src/core/replay_debugger.h"

#include <utility>

#include "src/demos/process_image.h"
#include "src/demos/protocol.h"
#include "src/transport/packet.h"

namespace publishing {

// KernelApi stub for offline replay: resolves links from a private table and
// records the program's outputs instead of transmitting them.
class ReplayDebugger::OfflineApi : public KernelApi {
 public:
  explicit OfflineApi(ProcessId self) : self_(self) {}

  ProcessId Self() const override { return self_; }
  NodeId CurrentNode() const override { return self_.origin; }

  Result<LinkId> CreateLink(uint16_t channel, uint32_t code) override {
    LinkId id{next_link_id_++};
    links_[id.value] = Link{self_, channel, code, 0};
    return id;
  }

  Status DestroyLink(LinkId link) override {
    if (links_.erase(link.value) == 0) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    return Status::Ok();
  }

  Result<LinkId> DuplicateLink(LinkId link) override {
    auto it = links_.find(link.value);
    if (it == links_.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    LinkId id{next_link_id_++};
    links_[id.value] = it->second;
    return id;
  }

  Result<Link> InspectLink(LinkId link) const override {
    auto it = links_.find(link.value);
    if (it == links_.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    return it->second;
  }

  Status Send(LinkId link, Bytes body, LinkId pass_link) override {
    auto it = links_.find(link.value);
    if (it == links_.end()) {
      return Status(StatusCode::kNotFound, "no such link");
    }
    if (pass_link.IsValid()) {
      links_.erase(pass_link.value);
    }
    sends_.push_back(DebuggerSend{it->second.dest, it->second.channel, it->second.code,
                                  body.size()});
    return Status::Ok();
  }

  Status RequestCreateProcess(const std::string&, NodeId, uint16_t,
                              std::vector<LinkId>) override {
    return Status::Ok();  // Recorded nowhere; offline replay has no cluster.
  }

  void Charge(SimDuration) override {}
  void Exit() override {}

  void InstallAt(uint32_t id, const Link& link) {
    links_[id] = link;
    next_link_id_ = std::max(next_link_id_, id + 1);
  }
  LinkId InstallNext(const Link& link) {
    LinkId id{next_link_id_++};
    links_[id.value] = link;
    return id;
  }
  void set_next_link_id(uint32_t id) { next_link_id_ = std::max(next_link_id_, id); }

  std::vector<DebuggerSend> TakeSends() { return std::exchange(sends_, {}); }

 private:
  ProcessId self_;
  std::map<uint32_t, Link> links_;
  uint32_t next_link_id_ = 1;
  std::vector<DebuggerSend> sends_;
};

ReplayDebugger::ReplayDebugger(const StableStorage* storage, const ProgramRegistry* registry,
                               ProcessId target)
    : storage_(storage), registry_(registry), target_(target) {}

ReplayDebugger::~ReplayDebugger() = default;

Status ReplayDebugger::Initialize() {
  auto info = storage_->Info(target_);
  if (!info.ok()) {
    return info.status();
  }
  if (info->program.empty()) {
    return Status(StatusCode::kNotFound, "no program image recorded for " + ToString(target_));
  }
  auto program = registry_->Instantiate(info->program);
  if (!program.ok()) {
    return program.status();
  }
  program_ = std::move(*program);
  api_ = std::make_unique<OfflineApi>(target_);

  auto checkpoint = storage_->LoadCheckpoint(target_);
  if (checkpoint.ok()) {
    auto image = DecodeProcessImage(*checkpoint);
    if (!image.ok()) {
      return image.status();
    }
    Reader state(
        std::span<const uint8_t>(image->program_state.data(), image->program_state.size()));
    Status loaded = program_->LoadState(state);
    if (!loaded.ok()) {
      return loaded;
    }
    for (const auto& [id, link] : image->links) {
      api_->InstallAt(id, link);
    }
    api_->set_next_link_id(image->next_link_id);
  } else {
    // Fresh image: replay OnStart too, so the link table evolves exactly as
    // it did live.
    for (const Link& link : info->initial_links) {
      api_->InstallNext(link);
    }
    program_->OnStart(*api_);
    api_->TakeSends();  // OnStart outputs are not attributed to a step.
  }

  replay_ = storage_->Replay(target_);
  cursor_ = 0;
  initialized_ = true;
  return Status::Ok();
}

Result<DebuggerStep> ReplayDebugger::Step() {
  if (!initialized_) {
    return Status(StatusCode::kInternal, "Initialize() not called");
  }
  if (AtEnd()) {
    return Status(StatusCode::kNotFound, "history exhausted");
  }
  const LogEntry& entry = replay_[cursor_++];
  auto packet = ParsePacket(entry.packet);
  if (!packet.ok()) {
    return packet.status();
  }

  DebuggerStep step;
  step.id = packet->header.id;
  step.from = packet->header.src_process;
  step.channel = packet->header.channel;
  step.body_bytes = packet->body.size();
  if (packet->header.deliver_to_kernel()) {
    // Process-control entries mutate kernel state, not program state; the
    // only program-visible effect we need to mirror is MOVELINK's table
    // growth.
    step.channel = 0xFFFF;
    if (PeekOp(packet->body) == KernelOp::kMoveLink && !packet->link_blob.empty()) {
      auto link = LinkFromBytes(packet->link_blob);
      if (link.ok()) {
        api_->InstallNext(*link);
      }
    }
    ++steps_;
    return step;
  }

  DeliveredMessage msg;
  msg.id = packet->header.id;
  msg.from = packet->header.src_process;
  msg.channel = packet->header.channel;
  msg.code = packet->header.code;
  msg.body = packet->body;
  if (!packet->link_blob.empty()) {
    auto link = LinkFromBytes(packet->link_blob);
    if (link.ok()) {
      msg.passed_link = api_->InstallNext(*link);
    }
  }
  program_->OnMessage(*api_, msg);
  step.sends = api_->TakeSends();
  ++steps_;
  return step;
}

Result<uint64_t> ReplayDebugger::RunToEnd() {
  uint64_t steps = 0;
  while (!AtEnd()) {
    auto step = Step();
    if (!step.ok()) {
      return step.status();
    }
    ++steps;
  }
  return steps;
}

Result<uint64_t> ReplayDebugger::RunUntilMessage(const MessageId& id) {
  uint64_t steps = 0;
  while (!AtEnd()) {
    auto step = Step();
    if (!step.ok()) {
      return step.status();
    }
    ++steps;
    if (step->id == id) {
      return steps;
    }
  }
  return Status(StatusCode::kNotFound, "message never appears in the published history");
}

}  // namespace publishing
