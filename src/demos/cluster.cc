#include "src/demos/cluster.h"

#include "src/common/logging.h"

namespace publishing {

std::unique_ptr<Medium> MakeMedium(Simulator* sim, MediumKind kind, const MediumTimings& timings,
                                   const MediumFaults& faults, EthernetOptions ethernet,
                                   const TokenRingOptions& token_ring, uint64_t seed) {
  switch (kind) {
    case MediumKind::kEthernet:
    case MediumKind::kAcknowledgingEthernet:
      ethernet.acknowledging = kind == MediumKind::kAcknowledgingEthernet;
      return std::make_unique<Ethernet>(sim, timings, faults, seed, ethernet);
    case MediumKind::kStarHub:
      return std::make_unique<StarHub>(sim, timings, faults, seed);
    case MediumKind::kTokenRing:
      return std::make_unique<TokenRing>(sim, timings, faults, seed, token_ring);
  }
  return nullptr;
}

const char* MediumLabel(MediumKind kind) {
  switch (kind) {
    case MediumKind::kEthernet:
      return "ethernet";
    case MediumKind::kAcknowledgingEthernet:
      return "ack_ethernet";
    case MediumKind::kStarHub:
      return "star_hub";
    case MediumKind::kTokenRing:
      return "token_ring";
  }
  return "ethernet";
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      medium_(MakeMedium(&sim_, config_.medium, config_.timings, config_.faults,
                         config_.ethernet, config_.token_ring, config_.seed)) {
  registry_.Register("sys.procman", [] { return std::make_unique<ProcessManagerProgram>(); });
  registry_.Register("sys.memsched", [] { return std::make_unique<MemorySchedulerProgram>(); });
  registry_.Register("sys.namesrv", [] { return std::make_unique<NamedLinkServerProgram>(); });

  KernelOptions kernel_options = config_.kernel;
  kernel_options.recorder_node = kRecorderNode;
  for (size_t i = 0; i < config_.node_count; ++i) {
    NodeId node{static_cast<uint32_t>(i + 1)};
    kernels_.push_back(std::make_unique<NodeKernel>(&sim_, medium_.get(), node, &registry_,
                                                    &names_, kernel_options));
  }

  if (config_.start_system_processes) {
    BootSystemProcesses();
  }
}

Cluster::~Cluster() = default;

NodeKernel* Cluster::kernel(NodeId node) {
  for (auto& kernel : kernels_) {
    if (kernel->node() == node) {
      return kernel.get();
    }
  }
  return nullptr;
}

std::vector<NodeId> Cluster::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(kernels_.size());
  for (const auto& kernel : kernels_) {
    out.push_back(kernel->node());
  }
  return out;
}

void Cluster::BootSystemProcesses() {
  if (system_booted_) {
    return;
  }
  system_booted_ = true;
  NodeKernel* system_kernel = kernel(config_.system_node);
  if (system_kernel == nullptr) {
    PUB_LOG_ERROR("cluster: system node %s does not exist",
                  ToString(config_.system_node).c_str());
    return;
  }

  // Memory scheduler first, with one kernel-process link per node (§4.3.2).
  std::vector<Link> scheduler_links;
  for (const auto& k : kernels_) {
    scheduler_links.push_back(
        Link{k->KernelProcessId(), kProcessServiceChannel, /*code=*/k->node().value, 0});
  }
  auto scheduler = system_kernel->SpawnProcess("sys.memsched", scheduler_links);
  if (!scheduler.ok()) {
    PUB_LOG_ERROR("cluster: cannot start memory scheduler: %s",
                  scheduler.status().ToString().c_str());
    return;
  }
  memory_scheduler_ = *scheduler;

  // Process manager with a link down to the scheduler (§4.2.3: "the process
  // manager has a link to the memory scheduler").
  auto manager = system_kernel->SpawnProcess(
      "sys.procman", {Link{memory_scheduler_, kProcessServiceChannel, 0, 0}});
  if (!manager.ok()) {
    PUB_LOG_ERROR("cluster: cannot start process manager: %s",
                  manager.status().ToString().c_str());
    return;
  }
  process_manager_ = *manager;

  auto name_server = system_kernel->SpawnProcess("sys.namesrv", {});
  if (!name_server.ok()) {
    PUB_LOG_ERROR("cluster: cannot start named-link server: %s",
                  name_server.status().ToString().c_str());
    return;
  }
  name_server_ = *name_server;

  for (auto& k : kernels_) {
    k->set_process_manager(process_manager_);
  }
}

Result<ProcessId> Cluster::Spawn(NodeId node, const std::string& program,
                                 std::vector<Link> initial_links, bool recoverable) {
  NodeKernel* k = kernel(node);
  if (k == nullptr) {
    return Status(StatusCode::kNotFound, "no such node " + ToString(node));
  }
  return k->SpawnProcess(program, std::move(initial_links), recoverable);
}

}  // namespace publishing
