// Cluster: a whole simulated DEMOS/MP installation — one shared medium, N
// processing nodes each running a NodeKernel, the system processes, and the
// cluster-wide name service.  This is the substrate the recorder and
// recovery manager (src/core) attach to; see Figure 3.2.
//
// Node numbering: node 0 is reserved for the recorder; processing nodes are
// 1..N in attach order.

#ifndef SRC_DEMOS_CLUSTER_H_
#define SRC_DEMOS_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/demos/node_directory.h"
#include "src/demos/node_kernel.h"
#include "src/demos/system_programs.h"
#include "src/net/ethernet.h"
#include "src/net/star_hub.h"
#include "src/net/token_ring.h"

namespace publishing {

enum class MediumKind {
  kEthernet,                // Plain CSMA/CD (§6.1.1 baseline).
  kAcknowledgingEthernet,   // Reserved recorder-ack slot (§6.1.1).
  kStarHub,                 // Recorder-as-hub star (§4.1).
  kTokenRing,               // Ring with recorder ack field (§6.1.2).
};

// Builds the medium of `kind`, scheduling on `sim` and drawing its backoff
// and fault streams from `seed`.  `ethernet.acknowledging` is set from
// `kind`; `token_ring` applies to kTokenRing only.
std::unique_ptr<Medium> MakeMedium(Simulator* sim, MediumKind kind, const MediumTimings& timings,
                                   const MediumFaults& faults, EthernetOptions ethernet,
                                   const TokenRingOptions& token_ring, uint64_t seed);
// The medium's label in metrics and traces.
const char* MediumLabel(MediumKind kind);

struct ClusterConfig {
  size_t node_count = 3;
  MediumKind medium = MediumKind::kAcknowledgingEthernet;
  MediumTimings timings;
  MediumFaults faults;
  EthernetOptions ethernet;
  TokenRingOptions token_ring;
  uint64_t seed = 1;
  KernelOptions kernel;  // Template applied to every node.
  // Spawn the process manager / memory scheduler / named-link server chain.
  bool start_system_processes = true;
  NodeId system_node{1};
};

class Cluster : public NodeDirectory {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator& sim() override { return sim_; }
  Medium& medium() { return *medium_; }
  NameService& names() override { return names_; }
  ProgramRegistry& registry() { return registry_; }

  // Null for unknown/recorder node ids.
  NodeKernel* kernel(NodeId node) override;
  std::vector<NodeId> node_ids() const override;
  const ClusterConfig& config() const { return config_; }

  // Spawns the system-process chain; invoked from the constructor when
  // config.start_system_processes is set.  Idempotent.
  void BootSystemProcesses();

  ProcessId process_manager() const { return process_manager_; }
  ProcessId memory_scheduler() const { return memory_scheduler_; }
  ProcessId name_server() const { return name_server_; }

  // Direct spawn, bypassing the manager chain (boot-style creation).
  Result<ProcessId> Spawn(NodeId node, const std::string& program,
                          std::vector<Link> initial_links = {}, bool recoverable = true);

  static constexpr NodeId kRecorderNode{0};

 private:
  ClusterConfig config_;
  Simulator sim_;
  std::unique_ptr<Medium> medium_;
  NameService names_;
  ProgramRegistry registry_;
  std::vector<std::unique_ptr<NodeKernel>> kernels_;
  ProcessId process_manager_;
  ProcessId memory_scheduler_;
  ProcessId name_server_;
  bool system_booted_ = false;
};

}  // namespace publishing

#endif  // SRC_DEMOS_CLUSTER_H_
