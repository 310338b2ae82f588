// Internet: a multi-segment DEMOS/MP internetwork (DESIGN.md §13).
//
// Composes S media segments — each with its own recorder, stable storage,
// and recovery manager — bridged by store-and-forward gateways, under one
// shared simulator, name service, and program registry.  Publish
// responsibility is partitioned by home segment (SegmentMap): a segment's
// recorder records the send watermarks of its own nodes and publishes every
// message addressed to them, so a process's complete database entry always
// lives with its home recorder, and recovery replays from exactly that
// recorder's storage.  A DEMOS link crosses segments transparently: the
// sending kernel routes by destination node as always, the home segments'
// gateways carry the frame hop by hop, and the destination segment's
// recorder gates the final delivery.
//
// Node numbering: segment k's recorder is node k*1000, its processing nodes
// are k*1000+1 .. k*1000+n; gateway nodes live at 900000+i and belong to no
// segment.
//
// Typical use:
//
//   InternetConfig config;
//   config.segments = 4;
//   config.nodes_per_segment = 2;
//   Internet net(config);
//   net.registry().Register("worker", ...);
//   auto a = net.Spawn(Internet::ProcessingNode(0, 0), "worker");
//   auto b = net.Spawn(Internet::ProcessingNode(2, 1), "worker");  // 2 hops away
//   net.RunFor(Seconds(1));

#ifndef SRC_INTERNET_INTERNET_H_
#define SRC_INTERNET_INTERNET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/recorder.h"
#include "src/core/recovery_manager.h"
#include "src/demos/cluster.h"
#include "src/internet/gateway.h"
#include "src/internet/segment_map.h"

namespace publishing {

struct InternetConfig {
  // Topology: `segments` media segments of `nodes_per_segment` processing
  // nodes each, chained by gateways (segment i <-> i+1) with a closing
  // ring gateway (last <-> first) unless ring_topology is false.  The ring
  // gives every pair of segments two disjoint gateway paths, so a single
  // gateway fault never partitions the internetwork.
  size_t segments = 2;
  size_t nodes_per_segment = 2;
  bool ring_topology = true;

  // Per-segment medium construction (same knobs as ClusterConfig).
  MediumKind medium = MediumKind::kAcknowledgingEthernet;
  MediumTimings timings;
  MediumFaults faults;
  EthernetOptions ethernet;
  TokenRingOptions token_ring;
  uint64_t seed = 1;

  KernelOptions kernel;              // Template; recorder_node set per segment.
  RecorderOptions recorder;          // Template; node/responsible_for set per segment.
  RecoveryManagerOptions recovery;   // Template, one manager per segment.
  GatewayOptions gateway;
  bool start_recovery_managers = true;

  // Unused: every segment's domain shares the root Simulator's one heap and
  // one clock (src/sim/simulator.h).  Kept because perfbench/workloads.cc
  // still assigns it; any value gives the same run.
  size_t workers = 1;
};

class Internet {
 public:
  // Node-numbering scheme.  nodes_per_segment must stay below
  // kSegmentStride - 1; gateway ids below 100000.
  static constexpr uint32_t kSegmentStride = 1000;
  static NodeId SegmentRecorderNode(size_t segment) {
    return NodeId{static_cast<uint32_t>(segment) * kSegmentStride};
  }
  static NodeId ProcessingNode(size_t segment, size_t index) {
    return NodeId{static_cast<uint32_t>(segment) * kSegmentStride + 1 +
                  static_cast<uint32_t>(index)};
  }
  static NodeId GatewayNode(size_t gateway) {
    return NodeId{900000u + static_cast<uint32_t>(gateway)};
  }

  explicit Internet(InternetConfig config);
  ~Internet();

  Internet(const Internet&) = delete;
  Internet& operator=(const Internet&) = delete;

  Simulator& sim() { return sim_; }
  NameService& names() { return names_; }
  ProgramRegistry& registry() { return registry_; }
  SegmentMap& map() { return map_; }

  size_t segment_count() const { return segments_.size(); }
  size_t gateway_count() const { return gateways_.size(); }
  Medium& medium(size_t segment) { return *segments_[segment]->medium; }
  Recorder& recorder(size_t segment) { return *segments_[segment]->recorder; }
  StableStorage& storage(size_t segment) { return segments_[segment]->storage; }
  RecoveryManager& recovery(size_t segment) { return *segments_[segment]->recovery; }
  Gateway& gateway(size_t index) { return *gateways_[index]; }

  // Kernel lookup across every segment; null for unknown/recorder/gateway ids.
  NodeKernel* kernel(NodeId node);
  // Every processing node, segment by segment in construction order — the
  // deterministic iteration order supervisors (src/migrate) scan in.
  std::vector<NodeId> ProcessingNodes() const;
  // Home segment of `node`, -1 for gateways/unknown.
  int32_t SegmentOfNode(NodeId node) const { return map_.SegmentOf(node); }

  // Direct spawn on any processing node of any segment.
  Result<ProcessId> Spawn(NodeId node, const std::string& program,
                          std::vector<Link> initial_links = {},
                          bool recoverable = true);

  // --- Fault injection ---
  Status CrashProcess(const ProcessId& pid);
  Status CrashNode(NodeId node);
  void CrashRecorder(size_t segment);
  void RestartRecorder(size_t segment);
  // Invoked (synchronously, on the control domain) after RestartRecorder
  // brings a segment's recorder back.  Supervisors use this to drain state
  // that only matters across a restart — e.g. the migration manager re-feeds
  // straggler annexes orphaned by a crash inside the hand-off window.
  void AddRecorderRestartListener(std::function<void(size_t)> listener) {
    restart_listeners_.push_back(std::move(listener));
  }
  // Supervisor-level gateway fault/repair: marks the gateway down (its
  // queues drop) AND recomputes the SegmentMap routes around it.  For the
  // harsher fault where the supervisor has not noticed yet, drive
  // gateway(i).SetDown() and map().SetGatewayUp() separately.
  void SetGatewayUp(size_t index, bool up);

  // --- Run control ---
  void RunFor(SimDuration span) { sim_.RunFor(span); }
  // Runs until `pid` finishes recovering on whichever segment owns it.
  bool RunUntilRecovered(const ProcessId& pid, SimDuration deadline);

  // Fans observability out to every layer: the simulator, each segment's
  // medium ("seg<k>"), recorder, storage, kernels, and recovery manager,
  // plus each gateway ("gw<i>").  Installs the SegmentMap's partition
  // function into the oracle for the cross-segment monitors.  Pass a
  // default-constructed value to detach.
  void EnableObservability(const Observability& obs);
  const Observability& observability() const { return obs_; }

 private:
  // The per-segment NodeDirectory handed to that segment's recovery
  // manager: global time and names, but only this segment's kernels.
  class SegmentDirectory : public NodeDirectory {
   public:
    SegmentDirectory(Simulator* sim, NameService* names) : sim_(sim), names_(names) {}
    Simulator& sim() override { return *sim_; }
    NameService& names() override { return *names_; }
    std::vector<NodeId> node_ids() const override {
      std::vector<NodeId> out;
      out.reserve(kernels_.size());
      for (NodeKernel* k : kernels_) {
        out.push_back(k->node());
      }
      return out;
    }
    NodeKernel* kernel(NodeId node) override {
      for (NodeKernel* k : kernels_) {
        if (k->node() == node) {
          return k;
        }
      }
      return nullptr;
    }
    void AddKernel(NodeKernel* kernel) { kernels_.push_back(kernel); }

   private:
    Simulator* sim_;
    NameService* names_;
    std::vector<NodeKernel*> kernels_;
  };

  struct Segment {
    NodeId recorder_node;
    Simulator* sim = nullptr;  // This segment's simulation domain (owned by sim_).
    std::unique_ptr<Medium> medium;
    StableStorage storage;
    std::unique_ptr<Recorder> recorder;
    std::vector<std::unique_ptr<NodeKernel>> kernels;
    std::unique_ptr<SegmentDirectory> directory;
    std::unique_ptr<RecoveryManager> recovery;
  };

  std::unique_ptr<Medium> MakeMedium(Simulator* sim);

  InternetConfig config_;
  Simulator sim_;
  NameService names_;
  ProgramRegistry registry_;
  SegmentMap map_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
  Observability obs_;
  std::vector<std::function<void(size_t)>> restart_listeners_;
  InvariantOracle* obs_oracle_ = nullptr;  // For resolver detach.
  uint64_t log_time_token_ = 0;
};

}  // namespace publishing

#endif  // SRC_INTERNET_INTERNET_H_
