#include "src/internet/internet.h"

#include <string>

#include "src/common/logging.h"
#include "src/obs/oracle.h"

namespace publishing {

Internet::Internet(InternetConfig config) : config_(std::move(config)) {
  // Segments first: each one is a self-contained publishing domain — medium,
  // recorder, storage, kernels, and a recovery manager scoped to the
  // segment's own nodes through its SegmentDirectory.  Every segment gets
  // its own simulation domain, so the event schedule (seq numbers, handoffs,
  // observation order) is a function of the topology alone.
  for (size_t k = 0; k < config_.segments; ++k) {
    auto segment = std::make_unique<Segment>();
    segment->recorder_node = SegmentRecorderNode(k);
    const size_t id = map_.AddSegment(segment->recorder_node);
    (void)id;
    segment->sim = sim_.AddDomain();
    // Each segment draws a distinct seed, so the segments' backoff and fault
    // streams are independent (and still deterministic for a fixed config
    // seed), and each medium schedules on its own segment's domain.
    segment->medium = MakeMedium(segment->sim, config_.medium, config_.timings, config_.faults,
                                 config_.ethernet, config_.token_ring,
                                 config_.seed + segments_.size());

    RecorderOptions recorder_options = config_.recorder;
    recorder_options.node = segment->recorder_node;
    // The home-segment responsibility partition: this recorder records send
    // watermarks for its own nodes and publishes messages addressed to them;
    // transit frames pass through un-vetoed and unrecorded.
    const int32_t home = static_cast<int32_t>(k);
    recorder_options.responsible_for = [this, home](NodeId node) {
      return map_.SegmentOf(node) == home;
    };
    segment->recorder = std::make_unique<Recorder>(segment->sim, segment->medium.get(),
                                                   &names_, &segment->storage,
                                                   recorder_options);

    KernelOptions kernel_options = config_.kernel;
    kernel_options.recorder_node = segment->recorder_node;
    // The directory hands the ROOT simulator to the recovery manager: its
    // periodic scans and replay drives are control-plane work on the control
    // domain, which touches the segment's kernels and recorder directly.
    segment->directory = std::make_unique<SegmentDirectory>(&sim_, &names_);
    for (size_t i = 0; i < config_.nodes_per_segment; ++i) {
      const NodeId node = ProcessingNode(k, i);
      map_.AssignNode(node, k);
      segment->kernels.push_back(std::make_unique<NodeKernel>(
          segment->sim, segment->medium.get(), node, &registry_, &names_,
          kernel_options));
      segment->kernels.back()->set_read_order_feed(segment->recorder.get());
      segment->directory->AddKernel(segment->kernels.back().get());
    }

    segment->recovery = std::make_unique<RecoveryManager>(
        segment->directory.get(), segment->recorder.get(), config_.recovery);
    if (config_.start_recovery_managers) {
      segment->recovery->Start();
    }
    segments_.push_back(std::move(segment));
  }

  // Gateways: a chain i <-> i+1, closed into a ring when requested.  Two
  // segments with ring topology get two parallel gateways; the map's
  // lowest-index tie-break makes gateway 0 the owner of both directions
  // until it goes down.
  auto add_gateway = [this](size_t a, size_t b) {
    const size_t index = gateways_.size();
    const NodeId node = GatewayNode(index);
    map_.AddGateway(node, {a, b});
    auto gateway =
        std::make_unique<Gateway>(&sim_, &map_, index, node, config_.gateway);
    gateway->AttachSegment(a, segments_[a]->medium.get());
    gateway->AttachSegment(b, segments_[b]->medium.get());
    gateways_.push_back(std::move(gateway));
  };
  for (size_t k = 0; k + 1 < config_.segments; ++k) {
    add_gateway(k, k + 1);
  }
  if (config_.ring_topology && config_.segments >= 2) {
    add_gateway(config_.segments - 1, 0);
  }

  log_time_token_ = SetLogTimeSource([this] { return sim_.Now(); });
}

Internet::~Internet() {
  if (obs_.enabled()) {
    EnableObservability(Observability{});
  }
  ClearLogTimeSource(log_time_token_);
}

NodeKernel* Internet::kernel(NodeId node) {
  const int32_t segment = map_.SegmentOf(node);
  if (segment < 0 || static_cast<size_t>(segment) >= segments_.size()) {
    return nullptr;
  }
  return segments_[segment]->directory->kernel(node);
}

std::vector<NodeId> Internet::ProcessingNodes() const {
  std::vector<NodeId> out;
  for (const auto& segment : segments_) {
    for (const auto& kernel : segment->kernels) {
      out.push_back(kernel->node());
    }
  }
  return out;
}

Result<ProcessId> Internet::Spawn(NodeId node, const std::string& program,
                                  std::vector<Link> initial_links, bool recoverable) {
  NodeKernel* k = kernel(node);
  if (k == nullptr) {
    return Status(StatusCode::kNotFound, "no such processing node " + ToString(node));
  }
  return k->SpawnProcess(program, std::move(initial_links), recoverable);
}

Status Internet::CrashProcess(const ProcessId& pid) {
  auto location = names_.Locate(pid);
  if (!location.ok()) {
    return location.status();
  }
  NodeKernel* k = kernel(*location);
  if (k == nullptr) {
    return Status(StatusCode::kNotFound, "process is not on a processing node");
  }
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_process", ToString(pid));
  }
  return k->CrashProcess(pid);
}

Status Internet::CrashNode(NodeId node) {
  NodeKernel* k = kernel(node);
  if (k == nullptr) {
    return Status(StatusCode::kNotFound, "no such node");
  }
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_node", ToString(node));
  }
  k->CrashNode();
  return Status::Ok();
}

void Internet::CrashRecorder(size_t segment) {
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_recorder",
                              ToString(segments_[segment]->recorder_node));
  }
  segments_[segment]->recorder->Crash();
}

void Internet::RestartRecorder(size_t segment) {
  segments_[segment]->recorder->Restart();
  for (auto& listener : restart_listeners_) {
    listener(segment);
  }
}

void Internet::SetGatewayUp(size_t index, bool up) {
  if (obs_.lifecycle != nullptr && gateways_[index]->down() == up) {
    obs_.lifecycle->NoteFault(up ? "gateway_up" : "gateway_down",
                              ToString(gateways_[index]->node()));
  }
  gateways_[index]->SetDown(!up);
  map_.SetGatewayUp(index, up);
}

bool Internet::RunUntilRecovered(const ProcessId& pid, SimDuration deadline) {
  bool done = false;
  // The pid's home segment owns the replay, but arm every manager: the
  // caller may race this with a names_ entry that is mid-recovery.
  for (auto& segment : segments_) {
    segment->recovery->set_recovery_done_callback(
        [&done, pid](const ProcessId& recovered) {
          if (recovered == pid) {
            done = true;
          }
        });
  }
  const SimTime limit = sim_.Now() + deadline;
  while (!done && sim_.Now() < limit) {
    if (!sim_.Step()) {
      break;
    }
  }
  for (auto& segment : segments_) {
    segment->recovery->set_recovery_done_callback(nullptr);
  }
  return done;
}

void Internet::EnableObservability(const Observability& obs) {
  obs_ = obs;
  sim_.SetObservability(obs);
  for (size_t k = 0; k < segments_.size(); ++k) {
    Segment& segment = *segments_[k];
    segment.medium->SetObservability(obs, "seg" + std::to_string(k));
    segment.recorder->SetObservability(obs);
    segment.storage.SetLifecycle(obs.lifecycle, segment.recorder_node);
    for (auto& kernel : segment.kernels) {
      kernel->SetObservability(obs);
    }
    segment.recovery->SetObservability(obs);
  }
  for (size_t i = 0; i < gateways_.size(); ++i) {
    gateways_[i]->SetObservability(obs, "gw" + std::to_string(i));
  }
  // Teach the oracle the partition function so the cross-segment monitors
  // (per-segment completeness, gateway_forwarding) can resolve home
  // segments.  Cache the oracle pointer: the detach call arrives with a null
  // lifecycle, and the resolver must not outlive this Internet.
  InvariantOracle* oracle =
      obs.lifecycle != nullptr ? obs.lifecycle->oracle() : nullptr;
  if (oracle != nullptr) {
    oracle->SetSegmentResolver(map_.SegmentResolver());
    obs_oracle_ = oracle;
  } else if (obs_oracle_ != nullptr) {
    obs_oracle_->SetSegmentResolver(nullptr);
    obs_oracle_ = nullptr;
  }
}

}  // namespace publishing
