#include "src/core/publishing_system.h"

#include "src/common/logging.h"

namespace publishing {

namespace {
// Mirrors the process-wide buffer counters into the metrics registry as they
// happen.  The hot path still only bumps two uint64s when no sink is
// installed (the uninstrumented default).
class CounterBufferSink final : public BufferStatsSink {
 public:
  explicit CounterBufferSink(MetricsRegistry* metrics)
      : bytes_copied_(metrics->GetCounter("buf.bytes_copied")),
        bytes_shared_(metrics->GetCounter("buf.bytes_shared")) {}

  void OnBufferCopy(uint64_t bytes) override { bytes_copied_->Add(bytes); }
  void OnBufferShare(uint64_t bytes) override { bytes_shared_->Add(bytes); }

 private:
  Counter* bytes_copied_;
  Counter* bytes_shared_;
};
}  // namespace

PublishingSystem::PublishingSystem(PublishingSystemConfig config) : config_(std::move(config)) {
  // The recorder and its traffic live on node 0 (Cluster::kRecorderNode).
  config_.recorder.node = Cluster::kRecorderNode;
  config_.cluster.kernel.recorder_node = Cluster::kRecorderNode;
  if (config_.node_unit_mode) {
    config_.cluster.kernel.node_unit_mode = true;
    config_.recorder.node_unit = true;
    config_.recovery.node_unit = true;
  }

  // Defer the system-process boot until the recorder listens, so their
  // creation notices and messages are published too.
  const bool boot_system = config_.cluster.start_system_processes;
  config_.cluster.start_system_processes = false;

  if (config_.adopt_storage != nullptr) {
    storage_ = std::move(*config_.adopt_storage);
  }
  if (config_.storage_backend != nullptr) {
    storage_.AttachBackend(config_.storage_backend);
  }

  cluster_ = std::make_unique<Cluster>(config_.cluster);
  if (config_.storage_backend != nullptr && config_.storage_tick_period > 0) {
    // Drive the backend's background work (over-age commit windows,
    // concurrent-compaction slices) off the virtual clock so it makes
    // progress through publish lulls.
    storage_tick_task_ = std::make_unique<PeriodicTask>(
        &cluster_->sim(), config_.storage_tick_period, [this] {
          config_.storage_backend->Tick(static_cast<uint64_t>(sim().Now()));
        });
    storage_tick_task_->Start();
  }
  recorder_ = std::make_unique<Recorder>(&cluster_->sim(), &cluster_->medium(),
                                         &cluster_->names(), &storage_, config_.recorder);
  for (NodeId node : cluster_->node_ids()) {
    cluster_->kernel(node)->set_read_order_feed(recorder_.get());
  }
  recovery_ = std::make_unique<RecoveryManager>(cluster_.get(), recorder_.get(),
                                                config_.recovery);
  if (config_.start_recovery_manager) {
    recovery_->Start();
  }
  if (boot_system) {
    cluster_->BootSystemProcesses();
  }
  // Stamp log lines with this system's virtual clock.  The token guard means
  // a second system constructed later takes over, and our destructor only
  // clears the source if we are still the active registration.
  log_time_token_ = SetLogTimeSource([this] { return cluster_->sim().Now(); });
}

PublishingSystem::~PublishingSystem() {
  // Detach instrumentation before members tear down: the caller may destroy
  // the registry/tracer in any order relative to this system, and teardown
  // itself (cancelling watchdog timers, for one) must not touch dead sinks.
  if (obs_.enabled()) {
    EnableObservability(Observability{});
  }
  ClearLogTimeSource(log_time_token_);
}

void PublishingSystem::EnableObservability(const Observability& obs) {
  obs_ = obs;
  sim().SetObservability(obs);
  cluster_->medium().SetObservability(obs, MediumLabel(config_.cluster.medium));
  recorder_->SetObservability(obs);  // Covers the recorder's own endpoint.
  storage_.SetLifecycle(obs.lifecycle, Cluster::kRecorderNode);
  for (NodeId node : cluster_->node_ids()) {
    NodeKernel* kernel = cluster_->kernel(node);
    if (kernel != nullptr) {
      kernel->SetObservability(obs);  // Endpoint + the kernel's read stages.
    }
  }
  recovery_->SetObservability(obs);
  if (config_.storage_backend != nullptr) {
    config_.storage_backend->SetObservability(obs);
  }
  // Buffer accounting is process-wide, so the most recently instrumented
  // system owns the sink; detaching (null metrics) always uninstalls ours.
  if (obs.metrics != nullptr) {
    buffer_sink_ = std::make_unique<CounterBufferSink>(obs.metrics);
    SetBufferStatsSink(buffer_sink_.get());
  } else if (buffer_sink_ != nullptr) {
    // Another system instrumented after us may own the global slot by now;
    // only clear it if it is still ours.
    if (GetBufferStatsSink() == buffer_sink_.get()) {
      SetBufferStatsSink(nullptr);
    }
    buffer_sink_.reset();
  }
}

void PublishingSystem::EnableCheckpointPolicy(std::unique_ptr<CheckpointPolicy> policy,
                                              SimDuration poll_period) {
  checkpoint_scheduler_ = std::make_unique<CheckpointScheduler>(
      cluster_.get(), recorder_.get(), std::move(policy), poll_period);
  checkpoint_scheduler_->Start();
}

void PublishingSystem::EnableNodeCheckpointInterval(SimDuration period) {
  node_checkpoint_task_ = std::make_unique<PeriodicTask>(&sim(), period, [this] {
    if (recorder_->down()) {
      return;
    }
    for (NodeId node : cluster_->node_ids()) {
      NodeKernel* kernel = cluster_->kernel(node);
      if (kernel != nullptr && kernel->node_up() && !kernel->node_recovering()) {
        kernel->CheckpointNode();  // kUnavailable mid-handler: retry next tick.
      }
    }
  });
  node_checkpoint_task_->Start();
}

Status PublishingSystem::CrashProcess(const ProcessId& pid) {
  auto location = cluster_->names().Locate(pid);
  if (!location.ok()) {
    return location.status();
  }
  NodeKernel* kernel = cluster_->kernel(*location);
  if (kernel == nullptr) {
    return Status(StatusCode::kNotFound, "process is not on a processing node");
  }
  // Dump the causal history *at injection time*: the flight recorder rings
  // still hold what led up to the crash.
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_process", ToString(pid));
  }
  return kernel->CrashProcess(pid);
}

Status PublishingSystem::CrashNode(NodeId node) {
  NodeKernel* kernel = cluster_->kernel(node);
  if (kernel == nullptr) {
    return Status(StatusCode::kNotFound, "no such node");
  }
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_node", ToString(node));
  }
  kernel->CrashNode();
  return Status::Ok();
}

void PublishingSystem::CrashRecorder() {
  if (obs_.lifecycle != nullptr) {
    obs_.lifecycle->NoteFault("crash_recorder", ToString(Cluster::kRecorderNode));
  }
  recorder_->Crash();
}

bool PublishingSystem::RunUntilRecovered(const ProcessId& pid, SimDuration deadline) {
  bool done = false;
  auto previous = [this] { return recovery_.get(); }();
  previous->set_recovery_done_callback([&done, pid](const ProcessId& recovered) {
    if (recovered == pid) {
      done = true;
    }
  });
  const SimTime limit = sim().Now() + deadline;
  while (!done && sim().Now() < limit) {
    if (!sim().Step()) {
      break;
    }
  }
  previous->set_recovery_done_callback(nullptr);
  return done;
}

}  // namespace publishing
