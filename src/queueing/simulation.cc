#include "src/queueing/simulation.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>

#include "src/common/flat_table.h"

namespace publishing {
namespace {

// A single FCFS server with utilization and waiting-time accounting.
class Server {
 public:
  explicit Server(Simulator* sim) : sim_(sim) {}

  void Submit(SimDuration service, size_t bytes, std::function<void()> done) {
    queue_.push_back(Job{service, bytes, std::move(done), sim_->Now()});
    queued_bytes_ += bytes;
    StartNext();
  }

  void Finish(SimTime now) { util_.Finish(now); }
  double Utilization() const { return util_.Utilization(); }
  double MeanWaitMs() const { return wait_ms_.mean(); }
  size_t queued_bytes() const { return queued_bytes_; }

 private:
  struct Job {
    SimDuration service;
    size_t bytes;
    std::function<void()> done;
    SimTime enqueued;
  };

  void StartNext() {
    if (busy_ || queue_.empty()) {
      return;
    }
    busy_ = true;
    util_.SetBusy(sim_->Now(), true);
    Job job = std::move(queue_.front());
    queue_.pop_front();
    wait_ms_.Add(ToMillis(sim_->Now() - job.enqueued));
    sim_->ScheduleAfter(job.service, [this, job = std::move(job)] {
      queued_bytes_ -= job.bytes;
      busy_ = false;
      util_.SetBusy(sim_->Now(), false);
      if (job.done) {
        job.done();
      }
      StartNext();
    });
  }

  Simulator* sim_;
  std::deque<Job> queue_;
  bool busy_ = false;
  size_t queued_bytes_ = 0;
  UtilizationTracker util_;
  StatAccumulator wait_ms_;
};

struct SimProcess {
  size_t state_bytes = 0;
  size_t published_since_checkpoint = 0;
  SimTime last_checkpoint = 0;
};

size_t SampleStateBytes(Rng& rng, const OperatingPoint& op) {
  if (op.forced_state_bytes != 0) {
    return op.forced_state_bytes;
  }
  double u = rng.NextDouble();
  double acc = 0.0;
  for (const StateSizeBucket& bucket : StateSizeDistribution()) {
    acc += bucket.fraction;
    if (u <= acc) {
      return bucket.bytes;
    }
  }
  return StateSizeDistribution().back().bytes;
}

// Per-packet network channel occupancy: interface interpacket delay, the
// bits on the wire, and the reserved recorder-ack slot (§6.1.1).
SimDuration NetworkService(const HardwareParams& hw, size_t bytes) {
  return hw.interpacket_delay +
         SecondsF(static_cast<double>(bytes) * 8.0 / hw.network_bits_per_second) + hw.ack_slot;
}

SimDuration DiskService(const HardwareParams& hw, size_t bytes) {
  return hw.disk_latency + SecondsF(static_cast<double>(bytes) / hw.disk_bytes_per_second);
}

}  // namespace

QueueingResult RunQueueingSimulation(const QueueingConfig& config) {
  Simulator sim;
  Rng rng(config.seed);

  Server network(&sim);
  Server cpu(&sim);
  std::vector<std::unique_ptr<Server>> disks;
  disks.reserve(config.disks);
  for (size_t i = 0; i < config.disks; ++i) {
    disks.push_back(std::make_unique<Server>(&sim));
  }

  QueueingResult result;
  StatAccumulator checkpoint_interval_s;
  size_t next_disk = 0;
  std::vector<size_t> write_buffers(config.disks, 0);

  // Persistent storage estimate: checkpoints + retained log bytes.
  size_t checkpoint_storage = 0;
  size_t log_storage = 0;
  size_t peak_storage = 0;

  // Processes per node, each with a sampled state size.  The first
  // checkpoint is the binary image (§3.3.1), charged to storage up front.
  std::vector<std::vector<SimProcess>> procs(config.nodes);
  const size_t per_node = std::max<size_t>(1, static_cast<size_t>(config.op.load_average + 0.5));
  for (size_t n = 0; n < config.nodes; ++n) {
    for (size_t p = 0; p < per_node; ++p) {
      SimProcess proc;
      proc.state_bytes = SampleStateBytes(rng, config.op);
      checkpoint_storage += proc.state_bytes;
      procs[n].push_back(proc);
    }
  }

  auto track_peaks = [&] {
    peak_storage = std::max(peak_storage, checkpoint_storage + log_storage);
    size_t buffered = cpu.queued_bytes();
    for (const auto& disk : disks) {
      buffered += disk->queued_bytes();
    }
    result.peak_recorder_buffer_bytes =
        std::max(result.peak_recorder_buffer_bytes, buffered);
  };

  // Sends `bytes` to a disk, honoring 4 KB write buffering (§5.1).  Hash
  // routing (SplitMix64 of the source node) models the striped WAL, where a
  // process's log lives wholly on one stripe.
  auto disk_for = [&](size_t node) {
    if (!config.hash_striped_disks) {
      return next_disk++ % config.disks;
    }
    return static_cast<size_t>(MixKey(node) % config.disks);
  };
  auto to_disk = [&](size_t node, size_t bytes) {
    size_t d = disk_for(node);
    if (!config.buffered_writes) {
      disks[d]->Submit(DiskService(config.hw, bytes), bytes, nullptr);
      return;
    }
    write_buffers[d] += bytes;
    while (write_buffers[d] >= config.write_buffer_bytes) {
      write_buffers[d] -= config.write_buffer_bytes;
      disks[d]->Submit(DiskService(config.hw, config.write_buffer_bytes),
                       config.write_buffer_bytes, nullptr);
    }
  };

  std::function<void(size_t, size_t, bool)> publish =
      [&](size_t node, size_t bytes, bool checkpoint_class) {
        ++result.messages;
        if (checkpoint_class) {
          ++result.checkpoint_messages;
        }
        // §6.6.1: messages to non-recoverable processes stop at the media
        // layer — the network still carries them, the recorder ignores them.
        if (!checkpoint_class && config.non_recoverable_fraction > 0.0 &&
            rng.NextBernoulli(config.non_recoverable_fraction)) {
          network.Submit(NetworkService(config.hw, bytes), bytes, nullptr);
          return;
        }
        network.Submit(NetworkService(config.hw, bytes), bytes, [&, node, bytes,
                                                                 checkpoint_class] {
          // Recorder CPU: one event for the data packet and one for tracing
          // the end-to-end acknowledgement (§4.4.1).
          cpu.Submit(config.hw.packet_cpu, bytes, [&, node, bytes, checkpoint_class] {
            to_disk(node, bytes);
            if (!checkpoint_class) {
              log_storage += bytes;
              // Attribute the published bytes to a random process on the
              // node; the storage-balanced policy checkpoints it once its
              // published storage exceeds its state size (§5.1).
              auto& node_procs = procs[node];
              SimProcess& proc = node_procs[rng.NextBelow(node_procs.size())];
              proc.published_since_checkpoint += bytes;
              if (proc.published_since_checkpoint > proc.state_bytes) {
                checkpoint_interval_s.Add(ToSeconds(sim.Now() - proc.last_checkpoint));
                proc.last_checkpoint = sim.Now();
                log_storage -= std::min(log_storage, proc.published_since_checkpoint);
                proc.published_since_checkpoint = 0;
                const size_t packets =
                    (proc.state_bytes + kCheckpointMessageBytes - 1) / kCheckpointMessageBytes;
                for (size_t i = 0; i < packets; ++i) {
                  publish(node, kCheckpointMessageBytes, true);
                }
              }
            }
            track_peaks();
          });
          cpu.Submit(config.hw.packet_cpu, 0, nullptr);  // The acknowledgement.
          track_peaks();
        });
        track_peaks();
      };

  // Poisson sources per node.
  std::function<void(size_t, bool)> arrival = [&](size_t node, bool is_long) {
    const double rate =
        is_long ? config.op.long_msgs_per_second : config.op.short_msgs_per_second;
    if (rate <= 0.0) {
      return;
    }
    const SimDuration gap = SecondsF(rng.NextExponential(1.0 / rate));
    sim.ScheduleAfter(gap, [&, node, is_long] {
      if (sim.Now() >= config.duration) {
        return;
      }
      publish(node, is_long ? kLongMessageBytes : kShortMessageBytes, false);
      arrival(node, is_long);
    });
  };
  for (size_t n = 0; n < config.nodes; ++n) {
    arrival(n, false);
    arrival(n, true);
  }

  sim.RunUntil(config.duration);
  network.Finish(sim.Now());
  cpu.Finish(sim.Now());
  double disk_util = 0.0;
  double max_disk_util = 0.0;
  for (auto& disk : disks) {
    disk->Finish(sim.Now());
    disk_util += disk->Utilization();
    max_disk_util = std::max(max_disk_util, disk->Utilization());
  }

  result.network_utilization = network.Utilization();
  result.cpu_utilization = cpu.Utilization();
  result.disk_utilization = disk_util / static_cast<double>(config.disks);
  result.max_disk_utilization = max_disk_util;
  result.mean_network_queue_ms = network.MeanWaitMs();
  result.mean_cpu_queue_ms = cpu.MeanWaitMs();
  result.mean_disk_queue_ms = disks[0]->MeanWaitMs();
  result.peak_storage_bytes = peak_storage;
  result.mean_checkpoint_interval_s = checkpoint_interval_s.mean();
  return result;
}

AnalyticUtilizations ComputeAnalyticUtilizations(const QueueingConfig& config) {
  const OperatingPoint& op = config.op;
  const HardwareParams& hw = config.hw;
  const double n = static_cast<double>(config.nodes);

  // Share of traffic that is actually published (§6.6.1).
  const double published = 1.0 - config.non_recoverable_fraction;
  const double msg_bytes_per_s = op.short_msgs_per_second * kShortMessageBytes +
                                 op.long_msgs_per_second * kLongMessageBytes;
  // Storage-balanced checkpointing writes, in steady state, as many bytes as
  // get published (§5.1), in 1024-byte messages.
  const double ckpt_rate = published * msg_bytes_per_s / kCheckpointMessageBytes;

  auto net = [&](size_t bytes) { return ToSeconds(NetworkService(hw, bytes)); };
  AnalyticUtilizations u;
  u.network = n * (op.short_msgs_per_second * net(kShortMessageBytes) +
                   op.long_msgs_per_second * net(kLongMessageBytes) +
                   ckpt_rate * net(kCheckpointMessageBytes));

  const double packet_rate =
      published * (op.short_msgs_per_second + op.long_msgs_per_second) + ckpt_rate;
  u.cpu = n * 2.0 * packet_rate * ToSeconds(hw.packet_cpu);  // Data + ack.

  const double disk_bytes_per_s =
      published * msg_bytes_per_s + ckpt_rate * kCheckpointMessageBytes;
  double disk_busy_per_s;
  if (config.buffered_writes) {
    const double writes = disk_bytes_per_s / static_cast<double>(config.write_buffer_bytes);
    disk_busy_per_s = writes * ToSeconds(DiskService(hw, config.write_buffer_bytes));
  } else {
    disk_busy_per_s =
        published * op.short_msgs_per_second * ToSeconds(DiskService(hw, kShortMessageBytes)) +
        published * op.long_msgs_per_second * ToSeconds(DiskService(hw, kLongMessageBytes)) +
        ckpt_rate * ToSeconds(DiskService(hw, kCheckpointMessageBytes));
  }
  u.disk = n * disk_busy_per_s / static_cast<double>(config.disks);
  return u;
}

CapacityEstimate EstimateCapacity(const QueueingConfig& base, size_t max_nodes_to_try) {
  CapacityEstimate estimate;
  for (size_t nodes = 1; nodes <= max_nodes_to_try; ++nodes) {
    QueueingConfig config = base;
    config.nodes = nodes;
    AnalyticUtilizations u = ComputeAnalyticUtilizations(config);
    const char* binding = "network";
    double worst = u.network;
    if (u.cpu > worst) {
      worst = u.cpu;
      binding = "recorder-cpu";
    }
    if (u.disk > worst) {
      worst = u.disk;
      binding = "disk";
    }
    if (worst >= 1.0) {
      estimate.binding_resource = binding;
      break;
    }
    estimate.max_nodes = nodes;
    estimate.max_users = static_cast<double>(nodes) * base.op.users_per_node;
    estimate.binding_resource = binding;
  }
  return estimate;
}

}  // namespace publishing
