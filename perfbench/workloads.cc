#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "perfbench/host_speed.h"
#include "perfbench/programs.h"
#include "src/common/buffer.h"
#include "src/core/checkpoint_policy.h"
#include "src/core/publishing_system.h"
#include "src/internet/internet.h"
#include "src/obs/lifecycle.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/sim/parallel.h"
#include "src/storage/recovered_db.h"
#include "src/storage/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace pub = publishing;

// --- Workload shapes -------------------------------------------------------

// lan_steady: closed loop of 16 clients over 4 nodes, WAL-backed recorder.
constexpr size_t kLanNodes = 4;
constexpr size_t kLanPairs = 16;
constexpr pub::SimDuration kLanWarmup = pub::Seconds(5);
constexpr int kLanTimedSlices = 80;  // 1 s of virtual time each.
constexpr pub::SimDuration kLanCheckpointInterval = pub::Seconds(4);

// internet_population: 4-segment ring, waves of short conversations.
constexpr size_t kNetSegments = 4;
constexpr size_t kNetNodesPerSegment = 8;
constexpr size_t kNetUsersPerSegment = 2000;
constexpr size_t kNetWaves = 10;
// Set-up ends with one warm-up wave of this many users per segment, run to
// completion, so tables, pools and caches are warm before timing.
constexpr size_t kNetWarmupUsersPerSegment = 200;
constexpr uint64_t kNetRequestsPerUser = 2;
constexpr pub::SimDuration kNetDrainDeadline = pub::Seconds(900);

// crash_replay: 64 servers on node 2, fed by 8 feeders on node 1.
constexpr size_t kCrashServers = 64;
constexpr size_t kCrashFeeders = 8;
constexpr uint64_t kCrashMessagesPerServer = 32;
constexpr int kCrashRounds = 20;
constexpr pub::SimDuration kCrashRoundDeadline = pub::Seconds(300);
const pub::NodeId kCrashFeederNode{1};
const pub::NodeId kCrashServerNode{2};

// Hash tags: one independent stream per generated input.
enum Tag : uint64_t {
  kTagClusterSeed = 1,
  kTagLanNodes,
  kTagLanOrder,
  kTagUserNode,
  kTagUserCross,
  kTagUserServer,
  kTagWaveGap,
};

// Fisher-Yates driven by Hash(): the same seed gives the same order.
template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[Hash(seed, i) % i]);
  }
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- The seam every workload drives ----------------------------------------

// Non-owning view of one assembled stack: what Collect reads and what the
// taps wrap.
struct StackView {
  pub::Simulator* sim = nullptr;
  std::vector<pub::Medium*> media;
  std::vector<pub::NodeKernel*> kernels;
  std::vector<pub::Recorder*> recorders;
  std::vector<pub::RecoveryManager*> recoveries;
  std::vector<pub::Gateway*> gateways;
  pub::Wal* wal = nullptr;
  const BackendTap* backend = nullptr;
};

// Additive totals read from the layers' public stats() accessors.
struct Totals {
  double events = 0;
  double frames_sent = 0;
  double wire_bytes = 0;
  double collisions = 0;
  double frames_vetoed = 0;
  double acks_sent = 0;
  double retransmits = 0;
  double duplicates = 0;
  double kernel_cpu_ms = 0;
  double replay_accepted = 0;
  double live_held = 0;
  double sends_suppressed = 0;
  double published = 0;
  double published_bytes = 0;
  double publish_cpu_ms = 0;
  double transit_skipped = 0;
  double bursts_sent = 0;
  double burst_retransmits = 0;
  double deferred = 0;
  double wal_records = 0;
  double wal_syncs = 0;
  double wal_compactions = 0;
  double tap_appends = 0;
  double tap_append_bytes = 0;
  double tap_snapshot_bytes = 0;
  double gw_forwards = 0;
  double gw_drops = 0;
  double bytes_copied = 0;
};

Totals Collect(const StackView& v) {
  Totals t;
  t.events = static_cast<double>(v.sim->core().engine_stats().events_executed);
  for (pub::Medium* m : v.media) {
    t.frames_sent += static_cast<double>(m->stats().frames_sent);
    t.wire_bytes += static_cast<double>(m->stats().bytes_sent);
    t.collisions += static_cast<double>(m->stats().collisions);
    t.frames_vetoed += static_cast<double>(m->stats().frames_vetoed);
  }
  auto add_transport = [&t](const pub::TransportStats& s) {
    t.acks_sent += static_cast<double>(s.acks_sent);
    t.retransmits += static_cast<double>(s.retransmits);
    t.duplicates += static_cast<double>(s.duplicates_suppressed);
  };
  for (pub::NodeKernel* k : v.kernels) {
    add_transport(k->endpoint().stats());
    const pub::KernelStats& s = k->stats();
    t.kernel_cpu_ms += pub::ToMillis(s.kernel_cpu);
    t.replay_accepted += static_cast<double>(s.replay_accepted);
    t.live_held += static_cast<double>(s.live_held_during_recovery);
    t.sends_suppressed += static_cast<double>(s.sends_suppressed);
  }
  for (pub::Recorder* r : v.recorders) {
    add_transport(r->endpoint().stats());
    const pub::RecorderStats& s = r->stats();
    t.published += static_cast<double>(s.messages_published);
    t.published_bytes += static_cast<double>(s.bytes_published);
    t.publish_cpu_ms += pub::ToMillis(s.publish_cpu);
    t.transit_skipped += static_cast<double>(s.transit_skipped);
  }
  for (pub::RecoveryManager* r : v.recoveries) {
    t.bursts_sent += static_cast<double>(r->stats().replay_bursts_sent);
    t.burst_retransmits += static_cast<double>(r->stats().replay_burst_retransmits);
    t.deferred += static_cast<double>(r->stats().recoveries_deferred);
  }
  if (v.wal != nullptr) {
    t.wal_records = static_cast<double>(v.wal->stats().records_appended);
    t.wal_syncs = static_cast<double>(v.wal->stats().syncs);
    t.wal_compactions = static_cast<double>(v.wal->stats().compactions);
  }
  if (v.backend != nullptr) {
    t.tap_appends = static_cast<double>(v.backend->counts().appends);
    t.tap_append_bytes = static_cast<double>(v.backend->counts().append_bytes);
    t.tap_snapshot_bytes = static_cast<double>(v.backend->counts().snapshot_bytes);
  }
  for (pub::Gateway* g : v.gateways) {
    t.gw_forwards += static_cast<double>(g->stats().frames_forwarded);
    t.gw_drops += static_cast<double>(g->stats().dropped_queue_full + g->stats().dropped_down);
  }
  t.bytes_copied = static_cast<double>(pub::GetBufferStats().bytes_copied);
  return t;
}

// Fills the deterministic per-layer values of `result` from the timed-phase
// delta (`after` - `before`) and the end-of-pass state.  `msgs` normalises the
// per-message ratios: the pass's timed operations.
void FillCounts(const StackView& v, const Totals& before, const Totals& after, double msgs,
                PassResult* result) {
  auto d = [&](double Totals::*field) { return after.*field - before.*field; };
  auto& c = result->counts;
  c["sim.events_per_msg"] = Ratio(d(&Totals::events), msgs);
  c["net.frames_per_msg"] = Ratio(d(&Totals::frames_sent), msgs);
  c["net.wire_bytes_per_msg"] = Ratio(d(&Totals::wire_bytes), msgs);
  c["net.collisions"] = d(&Totals::collisions);
  c["net.frames_vetoed"] = d(&Totals::frames_vetoed);
  double queue_p99 = 0;
  double utilization = 0;
  for (pub::Medium* m : v.media) {
    queue_p99 = std::max(queue_p99, m->stats().queue_delay_ms.p99());
    utilization += m->stats().channel.Utilization() / static_cast<double>(v.media.size());
  }
  c["net.queue_delay_ms_p99"] = queue_p99;
  c["net.channel_utilization"] = utilization;
  c["transport.retransmits_per_msg"] = Ratio(d(&Totals::retransmits), msgs);
  c["transport.acks_per_msg"] = Ratio(d(&Totals::acks_sent), msgs);
  c["transport.duplicates_suppressed"] = d(&Totals::duplicates);
  c["demos.kernel_cpu_ms_per_msg"] = Ratio(d(&Totals::kernel_cpu_ms), msgs);
  c["demos.replay_accepted"] = d(&Totals::replay_accepted);
  c["demos.live_held_during_recovery"] = d(&Totals::live_held);
  c["demos.sends_suppressed"] = d(&Totals::sends_suppressed);
  c["core.recorder.publish_cpu_ms_per_msg"] =
      Ratio(d(&Totals::publish_cpu_ms), d(&Totals::published));
  c["core.recorder.transit_skipped_per_msg"] = Ratio(d(&Totals::transit_skipped), msgs);
  double processes = 0;
  double peak_bytes = 0;
  for (pub::Recorder* r : v.recorders) {
    processes = std::max(processes, static_cast<double>(r->storage().AllProcesses().size()));
    peak_bytes = std::max(peak_bytes, static_cast<double>(r->storage().PeakBytes()));
  }
  c["core.stable_storage.processes"] = processes;
  c["core.stable_storage.peak_bytes"] = peak_bytes;
  c["core.recovery.bursts_per_replayed_msg"] =
      Ratio(d(&Totals::bursts_sent), d(&Totals::replay_accepted));
  c["core.recovery.burst_retransmits"] = d(&Totals::burst_retransmits);
  c["core.recovery.deferred"] = d(&Totals::deferred);
  c["storage.append.calls_per_msg"] = Ratio(d(&Totals::tap_appends), msgs);
  c["storage.records_per_sync"] = Ratio(d(&Totals::wal_records), d(&Totals::wal_syncs));
  c["storage.syncs_per_1k_msgs"] = Ratio(1000.0 * d(&Totals::wal_syncs), msgs);
  c["storage.compactions"] = d(&Totals::wal_compactions);
  c["storage.compaction_bytes"] = d(&Totals::tap_snapshot_bytes);
  double ack_p99 = 0;
  if (v.wal != nullptr) {
    for (size_t i = 0; i < v.wal->stripes(); ++i) {
      ack_p99 = std::max(ack_p99, v.wal->stripe_ack_ms(i).p99());
    }
  }
  c["storage.ack_ms_p99"] = ack_p99;
  // Whole pass: every byte handed to the log, compaction rewrites included,
  // per published packet byte.
  c["wal_bytes_per_user_byte"] =
      Ratio(after.tap_append_bytes + after.tap_snapshot_bytes, after.published_bytes);
  c["internet.gateway.forwards_per_msg"] = Ratio(d(&Totals::gw_forwards), msgs);
  c["internet.gateway.drops"] = d(&Totals::gw_drops);
  c["common.buffer.bytes_copied_per_msg"] = Ratio(d(&Totals::bytes_copied), msgs);
}

// Wall-clock per-layer values of a traced pass.
void FillWall(const Ledger& ledger, const std::vector<std::unique_ptr<StationTap>>& stations,
              const std::vector<std::unique_ptr<ListenerTap>>& listeners, PassResult* result) {
  auto& w = result->wall;
  auto per_call = [&ledger](SpanKind kind) {
    const Ledger::Totals& t = ledger.totals(kind);
    return Ratio(static_cast<double>(t.self_ns), static_cast<double>(t.calls));
  };
  auto self_ms = [&ledger](SpanKind kind) {
    return static_cast<double>(ledger.totals(kind).self_ns) / 1e6;
  };
  double station_calls = 0;
  for (const auto& tap : stations) {
    station_calls += static_cast<double>(tap->calls());
  }
  double listener_calls = 0;
  for (const auto& tap : listeners) {
    listener_calls += static_cast<double>(tap->calls());
  }
  const Ledger::Totals& run = ledger.totals(SpanKind::kSimRun);
  w["sim.run.self_ms"] = self_ms(SpanKind::kSimRun);
  w["transport.on_frame.calls"] = station_calls;
  w["transport.on_frame.self_ns_per_call"] = per_call(SpanKind::kTransportOnFrame);
  w["core.recorder.on_wire_frame.calls"] = listener_calls;
  w["core.recorder.on_wire_frame.self_ns_per_call"] = per_call(SpanKind::kRecorderOnWireFrame);
  w["storage.append.self_ns_per_call"] = per_call(SpanKind::kStorageAppend);
  w["storage.sync.self_ms"] = self_ms(SpanKind::kStorageSync);
  w["storage.tick.self_ms"] = self_ms(SpanKind::kStorageTick);
  w["app.on_message.self_ns_per_call"] = per_call(SpanKind::kAppHandler);
  w["trace.coverage_pct"] =
      Ratio(100.0 * static_cast<double>(run.total_ns - run.self_ns),
            static_cast<double>(run.total_ns));
}

struct Taps {
  std::vector<std::unique_ptr<StationTap>> stations;
  std::vector<std::unique_ptr<ListenerTap>> listeners;
};

// Re-attaches each kernel endpoint and the recorder behind a timing tap.
// Medium::Detach leaves the node in the medium's attach order, so a
// broadcast frame would reach a re-attached station twice; the traced run's
// byte-identity check against the untraced run is what shows none occur.
void InstallTaps(pub::Medium* medium, const std::vector<pub::NodeKernel*>& kernels,
                 pub::Recorder* recorder, Ledger* ledger, Taps* taps) {
  for (pub::NodeKernel* kernel : kernels) {
    auto tap = std::make_unique<StationTap>(&kernel->endpoint(), ledger);
    medium->Detach(kernel->node());
    medium->Attach(tap.get());
    taps->stations.push_back(std::move(tap));
  }
  auto tap = std::make_unique<ListenerTap>(recorder, ledger);
  medium->DetachListener(recorder);
  medium->AttachListener(tap.get(), recorder->node());
  taps->listeners.push_back(std::move(tap));
}

void RunSpan(pub::Simulator& sim, Ledger* ledger, pub::SimDuration span) {
  Scope scope(ledger, SpanKind::kSimRun);
  sim.RunFor(span);
}

// The durable log shared by lan_steady and crash_replay: 4 striped virtual
// disks, adaptive group commit, publish-concurrent compaction, disk model on.
pub::WalOptions LogOptions(const std::string& dir) {
  pub::WalOptions options;
  options.dir = dir;
  options.segment_bytes = 256u << 10;
  options.group_commit_records = 32;
  options.stripes = 4;
  options.concurrent_compaction = true;
  options.adaptive.enabled = true;
  options.adaptive.min_records = 4;
  options.adaptive.max_records = 256;
  options.adaptive.ack_latency_target = 5'000'000'000;
  options.disk.enabled = true;
  options.compactor.min_bytes = 64u << 10;
  return options;
}

std::string LogDir(const PassOptions& options, const char* name) {
  return options.work_dir + "/wal-" + name + "-" + std::to_string(::getpid());
}

template <typename T>
const T* ProgramAs(pub::NodeKernel* kernel, const pub::ProcessId& pid) {
  return kernel == nullptr ? nullptr : dynamic_cast<const T*>(kernel->ProgramFor(pid));
}

std::vector<pub::NodeKernel*> ClusterKernels(pub::Cluster& cluster) {
  std::vector<pub::NodeKernel*> out;
  for (pub::NodeId node : cluster.node_ids()) {
    out.push_back(cluster.kernel(node));
  }
  return out;
}

StackView SystemView(pub::PublishingSystem& system, pub::Wal* wal, const BackendTap* backend) {
  StackView v;
  v.sim = &system.sim();
  v.media = {&system.cluster().medium()};
  v.kernels = ClusterKernels(system.cluster());
  v.recorders = {&system.recorder()};
  v.recoveries = {&system.recovery()};
  v.wal = wal;
  v.backend = backend;
  return v;
}

void Fail(PassResult* result, std::string what) { result->errors.push_back(std::move(what)); }

// --- lan_steady -------------------------------------------------------------

PassResult RunLanSteady(const PassOptions& options, Ledger* ledger) {
  PassResult result;
  CpuMeter meter;
  meter.Probe();
  const double setup_start = meter.Now();
  const std::string dir = LogDir(options, "lan");
  fs::remove_all(dir);
  BackendTap backend(ledger);
  auto wal = pub::Wal::Open(LogOptions(dir));
  if (!wal.ok()) {
    Fail(&result, "wal open: " + wal.status().ToString());
    return result;
  }
  backend.set_inner(wal->get());
  Taps taps;
  pub::PublishingSystemConfig config;
  config.cluster.node_count = kLanNodes;
  config.cluster.start_system_processes = false;
  config.cluster.seed = Hash(options.seed, kTagClusterSeed);
  // No faults: keep the retransmission timer past the closed loop's queueing
  // backlog.  At the 40 ms default half the messages are resent spuriously,
  // and the resulting storm makes the latency tail depend on the seed.
  config.cluster.kernel.transport.retransmit_timeout = pub::Seconds(60);
  config.cluster.kernel.transport.max_retransmit_timeout = pub::Seconds(120);
  config.storage_backend = &backend;
  auto system = std::make_unique<pub::PublishingSystem>(config);
  RequestTable table(&system->sim(), ledger, options.seed);
  system->cluster().registry().Register(
      "client", [&table] { return std::make_unique<Client>(&table, UINT64_MAX); });
  system->cluster().registry().Register(
      "server", [ledger] { return std::make_unique<Server>(ledger); });
  // Balanced placement: every node hosts 4 clients and 4 servers, and pair
  // i's server sits 1 + (i / 4) % 3 nodes after its client.  The seed picks
  // the node labelling and the spawn order, so every seed runs an isomorphic
  // topology and only the inputs differ.
  std::vector<uint32_t> label(kLanNodes);
  std::vector<size_t> order(kLanPairs);
  for (size_t i = 0; i < kLanNodes; ++i) {
    label[i] = static_cast<uint32_t>(i + 1);
  }
  for (size_t i = 0; i < kLanPairs; ++i) {
    order[i] = i;
  }
  SeededShuffle(&label, Hash(options.seed, kTagLanNodes));
  SeededShuffle(&order, Hash(options.seed, kTagLanOrder));
  for (size_t i : order) {
    const uint32_t client_node = label[i % kLanNodes];
    const uint32_t server_node = label[(i % kLanNodes + 1 + (i / kLanNodes) % 3) % kLanNodes];
    auto server = system->cluster().Spawn(pub::NodeId{server_node}, "server");
    if (!server.ok()) {
      Fail(&result, "spawn server: " + server.status().ToString());
      return result;
    }
    auto client = system->cluster().Spawn(pub::NodeId{client_node}, "client",
                                          {pub::Link{*server, 1, 0, 0}});
    if (!client.ok()) {
      Fail(&result, "spawn client: " + client.status().ToString());
      return result;
    }
  }
  system->EnableCheckpointPolicy(
      std::make_unique<pub::FixedIntervalPolicy>(kLanCheckpointInterval));
  system->RunFor(kLanWarmup);
  result.setup_s = meter.Now() - setup_start;

  const StackView view = SystemView(*system, wal->get(), &backend);
  if (options.traced) {
    InstallTaps(&system->cluster().medium(), view.kernels, &system->recorder(), ledger, &taps);
  }
  pub::ResetBufferStats();
  const Totals before = Collect(view);
  ledger->set_enabled(options.traced);
  const double timed_start = meter.Now();
  for (int i = 0; i < kLanTimedSlices; ++i) {
    RunSpan(system->sim(), ledger, pub::Seconds(1));
    meter.Probe();
  }
  result.timed_s = meter.Now() - timed_start;
  ledger->set_enabled(false);
  const Totals after = Collect(view);

  result.ops = static_cast<uint64_t>(after.published - before.published);
  result.host_speed = meter.speed();
  result.probe_us = meter.probe_us();
  FillCounts(view, before, after, static_cast<double>(result.ops), &result);
  if (options.traced) {
    FillWall(*ledger, taps.stations, taps.listeners, &result);
  }
  result.latency_ms = table.rtt_ms();
  const uint64_t outstanding = table.requests() - table.replies();
  result.attempted = table.replies() + table.failures() + outstanding;
  // A closed loop leaves at most one request per client in flight.
  const uint64_t missing = outstanding > kLanPairs ? outstanding - kLanPairs : 0;
  result.failed = table.failures() + missing;
  if (result.failed != 0) {
    Fail(&result, "lan_steady: " + std::to_string(result.failed) + " failed requests");
  }
  if (after.bytes_copied != before.bytes_copied) {
    Fail(&result, "lan_steady: payload bytes copied on the fault-free path");
  }
  if (result.ops == 0) {
    Fail(&result, "lan_steady: nothing published");
  }
  system.reset();
  wal->reset();
  fs::remove_all(dir);
  return result;
}

// --- internet_population ----------------------------------------------------

PassResult RunInternetPopulation(const PassOptions& options, Ledger* ledger) {
  PassResult result;
  CpuMeter meter;
  meter.Probe();
  const double setup_start = meter.Now();
  pub::InternetConfig config;
  config.segments = kNetSegments;
  config.nodes_per_segment = kNetNodesPerSegment;
  config.seed = Hash(options.seed, kTagClusterSeed);
  config.workers = 1;
  // As the repository's scaling study runs it: no faults, so push the
  // retransmission timer past any queueing backlog; deeper gateway queues for
  // the cross-segment wave fronts; no recovery managers.
  config.kernel.transport.retransmit_timeout = pub::Seconds(60);
  config.kernel.transport.max_retransmit_timeout = pub::Seconds(120);
  config.gateway.max_queue_frames = 256;
  config.gateway.max_queue_bytes = 1024 * 1024;
  config.start_recovery_managers = false;

  Taps taps;
  pub::InvariantOracle oracle(pub::OracleOptions{.policy = pub::OraclePolicy::kCount});
  std::unique_ptr<pub::LifecycleTracker> lifecycle;  // Outlives `net`.
  auto net = std::make_unique<pub::Internet>(config);
  if (options.observe) {
    lifecycle = std::make_unique<pub::LifecycleTracker>(&net->sim(), size_t{1} << 18);
    lifecycle->AttachOracle(&oracle);
    pub::Observability obs;
    obs.lifecycle = lifecycle.get();
    net->EnableObservability(obs);
  }
  RequestTable table(&net->sim(), ledger, options.seed);
  table.set_target(kNetRequestsPerUser);
  net->registry().Register(
      "client", [&table] { return std::make_unique<Client>(&table, kNetRequestsPerUser); });
  net->registry().Register("server", [ledger] { return std::make_unique<Server>(ledger); });
  std::vector<std::vector<pub::ProcessId>> servers(kNetSegments);
  for (size_t s = 0; s < kNetSegments; ++s) {
    for (size_t n = 0; n < kNetNodesPerSegment; ++n) {
      auto server = net->Spawn(pub::Internet::ProcessingNode(s, n), "server");
      if (!server.ok()) {
        Fail(&result, "spawn server: " + server.status().ToString());
        return result;
      }
      servers[s].push_back(*server);
    }
  }
  // Spawns `count` users per segment for wave `wave`: each on a seeded node
  // of its segment, a seeded quarter of them talking to a server one segment
  // around the ring.
  size_t users = 0;
  auto spawn_wave = [&](size_t wave, size_t count) {
    for (size_t s = 0; s < kNetSegments; ++s) {
      for (size_t j = 0; j < count; ++j) {
        const uint64_t key = (uint64_t{s} << 32) | (wave << 20) | j;
        const pub::NodeId home = pub::Internet::ProcessingNode(
            s, Hash(options.seed, kTagUserNode, key) % kNetNodesPerSegment);
        const bool cross = Hash(options.seed, kTagUserCross, key) % 4 == 0;
        const size_t target = cross ? (s + 1) % kNetSegments : s;
        const pub::ProcessId& server =
            servers[target][Hash(options.seed, kTagUserServer, key) % kNetNodesPerSegment];
        auto client = net->Spawn(home, "client", {pub::Link{server, 1, 0, 0}});
        if (!client.ok()) {
          Fail(&result, "spawn client: " + client.status().ToString());
          return false;
        }
        ++users;
      }
    }
    return true;
  };
  // Runs until every user spawned so far has all its replies.
  auto drain = [&] {
    const pub::SimTime deadline = net->sim().Now() + kNetDrainDeadline;
    while (table.clients_done() < users && net->sim().Now() < deadline) {
      RunSpan(net->sim(), ledger, pub::Seconds(1));
      meter.Probe();
    }
  };
  if (!spawn_wave(kNetWaves, kNetWarmupUsersPerSegment)) {
    return result;
  }
  drain();
  result.setup_s = meter.Now() - setup_start;

  StackView view;
  view.sim = &net->sim();
  for (size_t s = 0; s < kNetSegments; ++s) {
    view.media.push_back(&net->medium(s));
    view.recorders.push_back(&net->recorder(s));
    view.recoveries.push_back(&net->recovery(s));
  }
  for (pub::NodeId node : net->ProcessingNodes()) {
    view.kernels.push_back(net->kernel(node));
  }
  for (size_t g = 0; g < net->gateway_count(); ++g) {
    view.gateways.push_back(&net->gateway(g));
  }
  if (options.traced) {
    for (size_t s = 0; s < kNetSegments; ++s) {
      std::vector<pub::NodeKernel*> kernels;
      for (size_t n = 0; n < kNetNodesPerSegment; ++n) {
        kernels.push_back(net->kernel(pub::Internet::ProcessingNode(s, n)));
      }
      InstallTaps(&net->medium(s), kernels, &net->recorder(s), ledger, &taps);
    }
  }
  pub::ResetBufferStats();
  const Totals before = Collect(view);
  ledger->set_enabled(options.traced);
  const double timed_start = meter.Now();
  // Open loop over arrivals: each wave spawns its users at once, then the
  // system runs for a seeded gap before the next wave arrives.
  for (size_t wave = 0; wave < kNetWaves; ++wave) {
    if (!spawn_wave(wave, kNetUsersPerSegment / kNetWaves)) {
      return result;
    }
    const pub::SimDuration gap =
        pub::Seconds(4) + pub::Millis(static_cast<int64_t>(
                              Hash(options.seed, kTagWaveGap, wave) % 1000));
    // In steps of at most a virtual second, with a probe after each.
    for (pub::SimDuration left = gap; left > 0; left -= pub::Seconds(1)) {
      RunSpan(net->sim(), ledger, std::min(left, pub::Seconds(1)));
      meter.Probe();
    }
  }
  drain();
  result.timed_s = meter.Now() - timed_start;
  ledger->set_enabled(false);
  const Totals after = Collect(view);

  result.ops = static_cast<uint64_t>(after.published - before.published);
  result.host_speed = meter.speed();
  result.probe_us = meter.probe_us();
  FillCounts(view, before, after, static_cast<double>(result.ops), &result);
  if (options.traced) {
    FillWall(*ledger, taps.stations, taps.listeners, &result);
  }
  oracle.CheckQuiescent();
  result.counts["obs.oracle.violations"] = static_cast<double>(oracle.total_violations());
  result.latency_ms = table.rtt_ms();
  result.attempted = users * kNetRequestsPerUser;
  const uint64_t missing = result.attempted - std::min(result.attempted, table.replies());
  result.failed = table.failures() + missing + oracle.total_violations();
  if (table.failures() + missing != 0) {
    Fail(&result, "internet_population: " + std::to_string(table.failures()) +
                      " bad and " + std::to_string(missing) + " missing replies");
  }
  if (oracle.total_violations() != 0) {
    Fail(&result, "internet_population: oracle violations:\n" + oracle.ReportJson());
  }
  if (after.gw_forwards == before.gw_forwards) {
    Fail(&result, "internet_population: no gateway traffic");
  }
  if (options.observe) {
    net->EnableObservability(pub::Observability{});
  }
  net.reset();
  return result;
}

// --- crash_replay -----------------------------------------------------------

PassResult RunCrashReplay(const PassOptions& options, Ledger* ledger) {
  PassResult result;
  CpuMeter meter;
  meter.Probe();
  const double setup_start = meter.Now();
  const std::string dir = LogDir(options, "crash");
  fs::remove_all(dir);
  BackendTap backend(ledger);
  auto wal = pub::Wal::Open(LogOptions(dir));
  if (!wal.ok()) {
    Fail(&result, "wal open: " + wal.status().ToString());
    return result;
  }
  backend.set_inner(wal->get());
  Taps taps;
  pub::PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.cluster.seed = Hash(options.seed, kTagClusterSeed);
  config.storage_backend = &backend;
  auto system = std::make_unique<pub::PublishingSystem>(config);
  const uint32_t per_feeder = static_cast<uint32_t>(kCrashServers / kCrashFeeders);
  system->cluster().registry().Register(
      "server", [ledger] { return std::make_unique<Server>(ledger); });
  system->cluster().registry().Register("feeder", [&options, per_feeder] {
    return std::make_unique<Feeder>(options.seed, per_feeder, kCrashMessagesPerServer);
  });
  std::vector<pub::ProcessId> servers;
  std::vector<uint64_t> reference;
  for (size_t i = 0; i < kCrashServers; ++i) {
    auto server = system->cluster().Spawn(kCrashServerNode, "server");
    if (!server.ok()) {
      Fail(&result, "spawn server: " + server.status().ToString());
      return result;
    }
    servers.push_back(*server);
    uint64_t checksum = kChecksumSeed;
    for (uint64_t j = 0; j < kCrashMessagesPerServer; ++j) {
      checksum = Fold(checksum, MakeBody(options.seed, PidKey(*server), j));
    }
    reference.push_back(checksum);
  }
  for (size_t f = 0; f < kCrashFeeders; ++f) {
    std::vector<pub::Link> links;
    for (size_t i = 0; i < per_feeder; ++i) {
      links.push_back(pub::Link{servers[f * per_feeder + i], 1, 0, 0});
    }
    auto feeder = system->cluster().Spawn(kCrashFeederNode, "feeder", std::move(links));
    if (!feeder.ok()) {
      Fail(&result, "spawn feeder: " + feeder.status().ToString());
      return result;
    }
  }
  pub::NodeKernel* server_kernel = system->cluster().kernel(kCrashServerNode);
  // Counts servers whose state equals the crash-free reference.
  auto servers_matching = [&] {
    size_t matching = 0;
    for (size_t i = 0; i < servers.size(); ++i) {
      const Server* s = ProgramAs<Server>(server_kernel, servers[i]);
      if (s != nullptr && s->count() == kCrashMessagesPerServer &&
          s->checksum() == reference[i]) {
        ++matching;
      }
    }
    return matching;
  };
  const pub::SimTime feed_deadline = system->sim().Now() + kCrashRoundDeadline;
  while (servers_matching() < kCrashServers && system->sim().Now() < feed_deadline) {
    system->RunFor(pub::Seconds(1));
  }
  if (servers_matching() != kCrashServers) {
    Fail(&result, "crash_replay: crash-free run did not reach the reference state");
    return result;
  }
  system->RunFor(pub::Seconds(2));  // Let the last reads and acks settle.
  result.setup_s = meter.Now() - setup_start;

  const StackView view = SystemView(*system, wal->get(), &backend);
  if (options.traced) {
    InstallTaps(&system->cluster().medium(), view.kernels, &system->recorder(), ledger, &taps);
  }
  std::map<pub::ProcessId, pub::SimTime> recovered;
  system->recovery().set_recovery_done_callback(
      [&recovered, &system](const pub::ProcessId& pid) {
        recovered.emplace(pid, system->sim().Now());
      });
  Samples round_wall_ms;
  const Totals before = Collect(view);
  for (int round = 0; round < kCrashRounds; ++round) {
    ledger->set_enabled(options.traced);
    const double round_start = meter.Now();
    const auto round_wall_start = std::chrono::steady_clock::now();
    const pub::SimTime crash_at = system->sim().Now();
    recovered.clear();
    {
      Scope scope(ledger, SpanKind::kRecoveryRound);
      (void)system->CrashNode(kCrashServerNode);
      while ((recovered.size() < kCrashServers || servers_matching() < kCrashServers) &&
             system->sim().Now() - crash_at < kCrashRoundDeadline) {
        RunSpan(system->sim(), ledger, pub::Millis(200));
      }
    }
    result.timed_s += meter.Now() - round_start;
    round_wall_ms.Add(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - round_wall_start)
                          .count());
    result.attempted += kCrashServers;
    for (size_t i = 0; i < servers.size(); ++i) {
      auto it = recovered.find(servers[i]);
      const Server* s = ProgramAs<Server>(server_kernel, servers[i]);
      if (it == recovered.end() || s == nullptr || s->count() != kCrashMessagesPerServer ||
          s->checksum() != reference[i]) {
        ++result.failed;
        continue;
      }
      result.latency_ms.Add(pub::ToMillis(it->second - crash_at));
    }
    // Rebuild the recorder database from the log directory.
    (void)system->storage().Flush();
    pub::RecoveryReport report;
    const double rebuild_start = meter.Now();
    pub::Result<pub::StableStorage> rebuilt = [&] {
      Scope scope(ledger, SpanKind::kStorageRebuild);
      return pub::RecoverStableStorage(dir, &report);
    }();
    result.rebuild_s += meter.Now() - rebuild_start;
    ledger->set_enabled(false);
    meter.Probe();
    result.counts["storage.rebuild.records"] += static_cast<double>(report.records_applied);
    result.counts["storage.rebuild.records_skipped"] +=
        static_cast<double>(report.records_skipped);
    if (!rebuilt.ok()) {
      Fail(&result, "crash_replay: rebuild failed: " + rebuilt.status().ToString());
      continue;
    }
    for (const pub::ProcessId& pid : servers) {
      auto info = rebuilt->Info(pid);
      if (!info.ok() || info->log_entries != kCrashMessagesPerServer) {
        Fail(&result, "crash_replay: rebuilt log of " + pub::ToString(pid) + " is wrong");
        break;
      }
    }
  }
  system->recovery().set_recovery_done_callback(nullptr);
  const Totals after = Collect(view);
  result.ops = static_cast<uint64_t>(after.replay_accepted - before.replay_accepted);
  result.host_speed = meter.speed();
  result.probe_us = meter.probe_us();
  FillCounts(view, before, after, static_cast<double>(result.ops), &result);
  if (options.traced) {
    FillWall(*ledger, taps.stations, taps.listeners, &result);
    result.wall["core.recovery.round.wall_ms_p50"] = round_wall_ms.p50();
    result.wall["core.recovery.round.wall_ms_p99"] = round_wall_ms.p99();
    result.wall["storage.rebuild.wall_ms"] =
        static_cast<double>(ledger->totals(SpanKind::kStorageRebuild).total_ns) / 1e6;
  }
  if (result.failed != 0) {
    Fail(&result, "crash_replay: " + std::to_string(result.failed) +
                      " recoveries missed the deadline or the reference state");
  }
  const uint64_t expected = kCrashServers * kCrashMessagesPerServer * kCrashRounds;
  if (result.ops != expected) {
    Fail(&result, "crash_replay: replayed " + std::to_string(result.ops) + " messages, expected " +
                      std::to_string(expected));
  }
  system.reset();
  wal->reset();
  fs::remove_all(dir);
  return result;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "lan_steady") {
    *out = Workload::kLanSteady;
  } else if (name == "internet_population") {
    *out = Workload::kInternetPopulation;
  } else if (name == "crash_replay") {
    *out = Workload::kCrashReplay;
  } else {
    return false;
  }
  return true;
}

double PassResult::rebuild_rate() const {
  const auto records = counts.find("storage.rebuild.records");
  if (records == counts.end() || rebuild_s == 0) {
    return 0;
  }
  return records->second / (rebuild_s * host_speed);
}

std::string PassResult::Signature() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "ops=%llu attempted=%llu failed=%llu latency.n=%llu p50=%.17g p99=%.17g\n",
                static_cast<unsigned long long>(ops), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(latency_ms.count()), latency_ms.p50(),
                latency_ms.p99());
  out += line;
  for (const auto& [name, value] : counts) {
    std::snprintf(line, sizeof(line), "%s=%.17g\n", name.c_str(), value);
    out += line;
  }
  return out;
}

PassResult RunPass(const PassOptions& options, Ledger* ledger) {
  switch (options.workload) {
    case Workload::kLanSteady:
      return RunLanSteady(options, ledger);
    case Workload::kInternetPopulation:
      return RunInternetPopulation(options, ledger);
    case Workload::kCrashReplay:
      return RunCrashReplay(options, ledger);
  }
  return PassResult{};
}

}  // namespace perfbench
