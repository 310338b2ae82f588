// Per-message lifecycle tracking: the causal layer of the observability
// subsystem.
//
// A LifecycleTracker is the single sink for CausalContext stage observations
// from every instrumented layer (transport endpoints, the medium, the
// recorder, stable storage, the node kernels).  For each message it keeps one
// LifecycleRecord — first virtual time and occurrence count per stage, hop
// count, destination — in a bounded table with FIFO eviction, and fans each
// raw observation out to the optional attachments:
//
//   * Tracer          — one async span per message ("msg.lifecycle", opened
//                       at first sent, closed at first read) plus per-stage
//                       instants, on the dedicated lifecycle track;
//   * MetricsRegistry — `lifecycle.since_sent_ms{stage=...}` histograms
//                       (virtual-time latency from sent to each later stage)
//                       and stage counters;
//   * InvariantOracle — online invariant checking (oracle.h);
//   * FlightRecorder  — bounded per-node ring of recent events, dumpable on
//                       crash or violation (flight_recorder.h).
//
// Like every obs sink, the tracker is passive and optional: components cache
// an `Observability::lifecycle` pointer once and pay a single null check per
// hook, so detached runs stay bit-identical to the seed.
//
// TableToJson()/TableToCsv() serialize the table deterministically (records
// sorted by message id, stages in enum order, fixed number formatting), so
// identical runs dump byte-identical lifecycle tables.

#ifndef SRC_OBS_LIFECYCLE_H_
#define SRC_OBS_LIFECYCLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/ids.h"
#include "src/obs/causal.h"
#include "src/sim/time.h"

namespace publishing {

class FlightRecorder;
class Histogram;
class Counter;
class InvariantOracle;
class MetricsRegistry;
class Simulator;
class Tracer;

// Aggregated lifecycle of one message.  `first_time[s]` is -1 until stage
// `s` is first observed; `count[s]` counts every observation (retransmits
// show up as count[kSent] > 1, hop > 0).
struct LifecycleRecord {
  MessageId id;
  NodeId origin;
  NodeId dst_node;        // Node of the first delivered/replayed observation.
  ProcessId dst_process;  // Process of the first read observation, if any.
  uint8_t flags = 0;
  uint32_t max_hop = 0;
  uint64_t first_seq = 0;  // Tracker seq of the first observation (insertion order).
  SimTime first_time[kLifecycleStageCount];
  uint32_t count[kLifecycleStageCount];
  uint64_t span_id = 0;  // Open "msg.lifecycle" async span, 0 if none/closed.
  // Distinct (from_segment, to_segment) gateway hops, in first-seen order,
  // capped at kMaxForwardPairs (retransmits crossing the same gateway do not
  // add entries; count[kForwarded] still counts every crossing).
  static constexpr size_t kMaxForwardPairs = 8;
  std::vector<std::pair<int32_t, int32_t>> forwards;

  LifecycleRecord() {
    for (size_t i = 0; i < kLifecycleStageCount; ++i) {
      first_time[i] = -1;
      count[i] = 0;
    }
  }

  bool Saw(LifecycleStage stage) const {
    return count[static_cast<size_t>(stage)] > 0;
  }
  SimTime FirstTime(LifecycleStage stage) const {
    return first_time[static_cast<size_t>(stage)];
  }
};

class LifecycleTracker {
 public:
  static constexpr size_t kDefaultMaxMessages = 1 << 16;

  // `sim` supplies virtual time for every observation; not owned, must
  // outlive the tracker.  The table keeps at most `max_messages` records,
  // evicting the oldest (by first observation) once full.
  explicit LifecycleTracker(const Simulator* sim,
                            size_t max_messages = kDefaultMaxMessages);

  LifecycleTracker(const LifecycleTracker&) = delete;
  LifecycleTracker& operator=(const LifecycleTracker&) = delete;

  // Optional attachments.  All are borrowed pointers that must outlive the
  // tracker (or be detached by re-attaching nullptr).  AttachMetrics resolves
  // every instrument once, per the ScopedMetrics discipline.
  void AttachTracer(Tracer* tracer);
  void AttachMetrics(MetricsRegistry* metrics);
  void AttachOracle(InvariantOracle* oracle) { oracle_ = oracle; }
  void AttachFlightRecorder(FlightRecorder* flight) { flight_ = flight; }

  InvariantOracle* oracle() const { return oracle_; }
  FlightRecorder* flight_recorder() const { return flight_; }

  // The instrumentation hook: record that `stage` happened to the message
  // carried by `ctx` on `node` (for `process`, when the layer knows it).
  void Observe(const CausalContext& ctx, LifecycleStage stage, NodeId node,
               ProcessId process = {});

  // Gateway hook: the message crossed from `from_segment` onto `to_segment`
  // at gateway node `node` (src/internet).  Same as Observe(kForwarded) but
  // carries the segment ids into the event for the oracle's
  // gateway_forwarding monitor and the per-record forward list.
  void ObserveForwarded(const CausalContext& ctx, NodeId node,
                        int32_t from_segment, int32_t to_segment);

  // Migration hook (src/migrate): the live move identified by `ctx` (the
  // MigrationManager stamps one synthetic message id per move) completed;
  // `process` now runs on `node`.  Same as Observe(kMigrated) but carries
  // the from/to segments for the oracle's migration_atomicity monitor.
  void ObserveMigrated(const CausalContext& ctx, NodeId node, ProcessId process,
                       int32_t from_segment, int32_t to_segment);

  // A live migration froze `pid` on `from_node` and is moving it to
  // `to_node`.  Forwarded to the oracle, which opens the move: reads at the
  // old node past this barrier, overlapping moves, and double ownership all
  // become migration_atomicity violations until ObserveMigrated closes it.
  void NoteMigrationStart(const ProcessId& pid, NodeId from_node, NodeId to_node);
  // The move was abandoned (freeze refused / target vanished); the process
  // stays where it was and the oracle drops the in-flight move.
  void NoteMigrationAborted(const ProcessId& pid);

  // A process was recreated (new incarnation) during recovery.  Forwarded to
  // the oracle so per-incarnation invariants (duplicate delivery, receive
  // order) reset their state instead of flagging legitimate replays.
  void NoteProcessReset(const ProcessId& pid);

  // A fault was injected (crash_process / crash_node / crash_recorder) or an
  // invariant tripped.  Emits a tracer instant and asks the flight recorder
  // to dump.
  void NoteFault(const std::string& kind, const std::string& detail);

  // Table access for tests and reporters.
  size_t size() const { return records_.size(); }
  uint64_t observed() const { return next_seq_; }
  uint64_t evicted() const { return evicted_; }
  const LifecycleRecord* Find(const MessageId& id) const;
  // Every record, sorted by message id.  The references stay valid until
  // the next observation.
  std::vector<std::reference_wrapper<const LifecycleRecord>> SortedRecords() const;

  // Deterministic exports of the lifecycle table.
  std::string TableToJson() const;
  std::string TableToCsv() const;
  bool WriteJsonFile(const std::string& path) const;
  bool WriteCsvFile(const std::string& path) const;

 private:
  LifecycleRecord& FindOrCreate(const CausalContext& ctx);
  void ObserveEvent(LifecycleEvent& event);

  const Simulator* sim_;
  size_t max_messages_;
  // The table: a FIFO ring of records in first-observation order (chunked,
  // so growing it never copies the records) and an index from each id to
  // its record's absolute position.  Position p sits at records_[p -
  // evicted_], since every eviction pops the front.
  std::deque<LifecycleRecord> records_;
  FlatMap<MessageId, uint64_t> index_;
  uint64_t next_seq_ = 0;
  uint64_t evicted_ = 0;

  Tracer* tracer_ = nullptr;
  InvariantOracle* oracle_ = nullptr;
  FlightRecorder* flight_ = nullptr;

  // Cached instruments (null when no registry attached).
  Counter* stage_counters_[kLifecycleStageCount] = {};
  Histogram* since_sent_ms_[kLifecycleStageCount] = {};
  Counter* faults_ = nullptr;
  Counter* evictions_ = nullptr;
};

}  // namespace publishing

#endif  // SRC_OBS_LIFECYCLE_H_
