// Online invariant oracle for the publishing guarantees.
//
// The paper's correctness story is per-message — every guaranteed message put
// on the medium is published by the recorder before delivery, is durable
// before the end-to-end acknowledgement, and is replayed to a recovering
// process exactly once and in original receive order (PAPER.md §3–4).  The
// oracle checks those properties *while the run executes*, from the same
// lifecycle stream the tracker sees, instead of trusting tier-1 assertions to
// notice a violation after the fact.
//
// Monitors (individually switchable):
//   * recorder_completeness  — a guaranteed, non-replay, non-control message
//       must be published before it is delivered (publication gating), and at
//       quiescence nothing guaranteed that reached the wire is unpublished.
//   * receive_order          — when a recovered process re-reads messages it
//       read before the crash, the replayed reads must preserve the original
//       read order (strictly increasing pre-crash read indices).
//   * duplicate_delivery     — within one process incarnation no message id
//       is read twice (replay suppression must filter duplicates).
//   * durability_before_ack  — a guaranteed, non-replay, non-control message
//       must be journaled to stable storage before the receiver's end-to-end
//       acknowledgement (and before delivery).
//   * gateway_forwarding     — in a multi-segment internetwork (src/internet)
//       no gateway duplicates a transmission across the same segment pair, a
//       message delivered on a foreign segment must have crossed a gateway,
//       and nothing forwarded is silently dropped (checked at quiescence).
//   * migration_atomicity    — a live migration (src/migrate) is atomic at
//       the freeze barrier: no read at the source node after the freeze, no
//       message read on two different nodes across a move (duplicated
//       delivery), no two nodes owning a PID outside a move window, no
//       overlapping moves of one process, and no move left in flight at
//       quiescence.
//
// When a segment resolver is installed (SetSegmentResolver), the
// recorder_completeness monitor is additionally scoped per segment: a message
// delivered on segment S must have been published by a recorder responsible
// for S, not merely by *some* recorder on another segment.
//
// The oracle is a passive sink: it never mutates the system under test, and
// with no oracle attached the lifecycle hooks cost one null check.  On a
// violation it applies the configured policy — log (PUB_LOG_ERROR), count
// silently, or abort the process after dumping the flight recorder — and
// always records the violation for ReportJson()/tests.

#ifndef SRC_OBS_ORACLE_H_
#define SRC_OBS_ORACLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/ids.h"
#include "src/obs/causal.h"

namespace publishing {

class Counter;
class FlightRecorder;
class MetricsRegistry;

enum class OraclePolicy {
  kLog,    // Log each violation (and count it).
  kCount,  // Count silently; tests read violations() afterwards.
  kAbort,  // Dump the flight recorder, log, then std::abort().
};

enum class OracleMonitor : uint8_t {
  kRecorderCompleteness = 0,
  kReceiveOrder = 1,
  kDuplicateDelivery = 2,
  kDurabilityBeforeAck = 3,
  kGatewayForwarding = 4,
  kMigrationAtomicity = 5,
};

inline constexpr size_t kOracleMonitorCount = 6;

const char* OracleMonitorName(OracleMonitor monitor);

struct OracleViolation {
  OracleMonitor monitor = OracleMonitor::kRecorderCompleteness;
  MessageId id;
  ProcessId process;  // Reader, for the per-process monitors.
  SimTime time = 0;
  std::string detail;
};

struct OracleOptions {
  bool recorder_completeness = true;
  bool receive_order = true;
  bool duplicate_delivery = true;
  bool durability_before_ack = true;
  bool gateway_forwarding = true;
  bool migration_atomicity = true;
  OraclePolicy policy = OraclePolicy::kLog;
  // Violations retained for inspection; older ones are dropped (counts are
  // never dropped).
  size_t max_retained_violations = 64;
};

class InvariantOracle {
 public:
  using Options = OracleOptions;

  explicit InvariantOracle(Options options = Options());

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  // Optional wiring.  The flight recorder is dumped on the first violation
  // (reason "oracle_violation"); metrics get per-monitor violation counters.
  void AttachFlightRecorder(FlightRecorder* flight) { flight_ = flight; }
  void AttachMetrics(MetricsRegistry* metrics);
  // Extra hook for tests (runs on every violation, after recording).  It
  // must not feed events back into this oracle: OnEvent holds references
  // into its flat tables across the call.
  void SetViolationHook(std::function<void(const OracleViolation&)> hook) {
    hook_ = std::move(hook);
  }
  // Installs the node -> segment partition function (src/internet's
  // SegmentMap::SegmentResolver).  Enables the cross-segment checks: per-
  // segment completeness scoping and delivered-without-forward detection.
  // The resolver must return -1 for nodes outside any segment (gateways) and
  // must outlive the oracle.  Null reverts to single-segment behaviour.
  void SetSegmentResolver(std::function<int32_t(NodeId)> resolver) {
    segment_resolver_ = std::move(resolver);
  }

  // Feed: called by the LifecycleTracker for every stage observation.
  void OnEvent(const LifecycleEvent& event);

  // A process incarnation ended and a new one began (recovery recreate).
  // Rolls the per-incarnation state: the current read log becomes the
  // previous-incarnation reference for the receive-order monitor.
  void OnProcessReset(const ProcessId& pid);

  // A live migration froze `pid` on `from` and is moving it to `to`
  // (src/migrate).  Opens the move for the migration_atomicity monitor;
  // the kMigrated lifecycle event closes it.
  void OnMigrationStart(const ProcessId& pid, NodeId from, NodeId to);
  // The move was abandoned before completion; `pid` stays on `from`.
  void OnMigrationAborted(const ProcessId& pid);

  // End-of-run check: every guaranteed, non-control message that reached the
  // wire must have been published.  Call when the simulation has quiesced
  // (in-flight retransmissions would otherwise be false positives).
  void CheckQuiescent();

  // Health-watchdog surfacing (src/obs/watchdog.h): the watchdog reports each
  // SLO breach here so end-of-run oracle reports carry the health verdict
  // alongside the correctness one.  Alerts are *not* violations — they do not
  // trip the policy or the flight recorder (the watchdog handles its own
  // dumps) — they only accumulate into ReportJson's "health" section.
  void NoteHealthAlert(const std::string& rule, SimTime time);
  uint64_t health_alerts() const { return health_total_; }

  uint64_t total_violations() const { return total_violations_; }
  uint64_t violations(OracleMonitor monitor) const {
    return violation_counts_[static_cast<size_t>(monitor)];
  }
  const std::deque<OracleViolation>& recent_violations() const { return recent_; }

  // Deterministic JSON: per-monitor enable flags and counts, plus retained
  // violations in occurrence order.
  std::string ReportJson() const;

 private:
  struct MessageState {
    bool on_wire = false;
    bool published = false;
    bool durable = false;
    bool guaranteed = false;
    bool control = false;
    bool delivered = false;  // Live or replayed delivery reached a node.
    bool forwarded = false;  // Crossed at least one gateway.
    // Segments whose recorder published this message (bit min(segment, 63)).
    // Only maintained when a segment resolver is installed.
    uint64_t published_segments = 0;
  };

  struct ProcessState {
    // Read log of the current incarnation, in read order.
    std::vector<MessageId> read_log;
    // Message id -> index in the *previous* incarnation's read log.
    FlatMap<MessageId, size_t> prev_read_index;
    // Highest previous-incarnation index re-read so far this incarnation.
    // -1 until the first re-read.
    int64_t last_prev_index = -1;
    // Ids read this incarnation (duplicate-delivery monitor).
    FlatSet<MessageId> read_this_incarnation;
    // Node observed reading for this process outside any move window: "no
    // two nodes owning a PID".  Cleared on incarnation reset (normal
    // recovery may legitimately recreate on a spare node).
    bool has_owner = false;
    NodeId owner;
  };

  // One process's live-migration window (migration_atomicity monitor).
  struct MigrationState {
    bool in_flight = false;
    NodeId from;
    NodeId to;
    // Node that first read each message, for processes that ever migrated:
    // the same message read on two different nodes is a delivery duplicated
    // across a move (the barrier checkpoint subsumes everything read before
    // the freeze, so clean migrations replay only unread entries).
    FlatMap<MessageId, NodeId> read_node;
  };

  void Violate(OracleMonitor monitor, const LifecycleEvent& event,
               std::string detail);
  void Violate(OracleMonitor monitor, const MessageId& id, ProcessId process,
               SimTime time, std::string detail);

  Options options_;
  FlatMap<MessageId, MessageState> messages_;
  std::unordered_map<ProcessId, ProcessState> processes_;
  // Ordered so CheckQuiescent flags leftover moves deterministically.
  std::map<ProcessId, MigrationState> migrations_;
  // Per message: encoded (hop, from_segment, to_segment) gateway crossings
  // already seen, for duplicate-forward detection.  Kept out of MessageState
  // so messages that never cross a gateway pay nothing.
  FlatMap<MessageId, FlatSet<uint64_t>> forward_tuples_;
  std::function<int32_t(NodeId)> segment_resolver_;

  uint64_t total_violations_ = 0;
  uint64_t violation_counts_[kOracleMonitorCount] = {};
  uint64_t health_total_ = 0;
  SimTime health_last_time_ = 0;
  std::map<std::string, uint64_t> health_counts_;  // rule name -> breaches
  SimTime last_event_time_ = 0;
  std::deque<OracleViolation> recent_;

  FlightRecorder* flight_ = nullptr;
  Counter* violation_counters_[kOracleMonitorCount] = {};
  std::function<void(const OracleViolation&)> hook_;
};

}  // namespace publishing

#endif  // SRC_OBS_ORACLE_H_
