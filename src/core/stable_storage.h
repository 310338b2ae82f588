// The recorder's stable storage (§3.3.1, §4.5).
//
// Holds, per process, exactly the database entry the paper enumerates:
//   * the process identifier,
//   * the identifier of the most recent message sent by the process,
//   * the messages received since the last checkpoint (with read order),
//   * the last checkpoint,
//   * whether or not the process is recovering,
// plus the restart counter used by the recorder-restart protocol (§3.4).
//
// The store survives recorder crashes by construction: the Recorder object
// only keeps summaries; crash/restart drops the Recorder's volatile state
// and rebuilds from this object ("it is possible to rebuild the data base
// from the disk", §4.5).  Disk-page accounting (4 KB pages, compaction on
// checkpoint) models the storage-cost numbers of §5.1.

#ifndef SRC_CORE_STABLE_STORAGE_H_
#define SRC_CORE_STABLE_STORAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/flat_table.h"
#include "src/common/ids.h"
#include "src/common/serialization.h"
#include "src/common/status.h"
#include "src/demos/link.h"
#include "src/obs/lifecycle.h"
#include "src/storage/storage_backend.h"

namespace publishing {

// One published message in a process's input stream.
struct LogEntry {
  MessageId id;
  uint64_t arrival = 0;   // Monotonic arrival index at the recorder.
  // Serialized transport packet (replayable as-is).  A shared view of the
  // overheard wire bytes: the recorder appends the unwrapped frame payload
  // without re-serializing, so the entry and the frame share one storage.
  Buffer packet;
  bool read = false;
  uint64_t read_seq = 0;  // Position in the process's read stream.
};

// Zero-copy walk over one process's replay stream, in replay order (read
// entries in read order, then unread entries in arrival order).  Each item
// shares the stored packet's Buffer storage — assembling or walking a cursor
// never materializes payload bytes.  The cursor is a snapshot: entries
// appended to the log after construction (live traffic published while a
// recovery is in flight) are not visible through it, which is exactly the
// snapshot semantics BeginReplay depends on.
class ReplayCursor {
 public:
  ReplayCursor() = default;
  explicit ReplayCursor(std::vector<LogEntry> entries) : entries_(std::move(entries)) {
    for (const LogEntry& entry : entries_) {
      payload_bytes_ += entry.packet.size();
    }
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Total logged payload bytes the cursor spans (drives replay back-pressure
  // budgets without touching the payloads).
  size_t payload_bytes() const { return payload_bytes_; }

  const LogEntry& operator[](size_t i) const { return entries_[i]; }
  std::vector<LogEntry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<LogEntry>::const_iterator end() const { return entries_.end(); }

 private:
  std::vector<LogEntry> entries_;
  size_t payload_bytes_ = 0;
};

struct ProcessLogInfo {
  std::string program;
  std::vector<Link> initial_links;
  NodeId home_node;
  bool destroyed = false;
  bool recoverable = true;  // §6.6.1: false = publish nothing for it.
  bool recovering = false;  // §3.3.1: part of the durable database entry.
  bool has_checkpoint = false;
  uint64_t checkpoint_reads = 0;   // reads_done at the stored checkpoint.
  uint64_t last_sent_seq = 0;      // Highest send sequence published.
  size_t log_bytes = 0;            // Published bytes retained for replay.
  size_t log_entries = 0;          // Messages retained for replay.
  size_t checkpoint_bytes = 0;
};

class StableStorage {
 public:
  static constexpr size_t kPageBytes = 4096;

  StableStorage() = default;
  // No copying: a copy would alias the attached backend and double-journal.
  // Moves re-point the backend's snapshot source at the new object.
  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;
  StableStorage(StableStorage&& other) noexcept;
  StableStorage& operator=(StableStorage&& other) noexcept;

  // --- Durable backend (src/storage) ---
  // Attaches a journaling backend: every *effective* mutation from here on
  // is appended to it as a serialized record (see StorageJournal), making
  // the §4.5 claim literal — the database can be rebuilt from disk via
  // RecoverStableStorage().  nullptr detaches.  The in-memory model (no
  // backend) remains the default.
  void AttachBackend(StorageBackend* backend);
  StorageBackend* backend() const { return backend_; }
  // Clock stamped onto journal appends; lets the backend group-commit over
  // virtual-time windows.  The Recorder wires this to its simulator.
  void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }
  // Forces every journaled record durable (no-op without a backend).
  Status Flush();

  // Lifecycle sink: effective message appends observe kDurable (the append
  // is journaled — or, without a backend, stable by the in-memory model).
  // `node` is the recorder node the storage belongs to.  nullptr detaches.
  void SetLifecycle(LifecycleTracker* lifecycle, NodeId node) {
    lifecycle_ = lifecycle;
    lifecycle_node_ = node;
  }

  // --- Process lifecycle ---
  void RecordCreation(const ProcessId& pid, const std::string& program,
                      std::vector<Link> initial_links, NodeId home_node,
                      bool recoverable = true);
  void RecordDestruction(const ProcessId& pid);
  // Recovery onto a different node moves the process's home (§3.3.3 step 1).
  void SetHomeNode(const ProcessId& pid, NodeId node);
  bool Knows(const ProcessId& pid) const { return logs_.contains(pid); }

  // --- Publishing ---
  // Appends a published message for `pid`; creates an implicit entry if the
  // creation notice has not arrived yet.
  void AppendMessage(const ProcessId& pid, const MessageId& id, Buffer packet);
  // Records that `reader` consumed `id`.  Re-reads during replay (ids already
  // recorded as read) are ignored.
  void RecordRead(const ProcessId& reader, const MessageId& id);
  // Updates the highest-sent watermark for a sender.
  void RecordSent(const ProcessId& sender, uint64_t seq);

  // --- Checkpoints ---
  // Stores a checkpoint taken when the process had performed `reads_done`
  // reads, and discards the log entries it subsumes (§3.3.1: "After the
  // checkpoint has been reliably stored, older checkpoints and messages can
  // be discarded").
  void StoreCheckpoint(const ProcessId& pid, Bytes state, uint64_t reads_done);
  Result<Bytes> LoadCheckpoint(const ProcessId& pid) const;

  // §3.3.1's "whether or not the process is recovering", journaled so a
  // rebuilt recorder knows which recoveries its dead incarnation left
  // in flight.
  void SetRecovering(const ProcessId& pid, bool recovering);

  // --- Live migration hand-off (src/migrate) ---
  // Serializes `pid`'s full database entry (checkpoint, retained log with
  // read order, watermarks, dedup sets) for installation into another
  // recorder's storage on a cross-segment move.  Fails if the process is
  // unknown or destroyed.
  Result<Bytes> ExportEntry(const ProcessId& pid) const;
  // Installs an exported entry with home `node`.  Arrival indices are
  // remapped onto this storage's counter preserving their relative order,
  // and any moved-away tombstone for the process is cleared (a process may
  // migrate back).  The post-remap image is journaled.
  Status ImportEntry(const Bytes& blob, NodeId node);
  // Removes `pid`'s entry after a successful export and leaves a moved
  // tombstone: later appends, read reports, and watermarks for the process
  // are ignored here (its new segment's recorder owns them now).
  void DropEntry(const ProcessId& pid, NodeId moved_to);
  // Where `pid` migrated to, if it moved away from this storage.
  Result<NodeId> MovedTo(const ProcessId& pid) const;

  // --- Straggler annex drain (crash inside the hand-off window) ---
  // Moved-away processes whose annex holds at least one straggler frame.
  // Normally empty at rest: the evicting kernel's forwarding re-send delivers
  // stragglers to the new home, which logs them, and the annex copy is just
  // the durability record behind the ack.  After a crash that kills the
  // forwarding path, the annex is the ONLY copy — the migration supervisor
  // drains it into the new home's storage on recorder restart.
  std::vector<ProcessId> AnnexedProcesses() const;
  // Removes and returns `pid`'s annexed frames in arrival order.  The take is
  // deliberately not journaled: if this recorder crashes again before the
  // frames land at the new home, a rebuild resurrects the annex from the
  // journaled appends and the next drain re-feeds them — the new home's
  // ever_logged dedup and the replay machinery make re-feeding idempotent.
  std::vector<LogEntry> TakeAnnex(const ProcessId& pid);

  // --- Recovery support ---
  // Assembles the replay stream for `pid`: entries read since the checkpoint
  // in read order, then unread entries in arrival order (the queue at
  // crash).  O(k) in the number of replayed messages — the read order is
  // maintained incrementally at read time (read_order/by_id below), so no
  // re-sort happens here — and zero payload bytes are copied (every item
  // shares the stored Buffer).
  ReplayCursor Replay(const ProcessId& pid) const;
  Result<ProcessLogInfo> Info(const ProcessId& pid) const;
  uint64_t LastSent(const ProcessId& pid) const;
  // Every non-destroyed process the recorder believes should exist, by node.
  std::vector<ProcessId> ProcessesOnNode(NodeId node) const;
  std::vector<ProcessId> AllProcesses() const;
  // Highest local process id created on `node` (restart floor, §4.7).
  uint32_t LocalIdHighWater(NodeId node) const;

  // --- Node-unit recovery storage (§6.6.2) ---

  struct NodeLogEntry {
    MessageId id;
    uint64_t arrival = 0;
    uint64_t step = 0;     // Event-counter stamp; valid when `stamped`.
    bool stamped = false;  // False until the node reported the arrival.
    Buffer packet;         // Shared view of the overheard wire bytes.
  };

  // Appends an overheard extranode message for `node`.
  void AppendNodeMessage(NodeId node, const MessageId& id, Buffer packet);
  // Records the execution position at which `node` received message `id`.
  void StampNodeMessage(NodeId node, const MessageId& id, uint64_t step);
  // Stores a whole-node checkpoint and discards entries it subsumes.
  void StoreNodeCheckpoint(NodeId node, Bytes image, uint64_t node_step);
  struct NodeCheckpointInfo {
    Bytes image;
    uint64_t node_step = 0;
  };
  Result<NodeCheckpointInfo> LoadNodeCheckpoint(NodeId node) const;
  // Stamped entries newer than the checkpoint, in stamp order.  Unstamped
  // entries (the node never received them) are excluded: their senders are
  // still retransmitting and will deliver them live.
  std::vector<NodeLogEntry> NodeReplayList(NodeId node) const;

  // --- Recorder restart (§3.4) ---
  // Journaled and synced: the restart number must be durable before the
  // state-query protocol uses it to stamp queries.
  uint64_t IncrementRestartNumber();
  uint64_t restart_number() const { return restart_number_; }

  // --- Accounting (§5.1 storage results) ---
  // O(1): a running total kept by the byte-accounting helpers below.
  size_t TotalBytes() const { return total_bytes_; }
  size_t TotalPages() const;
  size_t PeakBytes() const { return peak_bytes_; }
  uint64_t messages_stored() const { return messages_stored_; }
  uint64_t straggler_appends() const { return straggler_appends_; }

 private:
  struct ProcessLog {
    ProcessLogInfo info;
    Bytes checkpoint;
    std::vector<LogEntry> entries;              // Arrival order.
    uint64_t next_read_seq = 1;
    FlatSet<MessageId> ever_read;    // Replay re-read filter.
    FlatSet<MessageId> ever_logged;  // Retransmit dedup: a frame
                                     // retransmitted because its ack was
                                     // lost must not be logged twice.
    // Incremental replay index.  by_id maps a retained entry to its position
    // in `entries` (O(1) RecordRead instead of a linear scan); read_order
    // lists retained read entries in read_seq order (read_seq is monotonic,
    // so appends keep it sorted by construction).  Both are maintained at
    // publish/read time and compacted alongside the entries they index, so
    // replay assembly never re-sorts.
    FlatMap<MessageId, size_t> by_id;
    std::vector<MessageId> read_order;
  };

  struct NodeLog {
    bool has_checkpoint = false;
    Bytes checkpoint;
    uint64_t checkpoint_step = 0;
    std::vector<NodeLogEntry> entries;
    FlatSet<MessageId> ever_logged;
  };

  // StorageJournal serializes/restores the private image for snapshots and
  // applies journal records during rebuild.
  friend class StorageJournal;

  ProcessLog& Ensure(const ProcessId& pid);
  // Byte accounting.  total_bytes_ is the sum of log_bytes + checkpoint_bytes
  // over logs_.  Every change to a stored log's byte counts goes through
  // SetBytes, and every entry installed into or removed from logs_ goes
  // through InstallLog, EraseLog or ClearLogs (StorageJournal's apply paths
  // included), so the total stays exact without a walk.  Ensure() may add
  // an entry directly: a fresh entry holds no bytes.
  static size_t BytesOf(const ProcessLog& log) {
    return log.info.log_bytes + log.info.checkpoint_bytes;
  }
  void SetBytes(ProcessLog& log, size_t log_bytes, size_t checkpoint_bytes);
  void InstallLog(const ProcessId& pid, ProcessLog log);
  void EraseLog(const ProcessId& pid);
  void ClearLogs();
  void RefreshAccounting();
  // Recomputes by_id/read_order from `entries` — the cold path used after
  // checkpoint compaction and snapshot restore (StorageJournal fills
  // `entries` directly); the hot path maintains both incrementally.
  static void RebuildReplayIndex(ProcessLog& log);
  void ObserveDurable(const MessageId& id) {
    if (lifecycle_ == nullptr) {
      return;
    }
    CausalContext ctx;
    ctx.id = id;
    ctx.origin = id.sender.origin;
    ctx.flags = kCausalGuaranteed;  // Only guaranteed traffic is published.
    lifecycle_->Observe(ctx, LifecycleStage::kDurable, lifecycle_node_);
  }
  // Appends the record `encode()` returns to the attached backend.  Without
  // one, nothing is encoded: the in-memory default pays no copy of the
  // packet or checkpoint it would have journaled.
  template <typename Encode>
  void Journal(Encode&& encode) {
    if (backend_ != nullptr) {
      (void)backend_->Append(encode(), clock_ ? clock_() : 0);
    }
  }

  std::map<ProcessId, ProcessLog> logs_;
  std::map<NodeId, NodeLog> node_logs_;
  // Moved-away tombstones (live migration): processes whose database entry
  // was handed to another recorder, with the node they moved to.  Ordered so
  // snapshot records serialize deterministically.
  std::map<ProcessId, NodeId> moved_;
  // Straggler annex: frames for a moved-away process that this recorder
  // overheard after the hand-off.  The transport has already acked them, so
  // the publication must still be journaled (an ack may never outrun the
  // journal) even though the authoritative log lives elsewhere now.  Annex
  // entries are invisible to replay and recovery here — delivery of a
  // straggler is normally the evicting kernel's forwarding re-send, which
  // the new home's recorder logs itself.  The payloads are retained (and
  // snapshotted) so that when a crash kills the forwarding path, TakeAnnex
  // can feed the new home directly instead of losing acked messages.
  struct AnnexLog {
    FlatSet<MessageId> ids;         // Retransmit dedup.
    std::vector<LogEntry> entries;  // Arrival order.
  };
  std::map<ProcessId, AnnexLog> annex_;
  uint64_t next_arrival_ = 1;
  uint64_t restart_number_ = 0;
  uint64_t messages_stored_ = 0;
  uint64_t straggler_appends_ = 0;
  size_t total_bytes_ = 0;
  size_t peak_bytes_ = 0;
  StorageBackend* backend_ = nullptr;
  std::function<uint64_t()> clock_;
  LifecycleTracker* lifecycle_ = nullptr;
  NodeId lifecycle_node_;
};

}  // namespace publishing

#endif  // SRC_CORE_STABLE_STORAGE_H_
