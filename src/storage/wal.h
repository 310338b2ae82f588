// Segmented write-ahead log with group commit: the durable StorageBackend.
//
// Layout: the directory holds one subdirectory per simulated disk
// ("stripe-<n>/", `stripes` of them, one by default), each with its own
// chain of segment files "wal-<seq>.seg" (format in log_segment.h), group-
// commit window and torn tail.  Records route to a stripe by
// StorageJournal::RouteKey (process hash), so everything touching one
// process log shares a stripe and a torn tail is a per-process suffix.
// Every record carries an 8-byte global LSN; recovery merges the chains by
// LSN back into the exact journal order, so `ReplayCursor` order and the
// StorageJournal rebuild do not depend on the stripe count.  A stripe's
// records append to its active (highest-seq) segment, which rolls past
// `segment_bytes`.  Opening an existing directory never appends to old
// segments — each stripe starts a fresh one after its highest sequence, so
// a torn tail from a previous crash stays confined to a dead segment where
// recovery can drop it.
//
// Group commit (§5.2.2's motivation — publish cost must not be per-message):
// Append() stages the record and only fsyncs once the stripe's batch limit
// is reached or `group_commit_interval` virtual-time units have passed since
// the stripe's last sync; records staged but not yet synced are the
// acknowledged-durability window the storage bench measures.  With
// `adaptive` enabled the batch limit rides arrival rate: a window that fills
// doubles the limit, a window closed by time or by the ack-latency target
// halves it, always inside [min_records, max_records].
//
// Compaction: checkpoint-triggered (growth policy in compactor.h).  It
// reserves a contiguous LSN block for the captured live image and
// re-journals the image stripe by stripe in bounded slices; old segments
// are deleted only after the whole block is durable, and a crash mid
// rewrite leaves an incomplete block that recovery ignores.  By default the
// rewrite is drained: CompactNow returns once every slice is durable.  With
// `concurrent_compaction` it is paced: the slices ride between commit
// windows, so the publish path never stalls behind a full-image rewrite.

#ifndef SRC_STORAGE_WAL_H_
#define SRC_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/stats.h"
#include "src/storage/compactor.h"
#include "src/storage/log_segment.h"
#include "src/storage/storage_backend.h"

namespace publishing {

// Adaptive group commit: the per-stripe batch limit deepens while arrivals
// fill windows and shrinks when windows close idle, bounded by an optional
// staging-delay target.
struct AdaptiveCommitOptions {
  bool enabled = false;
  size_t min_records = 4;
  size_t max_records = 256;
  // Never leave a record staged longer than this much virtual time before
  // fsyncing (0 = no bound).  This is the ack-latency guardrail: deep
  // batches amortize fsyncs but may not delay the durability a publish ack
  // is waiting on.
  uint64_t ack_latency_target = 0;
};

// Virtual-time model of one simulated disk per stripe (the queueing model's
// parameters: fixed per-write latency plus transfer time).  Purely an
// accounting device — file I/O is unchanged — so benches can measure stripe
// saturation and ack latency deterministically.
struct WalDiskModel {
  bool enabled = false;
  uint64_t latency_ns = 3'000'000;               // 3 ms per write.
  uint64_t bytes_per_second = 2 * 1024 * 1024;   // 2 MB/s transfer.
};

struct WalOptions {
  std::string dir;                    // Created if missing.
  size_t segment_bytes = 1 << 20;     // Roll the active segment past this.
  // Group commit: fsync after this many staged records (the initial batch
  // limit when `adaptive` is enabled)...
  size_t group_commit_records = 32;
  // ...or when an Append arrives this much virtual time after the last sync
  // (0 disables the time trigger).  There is no timer: the window closes on
  // the next append or Tick(), which is the correct model for a recorder
  // whose work arrives as messages.
  uint64_t group_commit_interval = 0;
  CompactorOptions compactor;
  // Number of simulated disks, one stripe directory each.
  size_t stripes = 1;
  // Pace a checkpoint-triggered compaction's slices between commit windows
  // instead of draining them before the checkpoint returns.
  bool concurrent_compaction = false;
  AdaptiveCommitOptions adaptive;
  WalDiskModel disk;
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;      // Record payload bytes.
  uint64_t syncs = 0;               // fsync calls on the active segment.
  uint64_t segments_created = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_reclaimed = 0;
  uint64_t compaction_segments_deleted = 0;
};

class Wal : public StorageBackend {
 public:
  // Opens (creating if needed) the log directory.  Existing segments are
  // preserved and counted toward the compaction baseline; each stripe
  // appends to a new segment after its highest existing sequence, and new
  // LSNs follow every durable one.  Stripes past `stripes` (a log written
  // with more of them) are adopted into stripe 0's sealed chain, so the next
  // compaction retires them.
  static Result<std::unique_ptr<Wal>> Open(WalOptions options);
  ~Wal() override;

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // StorageBackend.
  Status Append(std::span<const uint8_t> record, uint64_t now) override;
  Status Sync() override;
  void Tick(uint64_t now) override;
  void OnCheckpointStored() override;
  void SetSnapshotSource(std::function<std::vector<Bytes>()> source) override {
    snapshot_source_ = std::move(source);
  }
  void SetObservability(const Observability& obs) override;

  // Total on-disk bytes across all segments (staged bytes included).
  size_t TotalBytes() const;
  size_t SegmentCount() const;
  uint64_t PendingRecords() const;
  const WalStats& stats() const { return stats_; }
  const std::string& dir() const { return options_.dir; }

  // --- Striped pipeline introspection ---
  size_t stripes() const { return stripes_.size(); }
  const WalStats& stripe_stats(size_t i) const { return stripes_[i].stats; }
  size_t stripe_batch_limit(size_t i) const { return stripes_[i].batch_limit; }
  // Disk-model accounting (zero when the model is disabled).
  uint64_t stripe_disk_busy_ns(size_t i) const { return stripes_[i].disk_busy_ns; }
  uint64_t stripe_disk_busy_until(size_t i) const { return stripes_[i].disk_busy_until; }
  // Staged-to-durable latency of each commit window (virtual ms, disk model).
  const StatAccumulator& stripe_ack_ms(size_t i) const { return stripes_[i].ack_ms; }

  // Forces a compaction regardless of the growth policy (still a no-op
  // without a snapshot source): starts the rewrite, or takes over the one in
  // flight, and drains it to completion before returning.  Returns true if
  // a rewrite happened.
  bool CompactNow();
  // Captures the live image and reserves its LSN block, then returns at
  // once; the slices are re-journaled by Append and Tick.  Returns false if
  // already compacting or no snapshot source is attached.
  bool StartCompaction();
  bool CompactionInProgress() const { return compaction_ != nullptr; }

  // Segment file names, sorted by sequence within each stripe, active last.
  std::vector<std::string> SegmentPaths() const;

 private:
  explicit Wal(WalOptions options);

  struct SealedSegment {
    uint64_t seq = 0;
    std::string path;
    size_t bytes = 0;
  };

  struct Stripe {
    std::string dir;
    SegmentWriter active;
    std::vector<SealedSegment> sealed;
    uint64_t next_seq = 1;
    uint64_t pending = 0;           // Records staged since the last sync.
    uint64_t last_sync_now = 0;
    uint64_t window_open_now = 0;   // Virtual time the pending batch opened.
    size_t batch_limit = 32;        // Current group-commit trigger.
    uint64_t unsynced_bytes = 0;    // Bytes staged since the last sync.
    WalStats stats;
    // Disk model state.
    uint64_t disk_busy_until = 0;
    uint64_t disk_busy_ns = 0;
    StatAccumulator ack_ms;
    // Per-stripe instruments (null = detached).
    Gauge* obs_appends = nullptr;
    Gauge* obs_syncs = nullptr;
    Gauge* obs_segments = nullptr;
    Gauge* obs_bytes = nullptr;
  };

  // In-flight concurrent compaction: the captured image and its reserved
  // contiguous LSN block.
  struct CompactionState {
    std::vector<Bytes> records;
    size_t next = 0;                 // Next record to re-journal.
    uint64_t first_lsn = 0;
    std::vector<size_t> capture_sealed;  // Per-stripe sealed count at capture.
    size_t bytes_before = 0;
  };

  Status OpenDirectory();
  Status OpenStripe(Stripe& stripe);
  // Adds the segments in `dir` to `sealed` and raises next_lsn_ past their
  // LSNs.  Returns the highest segment sequence found (0 for none).
  Result<uint64_t> AdoptSegments(const std::string& dir, std::vector<SealedSegment>& sealed);
  Status RollSegment(Stripe& stripe);
  // Frames `lsn` ‖ `record` into the stripe's active segment, rolling it
  // first if the frame would overflow it.
  Status AppendToStripe(Stripe& stripe, uint64_t lsn, std::span<const uint8_t> record);
  // force: fsync staged bytes even when no group-commit window is pending
  // (compaction slices stage bytes without opening a window).
  Status SyncStripe(Stripe& stripe, uint64_t now, bool force = false);
  size_t RouteStripe(std::span<const uint8_t> record) const;
  void PumpCompaction(uint64_t now, bool paced = true);
  void FinishCompaction(uint64_t now);
  void UpdateStripeGauges();

  WalOptions options_;
  Compactor compactor_;
  std::vector<Stripe> stripes_;
  uint64_t next_lsn_ = 1;            // Global across stripes.
  uint64_t last_now_ = 0;            // Most recent clock reading seen.
  size_t baseline_bytes_ = 0;        // Size after open / last compaction.
  std::function<std::vector<Bytes>()> snapshot_source_;
  std::unique_ptr<CompactionState> compaction_;
  WalStats stats_;

  // Observability handles (null = detached).
  Tracer* tracer_ = nullptr;
  Counter* obs_appends_ = nullptr;
  Counter* obs_bytes_appended_ = nullptr;
  Counter* obs_syncs_ = nullptr;
  Counter* obs_segments_created_ = nullptr;
  Counter* obs_compactions_ = nullptr;
  Histogram* obs_batch_ = nullptr;
  Gauge* obs_wal_bytes_ = nullptr;
  Gauge* obs_commit_queue_ = nullptr;
  Gauge* obs_imbalance_ = nullptr;
};

// Path of segment `seq` inside `dir` ("<dir>/wal-<seq, zero padded>.seg").
std::string SegmentPath(const std::string& dir, uint64_t seq);
// Path of stripe `index` inside `dir` ("<dir>/stripe-<index>").
std::string StripePath(const std::string& dir, size_t index);

// Lists segment files in `dir`, sorted by sequence number.
Result<std::vector<std::string>> ListSegmentPaths(const std::string& dir);
// Lists stripe subdirectories in `dir`, sorted by index.
Result<std::vector<std::string>> ListStripePaths(const std::string& dir);

}  // namespace publishing

#endif  // SRC_STORAGE_WAL_H_
