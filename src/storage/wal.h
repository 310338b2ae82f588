// Segmented write-ahead log with group commit: the durable StorageBackend.
//
// Single-chain layout (stripes == 1, no concurrent compaction — the v1
// format): a directory of segment files "wal-<seq>.seg" (format in
// log_segment.h).  Records append to the active (highest-seq) segment; when
// it exceeds `segment_bytes` the WAL rolls to a new one.  Opening an
// existing directory never appends to old segments — it starts a fresh one
// after the highest sequence found, so a torn tail from a previous crash
// stays confined to a dead segment where recovery can drop it.
//
// Striped layout (stripes > 1 or concurrent_compaction — the v2 format):
// the directory holds one subdirectory per simulated disk ("stripe-<n>/"),
// each with its own segment chain, group-commit window, and torn tail.
// Records route to a stripe by StorageJournal::RouteKey (process hash), so
// everything touching one process log shares a stripe and a torn tail is a
// per-process suffix.  Every v2 record carries an 8-byte global LSN prefix;
// recovery merges the chains by LSN back into the exact single-log order, so
// `ReplayCursor` order and the StorageJournal rebuild are unchanged.
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
// Compaction: checkpoint-triggered (see compactor.h).  Blocking mode
// rewrites the live image into one snapshot segment before returning.
// Concurrent mode (v2) reserves a contiguous LSN block for the captured
// image and re-journals it stripe-by-stripe in bounded slices between commit
// windows, so the publish path never stalls behind a full-image rewrite; old
// segments are deleted only after the whole block is durable.  A crash mid
// rewrite leaves an incomplete block that recovery ignores.

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
  // Number of simulated disks.  >1 selects the striped v2 layout.
  size_t stripes = 1;
  // Re-journal the live image in slices between commit windows instead of
  // blocking in CompactNow (forces the v2 layout).
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
  // preserved and counted toward the compaction baseline; appends go to a
  // new segment after the highest existing sequence.  Opening an old
  // single-chain directory with a striped configuration adopts the legacy
  // segments into stripe 0 (recovery still replays them first).
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

  // Forces a compaction attempt regardless of the growth policy (still a
  // no-op without a snapshot source).  In concurrent mode this starts the
  // rewrite and drains it to completion before returning — tests and
  // shutdown paths get the blocking contract either way.  Returns true if a
  // rewrite happened.
  bool CompactNow();
  // Concurrent mode: capture the live image and reserve its LSN block, then
  // return immediately; slices are re-journaled by Append/Tick/Sync.
  // Returns false if already compacting, not in concurrent mode, or no
  // snapshot source is attached.
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
  Status RollSegment(Stripe& stripe);
  // Frames `record` into the stripe's active segment, rolling it first if
  // the frame would overflow it.  The striped (v2) layout prefixes `lsn`
  // inside the frame; the single-chain (v1) layout ignores it.
  Status AppendToStripe(Stripe& stripe, uint64_t lsn, std::span<const uint8_t> record);
  // force: fsync staged bytes even when no group-commit window is pending
  // (compaction slices stage bytes without opening a window).
  Status SyncStripe(Stripe& stripe, uint64_t now, bool force = false);
  size_t RouteStripe(std::span<const uint8_t> record) const;
  void PumpCompaction(uint64_t now, bool paced = true);
  bool CompactNowBlocking();
  void FinishCompaction(uint64_t now);
  void UpdateStripeGauges();

  WalOptions options_;
  bool striped_layout_ = false;      // v2: LSN-framed records, stripe dirs.
  Compactor compactor_;
  std::vector<Stripe> stripes_;
  uint64_t next_lsn_ = 1;            // v2 only; global across stripes.
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
// Lists stripe subdirectories in `dir`, sorted by index (empty for a
// single-chain v1 directory).
Result<std::vector<std::string>> ListStripePaths(const std::string& dir);

}  // namespace publishing

#endif  // SRC_STORAGE_WAL_H_
