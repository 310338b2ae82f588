// Startup scan: rebuild the recorder database from WAL segments (§4.5,
// "it is possible to rebuild the data base from the disk").
//
// The scan reads every "stripe-<n>/" chain under the log directory, then
// merges all LSN-framed records back into the one global order the recorder
// journaled in before replay, so the rebuilt database does not depend on
// how many stripes wrote the log.
//
// Three kinds of damage are tolerated, never fatal:
//   * torn tail — a crash mid-append leaves a partial frame at the end of
//     the then-active segment; only the tail is dropped (log_segment.h).
//     Each stripe tears independently, and because records route by process
//     hash the loss is a per-process suffix,
//   * corrupt frame — CRC mismatch; the segment is cut at the bad frame,
//   * dangling snapshot — a crash mid-compaction leaves an incomplete
//     snapshot block; the whole block is discarded (the pre-compaction
//     segments it would have replaced are only deleted after the block is
//     durable, so they are still here).  A block is complete when its
//     reserved LSN range [end-n+1, end] is fully present and starts with
//     kSnapshotBegin.

#ifndef SRC_STORAGE_RECOVERED_DB_H_
#define SRC_STORAGE_RECOVERED_DB_H_

#include <string>

#include "src/core/stable_storage.h"

namespace publishing {

struct RecoveryReport {
  uint64_t segments_scanned = 0;
  uint64_t stripes_scanned = 0;
  uint64_t records_applied = 0;
  uint64_t records_skipped = 0;     // Undecodable or inside a dangling snapshot.
  uint64_t torn_segments = 0;       // Segments cut short (torn tail or bad CRC).
  uint64_t dropped_tail_bytes = 0;
  uint64_t dangling_snapshots = 0;  // Crash-mid-compaction artifacts ignored.
  uint64_t snapshots_applied = 0;
};

// Scans every segment in `dir` and replays the journal into a fresh
// StableStorage.  The result has no backend attached; the caller decides
// whether to re-attach one (typically a Wal opened on the same directory,
// which appends after the highest surviving sequence).  An empty or missing
// directory yields an empty database, not an error.
Result<StableStorage> RecoverStableStorage(const std::string& dir,
                                           RecoveryReport* report = nullptr);

}  // namespace publishing

#endif  // SRC_STORAGE_RECOVERED_DB_H_
