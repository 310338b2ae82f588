// Checkpoint-triggered log compaction policy (§5.1).
//
// The paper's storage model discards "messages before the checkpoint"; in a
// log-structured engine those discards leave dead records behind in old
// segments.  The WAL re-journals the *live* database image — produced by
// the attached StableStorage as a record sequence bracketed by snapshot
// markers — into a reserved LSN block, and deletes the obsolete segments
// only once the whole block is durable (wal.h).  The Compactor decides when
// that rewrite pays for itself and how large each slice of it may be.

#ifndef SRC_STORAGE_COMPACTOR_H_
#define SRC_STORAGE_COMPACTOR_H_

#include <cstddef>

namespace publishing {

struct CompactorOptions {
  // Never compact while the log is smaller than this: rewriting a tiny log
  // costs more fsyncs than it reclaims.
  size_t min_bytes = 128 * 1024;
  // Compact when the log has grown past `growth_factor` times its size right
  // after the previous compaction (or its size at open).
  double growth_factor = 2.0;
  // How many live-image records are re-journaled per pump.  0 means no
  // record-count bound.
  size_t slice_records = 64;
  // Byte budget per pump.  Snapshot records vary wildly in size (a process
  // image is one record), so the real bound on how long a publish can stall
  // behind a slice is bytes of disk service, not record count.  A pump stops
  // once it has staged this much (always at least one record); 0 means no
  // byte bound.
  size_t slice_bytes = 64 * 1024;
};

class Compactor {
 public:
  explicit Compactor(CompactorOptions options) : options_(options) {}

  const CompactorOptions& options() const { return options_; }

  // Policy: should a log currently `total_bytes` large, whose post-compaction
  // (or at-open) size was `baseline_bytes`, be rewritten now?
  bool ShouldCompact(size_t total_bytes, size_t baseline_bytes) const {
    if (total_bytes < options_.min_bytes) {
      return false;
    }
    return static_cast<double>(total_bytes) >=
           options_.growth_factor * static_cast<double>(baseline_bytes);
  }

 private:
  CompactorOptions options_;
};

}  // namespace publishing

#endif  // SRC_STORAGE_COMPACTOR_H_
