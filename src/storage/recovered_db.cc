#include "src/storage/recovered_db.h"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "src/common/logging.h"
#include "src/core/storage_journal.h"
#include "src/storage/log_segment.h"
#include "src/storage/wal.h"

namespace publishing {

namespace {

bool IsSnapshotOp(JournalOp op) {
  return op == JournalOp::kSnapshotBegin || op == JournalOp::kSnapshotProcess ||
         op == JournalOp::kSnapshotNode || op == JournalOp::kSnapshotCounters ||
         op == JournalOp::kSnapshotEnd;
}

}  // namespace

Result<StableStorage> RecoverStableStorage(const std::string& dir, RecoveryReport* report) {
  RecoveryReport local;
  StableStorage db;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    if (report != nullptr) {
      *report = local;
    }
    return db;  // Nothing on disk: a brand-new recorder.
  }
  auto stripe_dirs = ListStripePaths(dir);
  if (!stripe_dirs.ok()) {
    return stripe_dirs.status();
  }

  // Scan every stripe's chain and merge the records back into the one global
  // order the recorder journaled in.
  std::vector<LsnRecord> merged;
  for (const std::string& stripe_dir : *stripe_dirs) {
    ++local.stripes_scanned;
    auto stripe_paths = ListSegmentPaths(stripe_dir);
    if (!stripe_paths.ok()) {
      return stripe_paths.status();
    }
    for (const std::string& path : *stripe_paths) {
      auto scan = ScanSegment(path);
      if (!scan.ok()) {
        PUB_LOG_ERROR("recovery: skipping unreadable segment %s: %s", path.c_str(),
                      scan.status().ToString().c_str());
        ++local.torn_segments;
        continue;
      }
      ++local.segments_scanned;
      if (!scan->clean) {
        ++local.torn_segments;
        local.dropped_tail_bytes += scan->dropped_bytes;
      }
      local.records_skipped += scan->short_records;
      std::move(scan->records.begin(), scan->records.end(), std::back_inserter(merged));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const LsnRecord& a, const LsnRecord& b) { return a.lsn < b.lsn; });

  // Snapshot-block validation: the compaction reserved the block
  // [end_lsn - n + 1, end_lsn] up front, so the block is trustworthy exactly
  // when that whole range survived — every LSN present (they are unique and
  // sorted, so presence is index arithmetic) and the first record is the
  // begin marker.  Anything less is a crash mid-rewrite; its records are
  // dropped and the pre-capture segments (still on disk) carry the data.
  std::vector<bool> in_complete_block(merged.size(), false);
  for (size_t e = 0; e < merged.size(); ++e) {
    if (StorageJournal::OpOf(merged[e].record) != JournalOp::kSnapshotEnd) {
      continue;
    }
    auto count = StorageJournal::SnapshotEndCount(merged[e].record);
    if (!count.ok() || *count == 0 || *count > e + 1) {
      continue;
    }
    const size_t b = e + 1 - static_cast<size_t>(*count);
    if (merged[e].lsn - merged[b].lsn != *count - 1 ||
        StorageJournal::OpOf(merged[b].record) != JournalOp::kSnapshotBegin) {
      continue;
    }
    for (size_t i = b; i <= e; ++i) {
      in_complete_block[i] = true;
    }
  }

  for (size_t i = 0; i < merged.size(); ++i) {
    const JournalOp op = StorageJournal::OpOf(merged[i].record);
    if (IsSnapshotOp(op) && !in_complete_block[i]) {
      ++local.records_skipped;
      if (op == JournalOp::kSnapshotBegin) {
        ++local.dangling_snapshots;
      }
      continue;
    }
    Status status = StorageJournal::Apply(db, merged[i].record);
    if (!status.ok()) {
      PUB_LOG_ERROR("recovery: skipping merged record lsn=%llu: %s",
                    static_cast<unsigned long long>(merged[i].lsn),
                    status.ToString().c_str());
      ++local.records_skipped;
      continue;
    }
    ++local.records_applied;
    if (op == JournalOp::kSnapshotEnd) {
      ++local.snapshots_applied;
    }
  }

  if (report != nullptr) {
    *report = local;
  }
  return db;
}

}  // namespace publishing
