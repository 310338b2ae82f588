#include "src/storage/wal.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <system_error>

#include "src/common/logging.h"
#include "src/core/storage_journal.h"

namespace publishing {

namespace fs = std::filesystem;

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%010" PRIu64 ".seg", seq);
  return (fs::path(dir) / name).string();
}

std::string StripePath(const std::string& dir, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "stripe-%03zu", index);
  return (fs::path(dir) / name).string();
}

Result<std::vector<std::string>> ListSegmentPaths(const std::string& dir) {
  std::error_code ec;
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (std::sscanf(name.c_str(), "wal-%" SCNu64 ".seg", &seq) == 1) {
      found.emplace_back(seq, entry.path().string());
    }
  }
  if (ec) {
    return Status(StatusCode::kInternal, "cannot list " + dir + ": " + ec.message());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) {
    paths.push_back(std::move(path));
  }
  return paths;
}

Result<std::vector<std::string>> ListStripePaths(const std::string& dir) {
  std::error_code ec;
  std::vector<std::pair<size_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    size_t index = 0;
    if (std::sscanf(name.c_str(), "stripe-%zu", &index) == 1 &&
        entry.is_directory()) {
      found.emplace_back(index, entry.path().string());
    }
  }
  if (ec) {
    return Status(StatusCode::kInternal, "cannot list " + dir + ": " + ec.message());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [index, path] : found) {
    paths.push_back(std::move(path));
  }
  return paths;
}

Wal::Wal(WalOptions options)
    : options_(std::move(options)), compactor_(options_.compactor) {}

Wal::~Wal() {
  // Best effort: stage-to-disk what we have.  Unsynced records may be lost
  // on a hard crash — that is group commit's contract, not a bug.  An
  // in-flight paced compaction is abandoned: its incomplete LSN block
  // is a dangling snapshot that recovery ignores, and the pre-capture
  // segments it would have replaced are still on disk.
  for (Stripe& stripe : stripes_) {
    if (stripe.active.is_open()) {
      (void)SyncStripe(stripe, last_now_, /*force=*/true);
    }
  }
}

void Wal::SetObservability(const Observability& obs) {
  tracer_ = obs.tracer;
  if (obs.metrics != nullptr) {
    obs_appends_ = obs.metrics->GetCounter("storage.appends");
    obs_bytes_appended_ = obs.metrics->GetCounter("storage.bytes_appended");
    obs_syncs_ = obs.metrics->GetCounter("storage.syncs");
    obs_segments_created_ = obs.metrics->GetCounter("storage.segments_created");
    obs_compactions_ = obs.metrics->GetCounter("storage.compactions");
    obs_batch_ = obs.metrics->GetHistogram("storage.group_commit_batch");
    obs_wal_bytes_ = obs.metrics->GetGauge("storage.wal_bytes");
    obs_wal_bytes_->Set(static_cast<double>(TotalBytes()));
    // Records staged but not yet fsynced — the group-commit window depth the
    // timeline samples to see batching ride arrival rate.
    obs_commit_queue_ = obs.metrics->GetGauge("storage.commit_queue_depth");
    obs_commit_queue_->Set(static_cast<double>(PendingRecords()));
    for (size_t i = 0; i < stripes_.size(); ++i) {
      const MetricLabels labels = {{"stripe", std::to_string(i)}};
      stripes_[i].obs_appends = obs.metrics->GetGauge("storage.stripe_appends", labels);
      stripes_[i].obs_syncs = obs.metrics->GetGauge("storage.stripe_syncs", labels);
      stripes_[i].obs_segments = obs.metrics->GetGauge("storage.stripe_segments", labels);
      stripes_[i].obs_bytes = obs.metrics->GetGauge("storage.stripe_bytes", labels);
    }
    obs_imbalance_ = obs.metrics->GetGauge("storage.stripe_imbalance");
    UpdateStripeGauges();
  } else {
    obs_appends_ = nullptr;
    obs_bytes_appended_ = nullptr;
    obs_syncs_ = nullptr;
    obs_segments_created_ = nullptr;
    obs_compactions_ = nullptr;
    obs_batch_ = nullptr;
    obs_wal_bytes_ = nullptr;
    obs_commit_queue_ = nullptr;
    obs_imbalance_ = nullptr;
    for (Stripe& stripe : stripes_) {
      stripe.obs_appends = nullptr;
      stripe.obs_syncs = nullptr;
      stripe.obs_segments = nullptr;
      stripe.obs_bytes = nullptr;
    }
  }
}

void Wal::UpdateStripeGauges() {
  uint64_t total = 0;
  uint64_t max_appends = 0;
  for (Stripe& stripe : stripes_) {
    total += stripe.stats.records_appended;
    max_appends = std::max(max_appends, stripe.stats.records_appended);
    if (stripe.obs_appends != nullptr) {
      stripe.obs_appends->Set(static_cast<double>(stripe.stats.records_appended));
      stripe.obs_syncs->Set(static_cast<double>(stripe.stats.syncs));
      stripe.obs_segments->Set(
          static_cast<double>(stripe.sealed.size() + (stripe.active.is_open() ? 1 : 0)));
      stripe.obs_bytes->Set(static_cast<double>(stripe.stats.bytes_appended));
    }
  }
  if (obs_imbalance_ != nullptr) {
    const double mean = static_cast<double>(total) / static_cast<double>(stripes_.size());
    obs_imbalance_->Set(total == 0 ? 1.0 : static_cast<double>(max_appends) / mean);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(WalOptions options) {
  if (options.stripes == 0) {
    options.stripes = 1;
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(options)));
  Status status = wal->OpenDirectory();
  if (!status.ok()) {
    return status;
  }
  return wal;
}

Status Wal::OpenDirectory() {
  stripes_.resize(options_.stripes);
  for (size_t i = 0; i < stripes_.size(); ++i) {
    Stripe& stripe = stripes_[i];
    stripe.dir = StripePath(options_.dir, i);
    stripe.batch_limit =
        options_.adaptive.enabled
            ? std::clamp(options_.group_commit_records, options_.adaptive.min_records,
                         options_.adaptive.max_records)
            : options_.group_commit_records;
    std::error_code ec;
    fs::create_directories(stripe.dir, ec);
    if (ec) {
      return Status(StatusCode::kInternal, "cannot create " + stripe.dir + ": " + ec.message());
    }
    Status status = OpenStripe(stripe);
    if (!status.ok()) {
      return status;
    }
  }
  // A log written with more stripes: recovery merges every stripe directory,
  // so the extra stripes' LSNs must stay behind every new append, and their
  // segments join stripe 0's sealed chain for the next compaction to retire.
  std::error_code ec;
  if (fs::exists(StripePath(options_.dir, stripes_.size()), ec)) {
    auto stripe_dirs = ListStripePaths(options_.dir);
    if (!stripe_dirs.ok()) {
      return stripe_dirs.status();
    }
    for (size_t i = stripes_.size(); i < stripe_dirs->size(); ++i) {
      auto adopted = AdoptSegments((*stripe_dirs)[i], stripes_[0].sealed);
      if (!adopted.ok()) {
        return adopted.status();
      }
    }
  }
  baseline_bytes_ = std::max(TotalBytes(), options_.compactor.min_bytes);
  return Status::Ok();
}

Result<uint64_t> Wal::AdoptSegments(const std::string& dir,
                                    std::vector<SealedSegment>& sealed) {
  auto paths = ListSegmentPaths(dir);
  if (!paths.ok()) {
    return paths.status();
  }
  uint64_t highest_seq = 0;
  for (const std::string& path : *paths) {
    // The scan is cheap relative to recovery and carries the authoritative
    // sequence and the highest durable LSN.
    auto scan = ScanSegment(path);
    if (!scan.ok()) {
      PUB_LOG_ERROR("wal: ignoring unreadable segment %s", path.c_str());
      continue;
    }
    for (const LsnRecord& entry : scan->records) {
      next_lsn_ = std::max(next_lsn_, entry.lsn + 1);
    }
    highest_seq = std::max(highest_seq, scan->seq);
    sealed.push_back({scan->seq, path, scan->valid_bytes + scan->dropped_bytes});
  }
  return highest_seq;
}

Status Wal::OpenStripe(Stripe& stripe) {
  auto highest_seq = AdoptSegments(stripe.dir, stripe.sealed);
  if (!highest_seq.ok()) {
    return highest_seq.status();
  }
  stripe.next_seq = *highest_seq + 1;
  Status status = stripe.active.Open(SegmentPath(stripe.dir, stripe.next_seq), stripe.next_seq);
  if (!status.ok()) {
    return status;
  }
  ++stripe.next_seq;
  ++stripe.stats.segments_created;
  ++stats_.segments_created;
  return Status::Ok();
}

size_t Wal::TotalBytes() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.active.is_open() ? stripe.active.bytes() : 0;
    for (const SealedSegment& sealed : stripe.sealed) {
      total += sealed.bytes;
    }
  }
  return total;
}

size_t Wal::SegmentCount() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    count += stripe.sealed.size() + (stripe.active.is_open() ? 1 : 0);
  }
  return count;
}

uint64_t Wal::PendingRecords() const {
  uint64_t pending = 0;
  for (const Stripe& stripe : stripes_) {
    pending += stripe.pending;
  }
  return pending;
}

std::vector<std::string> Wal::SegmentPaths() const {
  std::vector<std::string> paths;
  for (const Stripe& stripe : stripes_) {
    for (const SealedSegment& sealed : stripe.sealed) {
      paths.push_back(sealed.path);
    }
    if (stripe.active.is_open()) {
      paths.push_back(stripe.active.path());
    }
  }
  return paths;
}

Status Wal::RollSegment(Stripe& stripe) {
  Status status = SyncStripe(stripe, last_now_, /*force=*/true);
  if (!status.ok()) {
    return status;
  }
  SealedSegment sealed;
  sealed.seq = stripe.active.seq();
  sealed.path = stripe.active.path();
  sealed.bytes = stripe.active.bytes();
  stripe.active.Close();
  stripe.sealed.push_back(std::move(sealed));
  status = stripe.active.Open(SegmentPath(stripe.dir, stripe.next_seq), stripe.next_seq);
  if (!status.ok()) {
    return status;
  }
  ++stripe.next_seq;
  ++stripe.stats.segments_created;
  ++stats_.segments_created;
  if (obs_segments_created_ != nullptr) {
    obs_segments_created_->Add(1);
  }
  return Status::Ok();
}

Status Wal::AppendToStripe(Stripe& stripe, uint64_t lsn, std::span<const uint8_t> record) {
  const size_t frame_bytes = kRecordFrameOverhead + kLsnPrefixBytes + record.size();
  if (stripe.active.bytes() + frame_bytes > options_.segment_bytes &&
      stripe.active.bytes() > kSegmentHeaderBytes) {
    Status status = RollSegment(stripe);
    if (!status.ok()) {
      return status;
    }
  }
  Status status = stripe.active.Append(lsn, record);
  if (!status.ok()) {
    return status;
  }
  stripe.unsynced_bytes += frame_bytes;
  return Status::Ok();
}

size_t Wal::RouteStripe(std::span<const uint8_t> record) const {
  if (stripes_.size() == 1) {
    return 0;
  }
  return static_cast<size_t>(StorageJournal::RouteKey(record) % stripes_.size());
}

Status Wal::Append(std::span<const uint8_t> record, uint64_t now) {
  last_now_ = now;
  Stripe& stripe = stripes_[RouteStripe(record)];
  Status status = AppendToStripe(stripe, next_lsn_++, record);
  if (!status.ok()) {
    return status;
  }
  ++stripe.stats.records_appended;
  stripe.stats.bytes_appended += record.size();
  ++stats_.records_appended;
  stats_.bytes_appended += record.size();
  if (obs_appends_ != nullptr) {
    obs_appends_->Add(1);
    obs_bytes_appended_->Add(record.size());
    obs_wal_bytes_->Set(static_cast<double>(TotalBytes()));
  }
  ++stripe.pending;
  if (obs_commit_queue_ != nullptr) {
    obs_commit_queue_->Set(static_cast<double>(PendingRecords()));
  }
  if (stripe.pending == 1) {
    stripe.window_open_now = now;
  }
  const bool count_due = stripe.pending >= stripe.batch_limit;
  const bool time_due = options_.group_commit_interval != 0 && now != 0 &&
                        now - stripe.last_sync_now >= options_.group_commit_interval;
  const bool ack_due = options_.adaptive.enabled &&
                       options_.adaptive.ack_latency_target != 0 && now != 0 &&
                       now - stripe.window_open_now >= options_.adaptive.ack_latency_target;
  if (count_due || time_due || ack_due) {
    status = SyncStripe(stripe, now);
    if (!status.ok()) {
      return status;
    }
    if (options_.adaptive.enabled) {
      // A window that filled means arrivals outpace the limit: deepen.  A
      // window closed by time or the latency target was underfilled: shrink.
      stripe.batch_limit =
          count_due ? std::min(stripe.batch_limit * 2, options_.adaptive.max_records)
                    : std::max(stripe.batch_limit / 2, options_.adaptive.min_records);
    }
    // Compaction rides between commit windows: a window just closed, so the
    // next slice's bytes share the following sync, never this one.
    PumpCompaction(now);
  }
  return Status::Ok();
}

Status Wal::SyncStripe(Stripe& stripe, uint64_t now, bool force) {
  if (stripe.pending == 0 && (!force || stripe.unsynced_bytes == 0)) {
    return Status::Ok();
  }
  Status status = stripe.active.Sync();
  if (!status.ok()) {
    return status;
  }
  const uint64_t batch = stripe.pending;
  if (options_.disk.enabled) {
    const uint64_t service =
        options_.disk.latency_ns +
        stripe.unsynced_bytes * 1'000'000'000ULL / options_.disk.bytes_per_second;
    const uint64_t start = std::max(now, stripe.disk_busy_until);
    stripe.disk_busy_until = start + service;
    stripe.disk_busy_ns += service;
    if (batch > 0) {
      // First staged record to durable-on-disk: what a publish ack waiting on
      // durability would see.
      stripe.ack_ms.Add(
          ToMillis(static_cast<SimDuration>(stripe.disk_busy_until - stripe.window_open_now)));
    }
  }
  stripe.pending = 0;
  stripe.unsynced_bytes = 0;
  if (now != 0) {
    stripe.last_sync_now = now;
  }
  ++stripe.stats.syncs;
  ++stats_.syncs;
  if (obs_syncs_ != nullptr) {
    obs_syncs_->Add(1);
    if (batch > 0) {
      obs_batch_->Observe(static_cast<double>(batch));
    }
  }
  if (obs_commit_queue_ != nullptr) {
    obs_commit_queue_->Set(static_cast<double>(PendingRecords()));
  }
  UpdateStripeGauges();
  if (tracer_ != nullptr && batch > 0) {
    // The group-commit window: first staged record to the fsync that made
    // the batch durable.
    tracer_->Complete(static_cast<SimTime>(stripe.window_open_now), "storage.group_commit",
                      "storage", obs_track::kStorage,
                      {{"records", std::to_string(batch)}});
  }
  return Status::Ok();
}

Status Wal::Sync() {
  for (Stripe& stripe : stripes_) {
    Status status = SyncStripe(stripe, last_now_, /*force=*/true);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

void Wal::Tick(uint64_t now) {
  last_now_ = now;
  for (Stripe& stripe : stripes_) {
    if (stripe.pending > 0) {
      const bool time_due = options_.group_commit_interval != 0 && now != 0 &&
                            now - stripe.last_sync_now >= options_.group_commit_interval;
      const bool ack_due =
          options_.adaptive.enabled && options_.adaptive.ack_latency_target != 0 &&
          now != 0 && now - stripe.window_open_now >= options_.adaptive.ack_latency_target;
      if (time_due || ack_due) {
        (void)SyncStripe(stripe, now);
        if (options_.adaptive.enabled) {
          stripe.batch_limit =
              std::max(stripe.batch_limit / 2, options_.adaptive.min_records);
        }
      }
    } else if (options_.adaptive.enabled && stripe.batch_limit > options_.adaptive.min_records) {
      // Idle decay: nothing staged for a full latency-target span means the
      // arrival rate dropped; walk the limit back down so the next burst is
      // not over-batched.
      const uint64_t idle_span = options_.adaptive.ack_latency_target != 0
                                     ? options_.adaptive.ack_latency_target
                                     : options_.group_commit_interval;
      if (idle_span != 0 && now != 0 && now - stripe.last_sync_now >= idle_span) {
        stripe.batch_limit = std::max(stripe.batch_limit / 2, options_.adaptive.min_records);
        stripe.last_sync_now = now;  // Pace the decay, one step per span.
      }
    }
  }
  PumpCompaction(now);
}

void Wal::OnCheckpointStored() {
  Status status = Sync();
  if (!status.ok()) {
    PUB_LOG_ERROR("wal: checkpoint sync failed: %s", status.ToString().c_str());
    return;
  }
  if (snapshot_source_ && compaction_ == nullptr &&
      compactor_.ShouldCompact(TotalBytes(), baseline_bytes_)) {
    if (options_.concurrent_compaction) {
      (void)StartCompaction();  // Publishes continue; slices ride the windows.
    } else {
      (void)CompactNow();  // Drained: durable before the checkpoint returns.
    }
  }
}

bool Wal::StartCompaction() {
  if (!snapshot_source_ || compaction_ != nullptr) {
    return false;
  }
  auto state = std::make_unique<CompactionState>();
  state->bytes_before = TotalBytes();
  // Seal every stripe's active segment: the pre-capture image must live
  // wholly in sealed segments so "delete everything the snapshot supersedes"
  // is a per-stripe prefix of the chain.
  for (Stripe& stripe : stripes_) {
    Status status = SyncStripe(stripe, last_now_, /*force=*/true);
    if (!status.ok()) {
      PUB_LOG_ERROR("wal: compaction sync failed: %s", status.ToString().c_str());
      return false;
    }
    if (stripe.active.bytes() > kSegmentHeaderBytes) {
      status = RollSegment(stripe);
      if (!status.ok()) {
        PUB_LOG_ERROR("wal: compaction roll failed: %s", status.ToString().c_str());
        return false;
      }
    }
    state->capture_sealed.push_back(stripe.sealed.size());
  }
  state->records = snapshot_source_();
  // Reserve a contiguous LSN block for the captured image.  Everything
  // journaled so far sorts before it, every live append from here on sorts
  // after it, so recovery sees Begin..End exactly where the image belongs.
  state->first_lsn = next_lsn_;
  next_lsn_ += state->records.size();
  compaction_ = std::move(state);
  if (tracer_ != nullptr) {
    tracer_->Instant("storage.compaction_start", "storage", obs_track::kStorage,
                     {{"records", std::to_string(compaction_->records.size())}});
  }
  return true;
}

void Wal::PumpCompaction(uint64_t now, bool paced) {
  if (compaction_ == nullptr) {
    return;
  }
  if (paced && options_.disk.enabled) {
    // Ride *between* commit windows: if any simulated disk is still working
    // off a queue, staging another slice now would only deepen the backlog a
    // publish window can land behind.  Wait for the next pump opportunity.
    for (const Stripe& stripe : stripes_) {
      if (stripe.disk_busy_until > now) {
        return;
      }
    }
  }
  CompactionState& c = *compaction_;
  const size_t record_budget =
      options_.compactor.slice_records == 0 ? c.records.size() : options_.compactor.slice_records;
  const size_t byte_budget = options_.compactor.slice_bytes;
  std::vector<bool> touched(stripes_.size(), false);
  size_t wrote = 0;
  size_t staged_bytes = 0;
  while (c.next < c.records.size() && wrote < record_budget &&
         (wrote == 0 || byte_budget == 0 || staged_bytes < byte_budget)) {
    const Bytes& record = c.records[c.next];
    const size_t target = RouteStripe(record);
    Status status = AppendToStripe(stripes_[target], c.first_lsn + c.next, record);
    if (!status.ok()) {
      // The log is intact, only unrewritten; drop the attempt and let the
      // next checkpoint retrigger.  The partial block is a dangling snapshot
      // recovery ignores.
      PUB_LOG_ERROR("wal: compaction slice failed: %s", status.ToString().c_str());
      compaction_.reset();
      return;
    }
    touched[target] = true;
    staged_bytes += kRecordFrameOverhead + kLsnPrefixBytes + record.size();
    ++wrote;
    ++c.next;
  }
  // Sync the slice now rather than letting rewrite bytes pile up for the
  // finish barrier: each pump is one bounded disk write riding between
  // commit windows, which is exactly the stall guarantee slice_records
  // exists to give.
  for (size_t i = 0; i < stripes_.size(); ++i) {
    if (touched[i]) {
      (void)SyncStripe(stripes_[i], now, /*force=*/true);
    }
  }
  if (c.next == c.records.size()) {
    FinishCompaction(now);
  }
}

void Wal::FinishCompaction(uint64_t now) {
  // The whole block (and anything staged beside it) must be durable before
  // any superseded segment disappears.
  for (Stripe& stripe : stripes_) {
    Status status = SyncStripe(stripe, now, /*force=*/true);
    if (!status.ok()) {
      PUB_LOG_ERROR("wal: compaction barrier failed: %s", status.ToString().c_str());
      compaction_.reset();
      return;
    }
  }
  const size_t bytes_before = compaction_->bytes_before;
  std::error_code ec;
  for (size_t i = 0; i < stripes_.size(); ++i) {
    Stripe& stripe = stripes_[i];
    const size_t doomed = compaction_->capture_sealed[i];
    for (size_t k = 0; k < doomed; ++k) {
      fs::remove(stripe.sealed[k].path, ec);
      ++stripe.stats.compaction_segments_deleted;
      ++stats_.compaction_segments_deleted;
    }
    stripe.sealed.erase(stripe.sealed.begin(),
                        stripe.sealed.begin() + static_cast<ptrdiff_t>(doomed));
  }
  compaction_.reset();
  ++stats_.compactions;
  const size_t after = TotalBytes();
  stats_.compaction_bytes_reclaimed += bytes_before > after ? bytes_before - after : 0;
  baseline_bytes_ = std::max(after, options_.compactor.min_bytes);
  if (obs_compactions_ != nullptr) {
    obs_compactions_->Add(1);
    obs_wal_bytes_->Set(static_cast<double>(after));
  }
  UpdateStripeGauges();
  if (tracer_ != nullptr) {
    tracer_->Instant("storage.compaction", "storage", obs_track::kStorage,
                     {{"bytes_before", std::to_string(bytes_before)},
                      {"bytes_after", std::to_string(after)}});
  }
}

bool Wal::CompactNow() {
  if (compaction_ == nullptr && !StartCompaction()) {
    return false;
  }
  while (compaction_ != nullptr) {
    PumpCompaction(last_now_, /*paced=*/false);
  }
  return true;
}

}  // namespace publishing
