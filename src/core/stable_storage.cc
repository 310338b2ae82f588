#include "src/core/stable_storage.h"

#include <algorithm>
#include <utility>

#include "src/core/storage_journal.h"

namespace publishing {

StableStorage::StableStorage(StableStorage&& other) noexcept
    : logs_(std::move(other.logs_)),
      node_logs_(std::move(other.node_logs_)),
      moved_(std::move(other.moved_)),
      annex_(std::move(other.annex_)),
      next_arrival_(other.next_arrival_),
      restart_number_(other.restart_number_),
      messages_stored_(other.messages_stored_),
      straggler_appends_(other.straggler_appends_),
      total_bytes_(std::exchange(other.total_bytes_, 0)),
      peak_bytes_(other.peak_bytes_),
      backend_(other.backend_),
      clock_(std::move(other.clock_)),
      lifecycle_(other.lifecycle_),
      lifecycle_node_(other.lifecycle_node_) {
  other.backend_ = nullptr;
  if (backend_ != nullptr) {
    // The backend's snapshot source captured `other`; re-point it here.
    backend_->SetSnapshotSource([this] { return StorageJournal::SnapshotRecords(*this); });
  }
}

StableStorage& StableStorage::operator=(StableStorage&& other) noexcept {
  if (this != &other) {
    logs_ = std::move(other.logs_);
    node_logs_ = std::move(other.node_logs_);
    moved_ = std::move(other.moved_);
    annex_ = std::move(other.annex_);
    next_arrival_ = other.next_arrival_;
    restart_number_ = other.restart_number_;
    messages_stored_ = other.messages_stored_;
    straggler_appends_ = other.straggler_appends_;
    total_bytes_ = std::exchange(other.total_bytes_, 0);
    peak_bytes_ = other.peak_bytes_;
    backend_ = other.backend_;
    clock_ = std::move(other.clock_);
    lifecycle_ = other.lifecycle_;
    lifecycle_node_ = other.lifecycle_node_;
    other.backend_ = nullptr;
    if (backend_ != nullptr) {
      backend_->SetSnapshotSource([this] { return StorageJournal::SnapshotRecords(*this); });
    }
  }
  return *this;
}

void StableStorage::AttachBackend(StorageBackend* backend) {
  backend_ = backend;
  if (backend_ != nullptr) {
    backend_->SetSnapshotSource([this] { return StorageJournal::SnapshotRecords(*this); });
  }
}

Status StableStorage::Flush() {
  return backend_ != nullptr ? backend_->Sync() : Status::Ok();
}

StableStorage::ProcessLog& StableStorage::Ensure(const ProcessId& pid) { return logs_[pid]; }

void StableStorage::SetBytes(ProcessLog& log, size_t log_bytes, size_t checkpoint_bytes) {
  total_bytes_ -= BytesOf(log);
  log.info.log_bytes = log_bytes;
  log.info.checkpoint_bytes = checkpoint_bytes;
  total_bytes_ += BytesOf(log);
}

void StableStorage::InstallLog(const ProcessId& pid, ProcessLog log) {
  ProcessLog& slot = logs_[pid];
  total_bytes_ -= BytesOf(slot);
  total_bytes_ += BytesOf(log);
  slot = std::move(log);
}

void StableStorage::EraseLog(const ProcessId& pid) {
  auto it = logs_.find(pid);
  if (it != logs_.end()) {
    total_bytes_ -= BytesOf(it->second);
    logs_.erase(it);
  }
}

void StableStorage::ClearLogs() {
  logs_.clear();
  total_bytes_ = 0;
}

void StableStorage::RecordCreation(const ProcessId& pid, const std::string& program,
                                   std::vector<Link> initial_links, NodeId home_node,
                                   bool recoverable) {
  Journal([&] {
    return StorageJournal::EncodeCreate(pid, program, initial_links, home_node, recoverable);
  });
  ProcessLog& log = Ensure(pid);
  log.info.program = program;
  log.info.initial_links = std::move(initial_links);
  log.info.home_node = home_node;
  log.info.destroyed = false;
  log.info.recoverable = recoverable;
}

void StableStorage::RecordDestruction(const ProcessId& pid) {
  auto it = logs_.find(pid);
  if (it == logs_.end()) {
    return;
  }
  Journal([&] { return StorageJournal::EncodeDestroy(pid); });
  // Keep a tombstone so restart queries do not resurrect it, but free the
  // replay data.
  it->second.info.destroyed = true;
  it->second.entries.clear();
  it->second.by_id.clear();
  it->second.read_order.clear();
  it->second.checkpoint.clear();
  it->second.info.has_checkpoint = false;
  SetBytes(it->second, 0, 0);
}

void StableStorage::SetHomeNode(const ProcessId& pid, NodeId node) {
  auto it = logs_.find(pid);
  if (it != logs_.end()) {
    Journal([&] { return StorageJournal::EncodeSetHome(pid, node); });
    it->second.info.home_node = node;
  }
}

void StableStorage::AppendMessage(const ProcessId& pid, const MessageId& id, Buffer packet) {
  if (moved_.contains(pid)) {
    // Migrated away: the new segment's recorder owns the log now, but the
    // transport acked this frame the moment it crossed the wire — so the
    // publication is journaled into the straggler annex anyway.  Durability
    // must precede the ack even in the hand-off window; what the annex does
    // NOT promise is replay (the evicting kernel's forwarding re-send is the
    // delivery path for stragglers).
    AnnexLog& annex = annex_[pid];
    if (!annex.ids.insert(id)) {
      return;  // Retransmit of an annexed straggler.
    }
    Journal([&] { return StorageJournal::EncodeAppendMessage(pid, id, packet); });
    ObserveDurable(id);
    LogEntry straggler;
    straggler.id = id;
    straggler.arrival = next_arrival_++;
    straggler.packet = std::move(packet);
    annex.entries.push_back(std::move(straggler));
    ++straggler_appends_;
    return;
  }
  ProcessLog& log = Ensure(pid);
  if (log.info.destroyed || !log.info.recoverable) {
    return;  // §6.6.1: nothing is published for non-recoverable processes.
  }
  if (!log.ever_logged.insert(id)) {
    return;  // Duplicate of a frame we already published.
  }
  Journal([&] { return StorageJournal::EncodeAppendMessage(pid, id, packet); });
  ObserveDurable(id);
  LogEntry entry;
  entry.id = id;
  entry.arrival = next_arrival_++;
  entry.packet = std::move(packet);
  SetBytes(log, log.info.log_bytes + entry.packet.size(), log.info.checkpoint_bytes);
  log.by_id.try_emplace(entry.id, log.entries.size());
  log.entries.push_back(std::move(entry));
  log.info.log_entries = log.entries.size();
  ++messages_stored_;
  RefreshAccounting();
}

void StableStorage::RecordRead(const ProcessId& reader, const MessageId& id) {
  auto it = logs_.find(reader);
  if (it == logs_.end()) {
    return;
  }
  ProcessLog& log = it->second;
  if (log.ever_read.contains(id)) {
    return;  // Replay re-read; order already known.
  }
  const size_t* pos = log.by_id.find(id);
  if (pos == nullptr) {
    return;
  }
  LogEntry& entry = log.entries[*pos];
  Journal([&] { return StorageJournal::EncodeRecordRead(reader, id); });
  entry.read = true;
  entry.read_seq = log.next_read_seq++;
  log.ever_read.insert(id);
  // read_seq is monotonic, so appending keeps read_order sorted by read_seq
  // — this is what lets Replay() skip the per-attempt sort.
  log.read_order.push_back(id);
}

void StableStorage::RecordSent(const ProcessId& sender, uint64_t seq) {
  if (moved_.contains(sender)) {
    return;
  }
  ProcessLog& log = Ensure(sender);
  if (seq > log.info.last_sent_seq) {
    Journal([&] { return StorageJournal::EncodeRecordSent(sender, seq); });
    log.info.last_sent_seq = seq;
  }
}

void StableStorage::StoreCheckpoint(const ProcessId& pid, Bytes state, uint64_t reads_done) {
  if (moved_.contains(pid)) {
    return;  // A straggler checkpoint from before the move: superseded.
  }
  ProcessLog& log = Ensure(pid);
  if (log.info.destroyed) {
    return;
  }
  Journal([&] { return StorageJournal::EncodeStoreCheckpoint(pid, state, reads_done); });
  log.checkpoint = std::move(state);
  log.info.has_checkpoint = true;
  log.info.checkpoint_reads = reads_done;
  // Discard subsumed messages.  Reads race with the checkpoint message in
  // transit, so drop only entries whose read position (read_seq is global
  // per process) falls within the checkpoint's read count.
  std::erase_if(log.entries,
                [&](const LogEntry& e) { return e.read && e.read_seq <= reads_done; });
  // Compaction moved the surviving entries; re-point the replay index at
  // their new positions (same O(n) pass the erase already paid for).
  RebuildReplayIndex(log);
  size_t retained = 0;
  for (const LogEntry& entry : log.entries) {
    retained += entry.packet.size();
  }
  SetBytes(log, retained, log.checkpoint.size());
  log.info.log_entries = log.entries.size();
  RefreshAccounting();
  if (backend_ != nullptr) {
    // §3.3.1: the checkpoint must be reliably stored before the log prefix
    // it subsumes can go; this is also the compaction trigger.
    backend_->OnCheckpointStored();
  }
}

Result<Bytes> StableStorage::LoadCheckpoint(const ProcessId& pid) const {
  auto it = logs_.find(pid);
  if (it == logs_.end() || !it->second.info.has_checkpoint) {
    return Status(StatusCode::kNotFound, "no checkpoint for " + ToString(pid));
  }
  return it->second.checkpoint;
}

void StableStorage::SetRecovering(const ProcessId& pid, bool recovering) {
  auto it = logs_.find(pid);
  if (it == logs_.end() || it->second.info.recovering == recovering) {
    return;
  }
  Journal([&] { return StorageJournal::EncodeSetRecovering(pid, recovering); });
  it->second.info.recovering = recovering;
}

Result<Bytes> StableStorage::ExportEntry(const ProcessId& pid) const {
  auto it = logs_.find(pid);
  if (it == logs_.end() || it->second.info.destroyed) {
    return Status(StatusCode::kNotFound, "no live entry for " + ToString(pid));
  }
  return StorageJournal::EncodeImportProcess(*this, pid);
}

Status StableStorage::ImportEntry(const Bytes& blob, NodeId node) {
  ProcessId pid;
  ProcessLog log;
  Status parsed = StorageJournal::DecodeImportProcess(blob, pid, log);
  if (!parsed.ok()) {
    return parsed;
  }
  // Remap arrivals onto this storage's counter.  `entries` is arrival-ordered
  // by construction, so a sequential walk preserves the relative order — the
  // property Replay()'s unread-in-arrival-order tail depends on.
  for (LogEntry& entry : log.entries) {
    entry.arrival = next_arrival_++;
  }
  log.info.home_node = node;
  log.info.recovering = false;  // The destination's recovery manager re-arms it.
  moved_.erase(pid);
  // Any annexed stragglers are subsumed: the imported log is authoritative,
  // and duplicates of annex ids are filtered by its ever_logged set.
  annex_.erase(pid);
  InstallLog(pid, std::move(log));
  // Journal the post-remap image (install first, then encode from the
  // installed entry): a rebuilt recorder re-installs it verbatim.
  Journal([&] { return StorageJournal::EncodeImportProcess(*this, pid); });
  RefreshAccounting();
  return Status::Ok();
}

void StableStorage::DropEntry(const ProcessId& pid, NodeId moved_to) {
  if (!logs_.contains(pid)) {
    return;
  }
  Journal([&] { return StorageJournal::EncodeDropProcess(pid, moved_to); });
  EraseLog(pid);
  moved_[pid] = moved_to;
  RefreshAccounting();
}

Result<NodeId> StableStorage::MovedTo(const ProcessId& pid) const {
  auto it = moved_.find(pid);
  if (it == moved_.end()) {
    return Status(StatusCode::kNotFound, ToString(pid) + " never moved away");
  }
  return it->second;
}

std::vector<ProcessId> StableStorage::AnnexedProcesses() const {
  std::vector<ProcessId> out;
  for (const auto& [pid, annex] : annex_) {
    if (!annex.entries.empty()) {
      out.push_back(pid);
    }
  }
  return out;
}

std::vector<LogEntry> StableStorage::TakeAnnex(const ProcessId& pid) {
  auto it = annex_.find(pid);
  if (it == annex_.end()) {
    return {};
  }
  std::vector<LogEntry> entries = std::move(it->second.entries);
  annex_.erase(it);
  return entries;
}

void StableStorage::RebuildReplayIndex(ProcessLog& log) {
  log.by_id.clear();
  log.by_id.reserve(log.entries.size());
  size_t read_count = 0;
  for (size_t i = 0; i < log.entries.size(); ++i) {
    log.by_id.try_emplace(log.entries[i].id, i);
    if (log.entries[i].read) {
      ++read_count;
    }
  }
  // Drop read_order ids whose entries were compacted away.  Surviving ids
  // stay in read_seq order, so the incremental (checkpoint) path needs no
  // sort.
  std::erase_if(log.read_order, [&](const MessageId& id) {
    const size_t* pos = log.by_id.find(id);
    return pos == nullptr || !log.entries[*pos].read;
  });
  if (log.read_order.size() != read_count) {
    // Cold restore: StorageJournal filled `entries` directly (no incremental
    // read_order exists), so derive it from the persisted read_seq stamps.
    log.read_order.clear();
    log.read_order.reserve(read_count);
    for (const LogEntry& entry : log.entries) {
      if (entry.read) {
        log.read_order.push_back(entry.id);
      }
    }
    std::sort(log.read_order.begin(), log.read_order.end(),
              [&](const MessageId& a, const MessageId& b) {
                return log.entries[*log.by_id.find(a)].read_seq <
                       log.entries[*log.by_id.find(b)].read_seq;
              });
  }
}

ReplayCursor StableStorage::Replay(const ProcessId& pid) const {
  auto it = logs_.find(pid);
  if (it == logs_.end()) {
    return {};
  }
  const ProcessLog& log = it->second;
  std::vector<LogEntry> out;
  out.reserve(log.entries.size());
  // Read entries in read order — read_order is maintained sorted, so this is
  // a straight index walk; each push shares the stored packet Buffer.
  for (const MessageId& id : log.read_order) {
    if (const size_t* pos = log.by_id.find(id)) {
      out.push_back(log.entries[*pos]);
    }
  }
  // Then unread entries in arrival order (`entries` is arrival-ordered).
  for (const LogEntry& entry : log.entries) {
    if (!entry.read) {
      out.push_back(entry);
    }
  }
  return ReplayCursor(std::move(out));
}

Result<ProcessLogInfo> StableStorage::Info(const ProcessId& pid) const {
  auto it = logs_.find(pid);
  if (it == logs_.end()) {
    return Status(StatusCode::kNotFound, "unknown process " + ToString(pid));
  }
  return it->second.info;
}

uint64_t StableStorage::LastSent(const ProcessId& pid) const {
  auto it = logs_.find(pid);
  return it == logs_.end() ? 0 : it->second.info.last_sent_seq;
}

std::vector<ProcessId> StableStorage::ProcessesOnNode(NodeId node) const {
  std::vector<ProcessId> out;
  for (const auto& [pid, log] : logs_) {
    if (!log.info.destroyed && !log.info.program.empty() && log.info.home_node == node) {
      out.push_back(pid);
    }
  }
  return out;
}

std::vector<ProcessId> StableStorage::AllProcesses() const {
  std::vector<ProcessId> out;
  for (const auto& [pid, log] : logs_) {
    if (!log.info.destroyed && !log.info.program.empty()) {
      out.push_back(pid);
    }
  }
  return out;
}

uint32_t StableStorage::LocalIdHighWater(NodeId node) const {
  uint32_t high = 0;
  for (const auto& [pid, log] : logs_) {
    if (pid.origin == node) {
      high = std::max(high, pid.local);
    }
  }
  return high;
}

void StableStorage::AppendNodeMessage(NodeId node, const MessageId& id, Buffer packet) {
  NodeLog& log = node_logs_[node];
  if (!log.ever_logged.insert(id)) {
    return;  // Retransmission of an already-published frame.
  }
  Journal([&] { return StorageJournal::EncodeAppendNodeMessage(node, id, packet); });
  ObserveDurable(id);
  NodeLogEntry entry;
  entry.id = id;
  entry.arrival = next_arrival_++;
  entry.packet = std::move(packet);
  log.entries.push_back(std::move(entry));
  ++messages_stored_;
}

void StableStorage::StampNodeMessage(NodeId node, const MessageId& id, uint64_t step) {
  auto it = node_logs_.find(node);
  if (it == node_logs_.end()) {
    return;
  }
  for (NodeLogEntry& entry : it->second.entries) {
    if (entry.id == id && !entry.stamped) {
      Journal([&] { return StorageJournal::EncodeStampNodeMessage(node, id, step); });
      entry.step = step;
      entry.stamped = true;
      return;
    }
  }
}

void StableStorage::StoreNodeCheckpoint(NodeId node, Bytes image, uint64_t node_step) {
  Journal([&] { return StorageJournal::EncodeStoreNodeCheckpoint(node, image, node_step); });
  NodeLog& log = node_logs_[node];
  log.has_checkpoint = true;
  log.checkpoint = std::move(image);
  log.checkpoint_step = node_step;
  // Entries the checkpoint has already absorbed: stamped at or before the
  // capture position (read ones are in process state, unread ones in the
  // serialized queues).
  std::erase_if(log.entries, [node_step](const NodeLogEntry& entry) {
    return entry.stamped && entry.step <= node_step;
  });
  if (backend_ != nullptr) {
    backend_->OnCheckpointStored();
  }
}

Result<StableStorage::NodeCheckpointInfo> StableStorage::LoadNodeCheckpoint(NodeId node) const {
  auto it = node_logs_.find(node);
  if (it == node_logs_.end() || !it->second.has_checkpoint) {
    return Status(StatusCode::kNotFound, "no node checkpoint for " + ToString(node));
  }
  NodeCheckpointInfo info;
  info.image = it->second.checkpoint;
  info.node_step = it->second.checkpoint_step;
  return info;
}

std::vector<StableStorage::NodeLogEntry> StableStorage::NodeReplayList(NodeId node) const {
  auto it = node_logs_.find(node);
  if (it == node_logs_.end()) {
    return {};
  }
  const uint64_t base = it->second.has_checkpoint ? it->second.checkpoint_step : 0;
  std::vector<NodeLogEntry> out;
  for (const NodeLogEntry& entry : it->second.entries) {
    if (entry.stamped && entry.step > base) {
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const NodeLogEntry& a, const NodeLogEntry& b) { return a.step < b.step; });
  return out;
}

uint64_t StableStorage::IncrementRestartNumber() {
  ++restart_number_;
  // The restart number stamps state queries (§3.4); a recorder that forgot
  // it could reuse a number and mis-pair replies, so it goes durable
  // immediately rather than riding the group-commit window.
  Journal([&] { return StorageJournal::EncodeRestartNumber(restart_number_); });
  if (backend_ != nullptr) {
    (void)backend_->Sync();
  }
  return restart_number_;
}

size_t StableStorage::TotalPages() const {
  // Messages are buffered into 4 KB pages per process (§4.5); each process's
  // log occupies whole pages.
  size_t pages = 0;
  for (const auto& [pid, log] : logs_) {
    pages += (BytesOf(log) + kPageBytes - 1) / kPageBytes;
  }
  return pages;
}

void StableStorage::RefreshAccounting() { peak_bytes_ = std::max(peak_bytes_, TotalBytes()); }

}  // namespace publishing
