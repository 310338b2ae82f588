#include "src/core/storage_journal.h"

#include <algorithm>
#include <cassert>

#include "src/common/flat_table.h"

namespace publishing {

namespace {

Writer BeginRecord(JournalOp op, size_t record_bytes = 0) {
  Writer w;
  w.Reserve(record_bytes);
  w.WriteU8(static_cast<uint8_t>(op));
  return w;
}

// Sizes of the op byte and a u64, for the per-message encoders that reserve
// their record up front.
constexpr size_t kOpBytes = 1;
constexpr size_t kU64Bytes = 8;

Status Corrupt(const char* what) {
  return Status(StatusCode::kCorrupt, std::string("journal record: ") + what);
}

// Reads the fields common to several ops; each returns kCorrupt on underrun
// via the Reader's own bounds checks.
#define READ_OR_RETURN(var, expr)     \
  auto var##_r = (expr);              \
  if (!var##_r.ok()) {                \
    return var##_r.status();          \
  }                                   \
  auto var = std::move(*var##_r)

void WriteMessageIdSet(Writer& w, const FlatSet<MessageId>& set) {
  w.WriteU32(static_cast<uint32_t>(set.size()));
  for (const MessageId& id : set) {
    w.WriteMessageId(id);
  }
}

Status ReadMessageIdSet(Reader& r, FlatSet<MessageId>& out) {
  READ_OR_RETURN(count, r.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    READ_OR_RETURN(id, r.ReadMessageId());
    out.insert(id);
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Incremental encoders
// ---------------------------------------------------------------------------

Bytes StorageJournal::EncodeCreate(const ProcessId& pid, const std::string& program,
                                   const std::vector<Link>& links, NodeId home,
                                   bool recoverable) {
  Writer w = BeginRecord(JournalOp::kCreate);
  w.WriteProcessId(pid);
  w.WriteString(program);
  w.WriteU32(static_cast<uint32_t>(links.size()));
  for (const Link& link : links) {
    SerializeLink(w, link);
  }
  w.WriteNodeId(home);
  w.WriteBool(recoverable);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeDestroy(const ProcessId& pid) {
  Writer w = BeginRecord(JournalOp::kDestroy);
  w.WriteProcessId(pid);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeSetHome(const ProcessId& pid, NodeId node) {
  Writer w = BeginRecord(JournalOp::kSetHome);
  w.WriteProcessId(pid);
  w.WriteNodeId(node);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeAppendMessage(const ProcessId& pid, const MessageId& id,
                                          std::span<const uint8_t> packet) {
  Writer w = BeginRecord(JournalOp::kAppendMessage, kOpBytes + kProcessIdBytes +
                                                        kMessageIdBytes + kLengthPrefixBytes +
                                                        packet.size());
  w.WriteProcessId(pid);
  w.WriteMessageId(id);
  w.WriteBytes(packet);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeRecordRead(const ProcessId& reader, const MessageId& id) {
  Writer w = BeginRecord(JournalOp::kRecordRead,
                         kOpBytes + kProcessIdBytes + kMessageIdBytes);
  w.WriteProcessId(reader);
  w.WriteMessageId(id);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeRecordSent(const ProcessId& sender, uint64_t seq) {
  Writer w = BeginRecord(JournalOp::kRecordSent, kOpBytes + kProcessIdBytes + kU64Bytes);
  w.WriteProcessId(sender);
  w.WriteU64(seq);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeStoreCheckpoint(const ProcessId& pid, const Bytes& state,
                                            uint64_t reads_done) {
  Writer w = BeginRecord(JournalOp::kStoreCheckpoint);
  w.WriteProcessId(pid);
  w.WriteBytes(state);
  w.WriteU64(reads_done);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeSetRecovering(const ProcessId& pid, bool recovering) {
  Writer w = BeginRecord(JournalOp::kSetRecovering);
  w.WriteProcessId(pid);
  w.WriteBool(recovering);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeAppendNodeMessage(NodeId node, const MessageId& id,
                                              std::span<const uint8_t> packet) {
  Writer w = BeginRecord(JournalOp::kAppendNodeMessage, kOpBytes + kNodeIdBytes +
                                                            kMessageIdBytes + kLengthPrefixBytes +
                                                            packet.size());
  w.WriteNodeId(node);
  w.WriteMessageId(id);
  w.WriteBytes(packet);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeStampNodeMessage(NodeId node, const MessageId& id, uint64_t step) {
  Writer w = BeginRecord(JournalOp::kStampNodeMessage);
  w.WriteNodeId(node);
  w.WriteMessageId(id);
  w.WriteU64(step);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeStoreNodeCheckpoint(NodeId node, const Bytes& image,
                                                uint64_t step) {
  Writer w = BeginRecord(JournalOp::kStoreNodeCheckpoint);
  w.WriteNodeId(node);
  w.WriteBytes(image);
  w.WriteU64(step);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeRestartNumber(uint64_t number) {
  Writer w = BeginRecord(JournalOp::kRestartNumber);
  w.WriteU64(number);
  return w.TakeBytes();
}

JournalOp StorageJournal::OpOf(std::span<const uint8_t> record) {
  if (record.empty()) {
    return JournalOp::kInvalid;
  }
  const uint8_t op = record[0];
  if ((op >= static_cast<uint8_t>(JournalOp::kCreate) &&
       op <= static_cast<uint8_t>(JournalOp::kDropProcess)) ||
      (op >= static_cast<uint8_t>(JournalOp::kSnapshotBegin) &&
       op <= static_cast<uint8_t>(JournalOp::kSnapshotEnd))) {
    return static_cast<JournalOp>(op);
  }
  return JournalOp::kInvalid;
}

namespace {
// Little-endian u32 at `offset`, 0 on underrun (an undecodable record routes
// to stripe 0, where Apply will reject it with the usual kCorrupt).
uint32_t U32At(std::span<const uint8_t> record, size_t offset) {
  if (record.size() < offset + 4) {
    return 0;
  }
  return static_cast<uint32_t>(record[offset]) |
         static_cast<uint32_t>(record[offset + 1]) << 8 |
         static_cast<uint32_t>(record[offset + 2]) << 16 |
         static_cast<uint32_t>(record[offset + 3]) << 24;
}
}  // namespace

uint64_t StorageJournal::RouteKey(std::span<const uint8_t> record) {
  switch (OpOf(record)) {
    case JournalOp::kCreate:
    case JournalOp::kDestroy:
    case JournalOp::kSetHome:
    case JournalOp::kAppendMessage:
    case JournalOp::kRecordRead:
    case JournalOp::kRecordSent:
    case JournalOp::kStoreCheckpoint:
    case JournalOp::kSetRecovering:
    case JournalOp::kImportProcess:
    case JournalOp::kDropProcess:
    case JournalOp::kSnapshotProcess: {
      // ProcessId = origin node u32 + local u32, right after the op byte.
      const uint64_t origin = U32At(record, 1);
      const uint64_t local = U32At(record, 5);
      return MixKey(origin << 32 | local);
    }
    case JournalOp::kAppendNodeMessage:
    case JournalOp::kStampNodeMessage:
    case JournalOp::kStoreNodeCheckpoint:
    case JournalOp::kSnapshotNode:
      return MixKey(U32At(record, 1));
    default:
      return 0;  // Global records (restart number, snapshot bracket/counters).
  }
}

Result<uint64_t> StorageJournal::SnapshotEndCount(std::span<const uint8_t> record) {
  if (OpOf(record) != JournalOp::kSnapshotEnd) {
    return Corrupt("not a snapshot end record");
  }
  Reader r(record.subspan(1));
  READ_OR_RETURN(count, r.ReadU64());
  return count;
}

// ---------------------------------------------------------------------------
// Process-entry body (shared by kSnapshotProcess and kImportProcess)
// ---------------------------------------------------------------------------

void StorageJournal::WriteProcessEntryBody(Writer& w, const ProcessId& pid,
                                           const StableStorage::ProcessLog& log) {
  w.WriteProcessId(pid);
  w.WriteString(log.info.program);
  w.WriteU32(static_cast<uint32_t>(log.info.initial_links.size()));
  for (const Link& link : log.info.initial_links) {
    SerializeLink(w, link);
  }
  w.WriteNodeId(log.info.home_node);
  w.WriteBool(log.info.destroyed);
  w.WriteBool(log.info.recoverable);
  w.WriteBool(log.info.recovering);
  w.WriteBool(log.info.has_checkpoint);
  w.WriteU64(log.info.checkpoint_reads);
  w.WriteU64(log.info.last_sent_seq);
  w.WriteBytes(log.checkpoint);
  w.WriteU32(static_cast<uint32_t>(log.entries.size()));
  for (const LogEntry& entry : log.entries) {
    w.WriteMessageId(entry.id);
    w.WriteU64(entry.arrival);
    w.WriteBool(entry.read);
    w.WriteU64(entry.read_seq);
    w.WriteBytes(entry.packet);
  }
  w.WriteU64(log.next_read_seq);
  WriteMessageIdSet(w, log.ever_read);
  WriteMessageIdSet(w, log.ever_logged);
}

Status StorageJournal::ReadProcessEntryBody(Reader& r, ProcessId& pid,
                                            StableStorage::ProcessLog& log) {
  READ_OR_RETURN(read_pid, r.ReadProcessId());
  pid = read_pid;
  READ_OR_RETURN(program, r.ReadString());
  log.info.program = std::move(program);
  READ_OR_RETURN(nlinks, r.ReadU32());
  for (uint32_t i = 0; i < nlinks; ++i) {
    auto link = ParseLink(r);
    if (!link.ok()) {
      return link.status();
    }
    log.info.initial_links.push_back(*link);
  }
  READ_OR_RETURN(home, r.ReadNodeId());
  log.info.home_node = home;
  READ_OR_RETURN(destroyed, r.ReadBool());
  log.info.destroyed = destroyed;
  READ_OR_RETURN(recoverable, r.ReadBool());
  log.info.recoverable = recoverable;
  READ_OR_RETURN(recovering, r.ReadBool());
  log.info.recovering = recovering;
  READ_OR_RETURN(has_checkpoint, r.ReadBool());
  log.info.has_checkpoint = has_checkpoint;
  READ_OR_RETURN(checkpoint_reads, r.ReadU64());
  log.info.checkpoint_reads = checkpoint_reads;
  READ_OR_RETURN(last_sent, r.ReadU64());
  log.info.last_sent_seq = last_sent;
  READ_OR_RETURN(checkpoint, r.ReadBytes());
  log.checkpoint = std::move(checkpoint);
  log.info.checkpoint_bytes = log.checkpoint.size();
  READ_OR_RETURN(nentries, r.ReadU32());
  for (uint32_t i = 0; i < nentries; ++i) {
    LogEntry entry;
    READ_OR_RETURN(id, r.ReadMessageId());
    entry.id = id;
    READ_OR_RETURN(arrival, r.ReadU64());
    entry.arrival = arrival;
    READ_OR_RETURN(read, r.ReadBool());
    entry.read = read;
    READ_OR_RETURN(read_seq, r.ReadU64());
    entry.read_seq = read_seq;
    READ_OR_RETURN(packet, r.ReadBytes());
    entry.packet = std::move(packet);
    log.info.log_bytes += entry.packet.size();
    log.entries.push_back(std::move(entry));
  }
  log.info.log_entries = log.entries.size();
  READ_OR_RETURN(next_read_seq, r.ReadU64());
  log.next_read_seq = next_read_seq;
  Status status = ReadMessageIdSet(r, log.ever_read);
  if (!status.ok()) {
    return status;
  }
  status = ReadMessageIdSet(r, log.ever_logged);
  if (!status.ok()) {
    return status;
  }
  // The body carries the entries but not the derived replay index;
  // recompute it so the installed entry replays as fast as a live one.
  StableStorage::RebuildReplayIndex(log);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Live-migration hand-off records
// ---------------------------------------------------------------------------

Bytes StorageJournal::EncodeImportProcess(const StableStorage& db, const ProcessId& pid) {
  Writer w = BeginRecord(JournalOp::kImportProcess);
  auto it = db.logs_.find(pid);
  assert(it != db.logs_.end() && "exporting an unknown process");
  WriteProcessEntryBody(w, pid, it->second);
  return w.TakeBytes();
}

Bytes StorageJournal::EncodeDropProcess(const ProcessId& pid, NodeId moved_to) {
  Writer w = BeginRecord(JournalOp::kDropProcess);
  w.WriteProcessId(pid);
  w.WriteNodeId(moved_to);
  return w.TakeBytes();
}

Status StorageJournal::DecodeImportProcess(std::span<const uint8_t> record, ProcessId& pid,
                                           StableStorage::ProcessLog& log) {
  if (OpOf(record) != JournalOp::kImportProcess) {
    return Corrupt("not an import record");
  }
  Reader r(record.subspan(1));
  return ReadProcessEntryBody(r, pid, log);
}

// ---------------------------------------------------------------------------
// Snapshot (full-image) records
// ---------------------------------------------------------------------------

std::vector<Bytes> StorageJournal::SnapshotRecords(const StableStorage& db) {
  std::vector<Bytes> records;
  records.reserve(db.logs_.size() + db.node_logs_.size() + 3);
  {
    Writer w = BeginRecord(JournalOp::kSnapshotBegin);
    w.WriteU32(1);  // Snapshot format version.
    records.push_back(w.TakeBytes());
  }
  for (const auto& [pid, log] : db.logs_) {
    Writer w = BeginRecord(JournalOp::kSnapshotProcess);
    WriteProcessEntryBody(w, pid, log);
    records.push_back(w.TakeBytes());
  }
  for (const auto& [node, log] : db.node_logs_) {
    Writer w = BeginRecord(JournalOp::kSnapshotNode);
    w.WriteNodeId(node);
    w.WriteBool(log.has_checkpoint);
    w.WriteBytes(log.checkpoint);
    w.WriteU64(log.checkpoint_step);
    w.WriteU32(static_cast<uint32_t>(log.entries.size()));
    for (const StableStorage::NodeLogEntry& entry : log.entries) {
      w.WriteMessageId(entry.id);
      w.WriteU64(entry.arrival);
      w.WriteU64(entry.step);
      w.WriteBool(entry.stamped);
      w.WriteBytes(entry.packet);
    }
    WriteMessageIdSet(w, log.ever_logged);
    records.push_back(w.TakeBytes());
  }
  {
    Writer w = BeginRecord(JournalOp::kSnapshotCounters);
    w.WriteU64(db.next_arrival_);
    w.WriteU64(db.restart_number_);
    w.WriteU64(db.messages_stored_);
    w.WriteU64(db.peak_bytes_);
    // Moved-away tombstones ride the counters record: a rebuilt recorder must
    // keep ignoring traffic for processes that migrated to another segment.
    w.WriteU32(static_cast<uint32_t>(db.moved_.size()));
    for (const auto& [pid, node] : db.moved_) {
      w.WriteProcessId(pid);
      w.WriteNodeId(node);
    }
    // The straggler annex rides along too: after a crash it may be the only
    // copy of acked frames for a moved-away process, so compaction must not
    // drop it before the restart drain feeds the new home.
    w.WriteU32(static_cast<uint32_t>(db.annex_.size()));
    for (const auto& [pid, annex] : db.annex_) {
      w.WriteProcessId(pid);
      w.WriteU32(static_cast<uint32_t>(annex.entries.size()));
      for (const LogEntry& entry : annex.entries) {
        w.WriteMessageId(entry.id);
        w.WriteU64(entry.arrival);
        w.WriteBytes(entry.packet);
      }
    }
    records.push_back(w.TakeBytes());
  }
  {
    Writer w = BeginRecord(JournalOp::kSnapshotEnd);
    w.WriteU64(records.size() + 1);  // Total records including this one.
    records.push_back(w.TakeBytes());
  }
  return records;
}

// ---------------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------------

Status StorageJournal::Apply(StableStorage& db, std::span<const uint8_t> record) {
  assert(db.backend() == nullptr && "replay must not re-journal");
  const JournalOp op = OpOf(record);
  if (op == JournalOp::kInvalid) {
    return Corrupt("unknown op");
  }
  Reader r(record.subspan(1));
  switch (op) {
    case JournalOp::kCreate: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(program, r.ReadString());
      READ_OR_RETURN(nlinks, r.ReadU32());
      std::vector<Link> links;
      for (uint32_t i = 0; i < nlinks; ++i) {
        auto link = ParseLink(r);
        if (!link.ok()) {
          return link.status();
        }
        links.push_back(*link);
      }
      READ_OR_RETURN(home, r.ReadNodeId());
      READ_OR_RETURN(recoverable, r.ReadBool());
      db.RecordCreation(pid, program, std::move(links), home, recoverable);
      return Status::Ok();
    }
    case JournalOp::kDestroy: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      db.RecordDestruction(pid);
      return Status::Ok();
    }
    case JournalOp::kSetHome: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(node, r.ReadNodeId());
      db.SetHomeNode(pid, node);
      return Status::Ok();
    }
    case JournalOp::kAppendMessage: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(id, r.ReadMessageId());
      READ_OR_RETURN(packet, r.ReadBytes());
      db.AppendMessage(pid, id, std::move(packet));
      return Status::Ok();
    }
    case JournalOp::kRecordRead: {
      READ_OR_RETURN(reader, r.ReadProcessId());
      READ_OR_RETURN(id, r.ReadMessageId());
      db.RecordRead(reader, id);
      return Status::Ok();
    }
    case JournalOp::kRecordSent: {
      READ_OR_RETURN(sender, r.ReadProcessId());
      READ_OR_RETURN(seq, r.ReadU64());
      db.RecordSent(sender, seq);
      return Status::Ok();
    }
    case JournalOp::kStoreCheckpoint: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(state, r.ReadBytes());
      READ_OR_RETURN(reads_done, r.ReadU64());
      db.StoreCheckpoint(pid, std::move(state), reads_done);
      return Status::Ok();
    }
    case JournalOp::kSetRecovering: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(recovering, r.ReadBool());
      db.SetRecovering(pid, recovering);
      return Status::Ok();
    }
    case JournalOp::kAppendNodeMessage: {
      READ_OR_RETURN(node, r.ReadNodeId());
      READ_OR_RETURN(id, r.ReadMessageId());
      READ_OR_RETURN(packet, r.ReadBytes());
      db.AppendNodeMessage(node, id, std::move(packet));
      return Status::Ok();
    }
    case JournalOp::kStampNodeMessage: {
      READ_OR_RETURN(node, r.ReadNodeId());
      READ_OR_RETURN(id, r.ReadMessageId());
      READ_OR_RETURN(step, r.ReadU64());
      db.StampNodeMessage(node, id, step);
      return Status::Ok();
    }
    case JournalOp::kStoreNodeCheckpoint: {
      READ_OR_RETURN(node, r.ReadNodeId());
      READ_OR_RETURN(image, r.ReadBytes());
      READ_OR_RETURN(step, r.ReadU64());
      db.StoreNodeCheckpoint(node, std::move(image), step);
      return Status::Ok();
    }
    case JournalOp::kRestartNumber: {
      READ_OR_RETURN(number, r.ReadU64());
      db.restart_number_ = number;
      return Status::Ok();
    }
    case JournalOp::kImportProcess:
      return ApplyImportProcess(db, r);
    case JournalOp::kDropProcess: {
      READ_OR_RETURN(pid, r.ReadProcessId());
      READ_OR_RETURN(moved_to, r.ReadNodeId());
      db.EraseLog(pid);
      db.moved_[pid] = moved_to;
      return Status::Ok();
    }
    case JournalOp::kSnapshotBegin: {
      READ_OR_RETURN(version, r.ReadU32());
      if (version != 1) {
        return Corrupt("unsupported snapshot version");
      }
      // The snapshot supersedes everything applied so far.
      db.ClearLogs();
      db.node_logs_.clear();
      db.moved_.clear();
      db.annex_.clear();
      db.next_arrival_ = 1;
      db.restart_number_ = 0;
      db.messages_stored_ = 0;
      db.peak_bytes_ = 0;
      return Status::Ok();
    }
    case JournalOp::kSnapshotProcess:
      return ApplySnapshotProcess(db, r);
    case JournalOp::kSnapshotNode:
      return ApplySnapshotNode(db, r);
    case JournalOp::kSnapshotCounters: {
      READ_OR_RETURN(next_arrival, r.ReadU64());
      READ_OR_RETURN(restart_number, r.ReadU64());
      READ_OR_RETURN(messages_stored, r.ReadU64());
      READ_OR_RETURN(peak_bytes, r.ReadU64());
      db.next_arrival_ = next_arrival;
      db.restart_number_ = restart_number;
      db.messages_stored_ = messages_stored;
      db.peak_bytes_ = static_cast<size_t>(peak_bytes);
      READ_OR_RETURN(nmoved, r.ReadU32());
      for (uint32_t i = 0; i < nmoved; ++i) {
        READ_OR_RETURN(pid, r.ReadProcessId());
        READ_OR_RETURN(node, r.ReadNodeId());
        db.moved_[pid] = node;
      }
      READ_OR_RETURN(nannex, r.ReadU32());
      for (uint32_t i = 0; i < nannex; ++i) {
        READ_OR_RETURN(pid, r.ReadProcessId());
        READ_OR_RETURN(nentries, r.ReadU32());
        StableStorage::AnnexLog& annex = db.annex_[pid];
        for (uint32_t j = 0; j < nentries; ++j) {
          LogEntry entry;
          READ_OR_RETURN(id, r.ReadMessageId());
          entry.id = id;
          READ_OR_RETURN(arrival, r.ReadU64());
          entry.arrival = arrival;
          READ_OR_RETURN(packet, r.ReadBytes());
          entry.packet = Buffer(std::move(packet));
          annex.ids.insert(entry.id);
          annex.entries.push_back(std::move(entry));
        }
      }
      return Status::Ok();
    }
    case JournalOp::kSnapshotEnd: {
      READ_OR_RETURN(count, r.ReadU64());
      (void)count;
      return Status::Ok();
    }
    case JournalOp::kInvalid:
      break;
  }
  return Corrupt("unknown op");
}

Status StorageJournal::ApplySnapshotProcess(StableStorage& db, Reader& r) {
  ProcessId pid;
  StableStorage::ProcessLog log;
  Status status = ReadProcessEntryBody(r, pid, log);
  if (!status.ok()) {
    return status;
  }
  db.InstallLog(pid, std::move(log));
  return Status::Ok();
}

Status StorageJournal::ApplyImportProcess(StableStorage& db, Reader& r) {
  ProcessId pid;
  StableStorage::ProcessLog log;
  Status status = ReadProcessEntryBody(r, pid, log);
  if (!status.ok()) {
    return status;
  }
  // The journaled image is post-remap: install verbatim, keeping the global
  // arrival counter monotonic past the imported indices.
  for (const LogEntry& entry : log.entries) {
    db.next_arrival_ = std::max(db.next_arrival_, entry.arrival + 1);
  }
  db.moved_.erase(pid);
  db.InstallLog(pid, std::move(log));
  return Status::Ok();
}

Status StorageJournal::ApplySnapshotNode(StableStorage& db, Reader& r) {
  READ_OR_RETURN(node, r.ReadNodeId());
  StableStorage::NodeLog log;
  READ_OR_RETURN(has_checkpoint, r.ReadBool());
  log.has_checkpoint = has_checkpoint;
  READ_OR_RETURN(checkpoint, r.ReadBytes());
  log.checkpoint = std::move(checkpoint);
  READ_OR_RETURN(step, r.ReadU64());
  log.checkpoint_step = step;
  READ_OR_RETURN(nentries, r.ReadU32());
  for (uint32_t i = 0; i < nentries; ++i) {
    StableStorage::NodeLogEntry entry;
    READ_OR_RETURN(id, r.ReadMessageId());
    entry.id = id;
    READ_OR_RETURN(arrival, r.ReadU64());
    entry.arrival = arrival;
    READ_OR_RETURN(estep, r.ReadU64());
    entry.step = estep;
    READ_OR_RETURN(stamped, r.ReadBool());
    entry.stamped = stamped;
    READ_OR_RETURN(packet, r.ReadBytes());
    entry.packet = std::move(packet);
    log.entries.push_back(std::move(entry));
  }
  Status status = ReadMessageIdSet(r, log.ever_logged);
  if (!status.ok()) {
    return status;
  }
  db.node_logs_[node] = std::move(log);
  return Status::Ok();
}

}  // namespace publishing
