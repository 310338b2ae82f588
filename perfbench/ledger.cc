#include "perfbench/ledger.h"

#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRun:
      return "sim.run";
    case SpanKind::kTransportOnFrame:
      return "transport.on_frame";
    case SpanKind::kRecorderOnWireFrame:
      return "core.recorder.on_wire_frame";
    case SpanKind::kStorageAppend:
      return "storage.append";
    case SpanKind::kStorageSync:
      return "storage.sync";
    case SpanKind::kStorageTick:
      return "storage.tick";
    case SpanKind::kStorageRebuild:
      return "storage.rebuild";
    case SpanKind::kRecoveryRound:
      return "core.recovery.round";
    case SpanKind::kAppHandler:
      return "app.on_message";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void Ledger::Begin(SpanKind kind, const MessageId& id) {
  Open open{kind, NowNs(), 0, kNoRecord, id};
  if (!id.IsValid() && !stack_.empty()) {
    open.id = stack_.back().id;
  }
  if (records_.size() < kMaxRecords) {
    open.record = static_cast<uint32_t>(records_.size());
    const uint32_t parent = stack_.empty() ? kNoRecord : stack_.back().record;
    records_.push_back(Record{kind, parent, open.start_ns, open.start_ns, open.id});
  }
  stack_.push_back(open);
}

void Ledger::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t end_ns = NowNs();
  const int64_t duration = end_ns - open.start_ns;
  Totals& totals = totals_[static_cast<size_t>(open.kind)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.record != kNoRecord) {
    records_[open.record].end_ns = end_ns;
  }
}

bool Ledger::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  std::fputs("[\n", file);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"msg\":\"%u.%u:%llu\"}%s\n",
                 i, SpanName(r.kind), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 r.parent == kNoRecord ? -1LL : static_cast<long long>(r.parent),
                 r.id.sender.origin.value, r.id.sender.local,
                 static_cast<unsigned long long>(r.id.sequence),
                 i + 1 < records_.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
