// Wall-clock span ledger and the taps that feed it.
//
// The benchmark never instruments src/: every span is opened by benchmark
// code around a call into a layer's public seam.  The taps are pass-through
// implementations of those seams (Station, PromiscuousListener,
// StorageBackend) that time the wrapped object's calls.
//
// A span has a name, a start, an end, a parent and a message id.  Spans opened
// inside a frame handler carry the frame's causal message id; nested spans
// inherit their parent's id, so the spans of one message share an identifier.
// Self time is the span's duration minus the time its child spans cover.
// Totals per span name are kept exactly; the first kMaxRecords spans are also
// kept verbatim and written out when the run ends.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/net/medium.h"
#include "src/storage/storage_backend.h"
#include "src/transport/endpoint.h"

namespace perfbench {

using publishing::MessageId;

enum class SpanKind : uint8_t {
  kSimRun,               // Benchmark's RunFor/Step calls into the engine.
  kTransportOnFrame,     // Station::OnFrame of a kernel's TransportEndpoint.
  kRecorderOnWireFrame,  // PromiscuousListener::OnWireFrame of a Recorder.
  kStorageAppend,        // StorageBackend::Append.
  kStorageSync,          // StorageBackend::Sync.
  kStorageTick,          // StorageBackend::Tick.
  kStorageRebuild,       // RecoverStableStorage.
  kRecoveryRound,        // One crash -> every process recovered round.
  kAppHandler,           // Benchmark programs' OnMessage.
  kCount,
};

const char* SpanName(SpanKind kind);

class Ledger {
 public:
  static constexpr size_t kMaxRecords = 1 << 15;

  struct Totals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit Ledger(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Spans already open keep recording to their end.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // `id` invalid = inherit the enclosing span's message id.
  void Begin(SpanKind kind, const MessageId& id);
  void End();

  const Totals& totals(SpanKind kind) const { return totals_[static_cast<size_t>(kind)]; }
  size_t records() const { return records_.size(); }

  // Writes the retained spans as a JSON array.  Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    uint32_t record;  // Index into records_, or kNoRecord.
    MessageId id;
  };
  struct Record {
    SpanKind kind;
    uint32_t parent;  // Index into records_, or kNoRecord for a root span.
    int64_t start_ns;
    int64_t end_ns;
    MessageId id;
  };
  static constexpr uint32_t kNoRecord = 0xFFFFFFFFu;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::array<Totals, static_cast<size_t>(SpanKind::kCount)> totals_{};
};

// RAII span; a no-op when the ledger is disabled.
class Scope {
 public:
  Scope(Ledger* ledger, SpanKind kind, const MessageId& id = {})
      : ledger_(ledger->enabled() ? ledger : nullptr) {
    if (ledger_ != nullptr) {
      ledger_->Begin(kind, id);
    }
  }
  ~Scope() {
    if (ledger_ != nullptr) {
      ledger_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
};

// Times a kernel endpoint's frame handler.  Installed by detaching the
// endpoint's node from the medium and attaching the tap under the same
// address; the endpoint's destructor later detaches that address again.
class StationTap : public publishing::Station {
 public:
  StationTap(publishing::TransportEndpoint* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  publishing::NodeId Address() const override { return inner_->Address(); }
  void OnFrame(const publishing::Frame& frame) override {
    ++calls_;
    Scope scope(ledger_, SpanKind::kTransportOnFrame, frame.causal.id);
    inner_->OnFrame(frame);
  }
  uint64_t calls() const { return calls_; }

 private:
  publishing::TransportEndpoint* inner_;
  Ledger* ledger_;
  uint64_t calls_ = 0;
};

// Times a recorder's promiscuous tap.
class ListenerTap : public publishing::PromiscuousListener {
 public:
  ListenerTap(publishing::PromiscuousListener* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  bool OnWireFrame(const publishing::Frame& frame) override {
    ++calls_;
    Scope scope(ledger_, SpanKind::kRecorderOnWireFrame, frame.causal.id);
    return inner_->OnWireFrame(frame);
  }
  uint64_t calls() const { return calls_; }

 private:
  publishing::PromiscuousListener* inner_;
  Ledger* ledger_;
  uint64_t calls_ = 0;
};

// Pass-through StorageBackend in front of the Wal.  Counts appends and the
// bytes of every record handed to the log, including the live-image records a
// compaction rewrites (seen through the snapshot source it forwards).
class BackendTap : public publishing::StorageBackend {
 public:
  struct Counts {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t snapshot_bytes = 0;
  };

  explicit BackendTap(Ledger* ledger) : ledger_(ledger) {}

  void set_inner(publishing::StorageBackend* inner) { inner_ = inner; }
  const Counts& counts() const { return counts_; }

  void SetObservability(const publishing::Observability& obs) override {
    inner_->SetObservability(obs);
  }
  publishing::Status Append(std::span<const uint8_t> record, uint64_t now) override {
    ++counts_.appends;
    counts_.append_bytes += record.size();
    Scope scope(ledger_, SpanKind::kStorageAppend);
    return inner_->Append(record, now);
  }
  publishing::Status Sync() override {
    Scope scope(ledger_, SpanKind::kStorageSync);
    return inner_->Sync();
  }
  void Tick(uint64_t now) override {
    Scope scope(ledger_, SpanKind::kStorageTick);
    inner_->Tick(now);
  }
  void OnCheckpointStored() override { inner_->OnCheckpointStored(); }
  void SetSnapshotSource(std::function<std::vector<publishing::Bytes>()> source) override {
    if (!source) {
      inner_->SetSnapshotSource(nullptr);
      return;
    }
    inner_->SetSnapshotSource([this, source = std::move(source)] {
      std::vector<publishing::Bytes> records = source();
      for (const publishing::Bytes& record : records) {
        counts_.snapshot_bytes += record.size();
      }
      return records;
    });
  }

 private:
  Ledger* ledger_;
  publishing::StorageBackend* inner_ = nullptr;
  Counts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
