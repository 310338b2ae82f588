// Benchmark-owned inputs and programs.
//
// Every input is a pure function of the run seed: request bodies, their
// sizes, process placement, partners and wave timing all come from Hash().
// The programs keep O(1) state (counters and a running body checksum) so that
// checkpoint images, compaction snapshots and memory do not grow with run
// length.  Round-trip instants live in a benchmark-side RequestTable, outside
// the programs, and are recorded on the first execution only: a replayed
// re-execution never records twice.

#ifndef PERFBENCH_PROGRAMS_H_
#define PERFBENCH_PROGRAMS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "perfbench/ledger.h"
#include "src/demos/program.h"
#include "src/sim/simulator.h"

namespace perfbench {

using publishing::Bytes;
using publishing::DeliveredMessage;
using publishing::KernelApi;
using publishing::ProcessId;
using publishing::Reader;
using publishing::SimTime;
using publishing::Status;
using publishing::UserProgram;
using publishing::Writer;

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t Hash(uint64_t seed, uint64_t a, uint64_t b = 0) {
  return Mix(seed ^ Mix(a ^ Mix(b)));
}

inline uint64_t PidKey(const ProcessId& pid) {
  return (uint64_t{pid.origin.value} << 32) | pid.local;
}

constexpr size_t kMinBody = 8;
constexpr size_t kMaxBody = 1024;

// Body `seq` of the stream `key`: 8..1024 bytes, the first 8 the sequence
// number, the rest seeded noise.
inline Bytes MakeBody(uint64_t seed, uint64_t key, uint64_t seq) {
  uint64_t state = Hash(seed, key, seq);
  const size_t size = kMinBody + state % (kMaxBody - kMinBody + 1);
  Bytes body(size);
  std::memcpy(body.data(), &seq, sizeof(seq));
  for (size_t i = sizeof(seq); i < size; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    body[i] = static_cast<uint8_t>(state);
  }
  return body;
}

inline uint64_t BodySeq(const Bytes& body) {
  uint64_t seq = 0;
  if (body.size() >= sizeof(seq)) {
    std::memcpy(&seq, body.data(), sizeof(seq));
  }
  return seq;
}

constexpr uint64_t kChecksumSeed = 14695981039346656037ULL;

// Order-sensitive running checksum (FNV-1a over each body, then its length).
inline uint64_t Fold(uint64_t checksum, const Bytes& body) {
  for (uint8_t b : body) {
    checksum = (checksum ^ b) * 1099511628211ULL;
  }
  return (checksum ^ body.size()) * 1099511628211ULL;
}

// Keeps every sample, so percentiles are exact (nearest rank, as
// StatAccumulator ranks its reservoir).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  double Percentile(double p) const {
    if (values_.empty()) {
      return 0;
    }
    std::vector<double> sorted = values_;
    const size_t rank =
        std::min(sorted.size() - 1, static_cast<size_t>(p / 100.0 * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(rank), sorted.end());
    return sorted[rank];
  }
  double p50() const { return Percentile(50); }
  double p99() const { return Percentile(99); }

 private:
  std::vector<double> values_;
};

// Benchmark-side request bookkeeping: first-send and first-reply instants per
// client, the round-trip distribution and the failure count.
class RequestTable {
 public:
  RequestTable(const publishing::Simulator* sim, Ledger* ledger, uint64_t seed)
      : sim_(sim), ledger_(ledger), seed_(seed) {}

  Ledger* ledger() const { return ledger_; }
  uint64_t seed() const { return seed_; }

  void OnSend(const ProcessId& client, uint64_t seq) {
    Slot& slot = slots_[client];
    if (seq != slot.sent) {
      return;  // A re-execution of a send already recorded.
    }
    ++slot.sent;
    slot.pending_since = sim_->Now();
    ++requests_;
  }

  // `ok` is the client's verdict on the reply: right sequence, right body.
  void OnReply(const ProcessId& client, uint64_t seq, bool ok) {
    Slot& slot = slots_[client];
    if (!ok) {
      ++failures_;
      return;
    }
    if (seq != slot.replied) {
      return;
    }
    ++slot.replied;
    ++replies_;
    rtt_ms_.Add(publishing::ToMillis(sim_->Now() - slot.pending_since));
    if (slot.replied == target_) {
      ++clients_done_;
    }
  }

  void set_target(uint64_t target) { target_ = target; }
  uint64_t requests() const { return requests_; }
  uint64_t replies() const { return replies_; }
  uint64_t failures() const { return failures_; }
  uint64_t clients_done() const { return clients_done_; }
  const Samples& rtt_ms() const { return rtt_ms_; }

 private:
  struct Slot {
    uint64_t sent = 0;
    uint64_t replied = 0;
    SimTime pending_since = 0;
  };

  const publishing::Simulator* sim_;
  Ledger* ledger_;
  uint64_t seed_;
  uint64_t target_ = 0;
  std::unordered_map<ProcessId, Slot> slots_;
  uint64_t requests_ = 0;
  uint64_t replies_ = 0;
  uint64_t failures_ = 0;
  uint64_t clients_done_ = 0;
  Samples rtt_ms_;
};

// Closed-loop client: sends request `seq` over link 1 with a fresh reply link
// on channel 2, and the next one only after checking the reply's sequence and
// body exactly once.
class Client : public UserProgram {
 public:
  static constexpr uint16_t kReplyChannel = 2;
  static constexpr uint32_t kServerLink = 1;

  Client(RequestTable* table, uint64_t target) : table_(table), target_(target) {}

  void OnStart(KernelApi& api) override { SendNext(api); }

  void OnMessage(KernelApi& api, const DeliveredMessage& msg) override {
    Scope scope(table_->ledger(), SpanKind::kAppHandler, msg.id);
    const uint64_t seq = BodySeq(msg.body);
    const bool ok = msg.channel == kReplyChannel && seq == replies_ &&
                    msg.body == MakeBody(table_->seed(), PidKey(api.Self()), seq);
    table_->OnReply(api.Self(), seq, ok);
    if (!ok) {
      return;
    }
    ++replies_;
    checksum_ = Fold(checksum_, msg.body);
    if (next_seq_ < target_) {
      SendNext(api);
    }
  }

  void SaveState(Writer& w) const override {
    w.WriteU64(target_);
    w.WriteU64(next_seq_);
    w.WriteU64(replies_);
    w.WriteU64(checksum_);
  }
  Status LoadState(Reader& r) override {
    for (uint64_t* field : {&target_, &next_seq_, &replies_, &checksum_}) {
      auto value = r.ReadU64();
      if (!value.ok()) {
        return value.status();
      }
      *field = *value;
    }
    return Status::Ok();
  }

 private:
  void SendNext(KernelApi& api) {
    auto reply = api.CreateLink(kReplyChannel, static_cast<uint32_t>(next_seq_));
    if (!reply.ok()) {
      return;
    }
    const uint64_t seq = next_seq_++;
    table_->OnSend(api.Self(), seq);
    api.Send(publishing::LinkId{kServerLink}, MakeBody(table_->seed(), PidKey(api.Self()), seq),
             *reply);
  }

  RequestTable* table_;
  uint64_t target_;
  uint64_t next_seq_ = 0;
  uint64_t replies_ = 0;
  uint64_t checksum_ = kChecksumSeed;
};

// Folds every body it receives into its checksum and echoes it over the
// passed reply link, if any.
class Server : public UserProgram {
 public:
  explicit Server(Ledger* ledger) : ledger_(ledger) {}

  void OnStart(KernelApi& api) override { (void)api; }

  void OnMessage(KernelApi& api, const DeliveredMessage& msg) override {
    Scope scope(ledger_, SpanKind::kAppHandler, msg.id);
    ++count_;
    checksum_ = Fold(checksum_, msg.body);
    if (msg.passed_link.IsValid()) {
      api.Send(msg.passed_link, msg.body);
    }
  }

  void SaveState(Writer& w) const override {
    w.WriteU64(count_);
    w.WriteU64(checksum_);
  }
  Status LoadState(Reader& r) override {
    auto count = r.ReadU64();
    if (!count.ok()) {
      return count.status();
    }
    auto checksum = r.ReadU64();
    if (!checksum.ok()) {
      return checksum.status();
    }
    count_ = *count;
    checksum_ = *checksum;
    return Status::Ok();
  }

  uint64_t count() const { return count_; }
  uint64_t checksum() const { return checksum_; }

 private:
  Ledger* ledger_;
  uint64_t count_ = 0;
  uint64_t checksum_ = kChecksumSeed;
};

// One-way feeder: on start, sends `per_server` bodies to each server behind
// its initial links 1..n, interleaved.  Body j for a server is
// MakeBody(seed, PidKey(server), j), so the benchmark knows every server's
// crash-free checksum in advance.
class Feeder : public UserProgram {
 public:
  Feeder(uint64_t seed, uint32_t servers, uint64_t per_server)
      : seed_(seed), servers_(servers), per_server_(per_server) {}

  void OnStart(KernelApi& api) override {
    for (uint64_t j = 0; j < per_server_; ++j) {
      for (uint32_t i = 1; i <= servers_; ++i) {
        auto link = api.InspectLink(publishing::LinkId{i});
        if (link.ok()) {
          api.Send(publishing::LinkId{i}, MakeBody(seed_, PidKey(link->dest), j));
        }
      }
    }
  }
  void OnMessage(KernelApi& api, const DeliveredMessage& msg) override {
    (void)api;
    (void)msg;
  }
  void SaveState(Writer& w) const override {
    w.WriteU64(seed_);
    w.WriteU32(servers_);
    w.WriteU64(per_server_);
  }
  Status LoadState(Reader& r) override {
    auto seed = r.ReadU64();
    auto servers = r.ReadU32();
    auto per_server = r.ReadU64();
    if (!seed.ok() || !servers.ok() || !per_server.ok()) {
      return Status(publishing::StatusCode::kInvalidArgument, "feeder state");
    }
    seed_ = *seed;
    servers_ = *servers;
    per_server_ = *per_server;
    return Status::Ok();
  }

 private:
  uint64_t seed_;
  uint32_t servers_;
  uint64_t per_server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAMS_H_
