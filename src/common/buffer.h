// Immutable, refcounted byte buffer with cheap slicing.
//
// The publish hot path (sender -> medium -> N overhearing stations ->
// recorder -> stable storage) used to deep-copy the frame payload at nearly
// every hop because Frame carried a std::vector<uint8_t> by value.  Buffer
// replaces that with a shared, immutable payload: copying a Buffer bumps a
// refcount, Slice() adjusts an offset/length view over the same storage, and
// the payload bytes themselves are written exactly once, when the sender
// serializes the packet.
//
// Ownership model (see DESIGN.md §10):
//   - Storage is immutable once a Buffer wraps it.  Nobody may mutate bytes
//     through a Buffer.
//   - Mutation (fault injection: corruption, CRC invalidation) goes through
//     MutateCopy(), which clones the visible window into fresh storage.
//     Those clones are the ONLY copies on the wire path and are counted in
//     buf.bytes_copied.
//   - ToBytes() materializes a std::vector copy for callers that need owned
//     bytes (disk encode paths, legacy APIs); also counted as copied.
//   - Sharing (Buffer copy construction/assignment) is counted in
//     buf.bytes_shared so benchmarks can prove the share/copy ratio.
//   - A storage block may carry a link-layer seal: its last 4 bytes are the
//     CRC-32 of the rest, computed when LinkWrap froze it.  Only LinkWrap
//     can set the seal, and only a view of the whole block reports it;
//     every clone (MutateCopy, CopyOf, ToBytes, Buffer(Bytes&&)) starts
//     unsealed.
//
// Counters are plain process-wide uint64s so the hot path never touches a
// registry by default; PublishingSystem::EnableObservability installs a
// BufferStatsSink that forwards increments into MetricsRegistry counters.

#ifndef SRC_COMMON_BUFFER_H_
#define SRC_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/serialization.h"

namespace publishing {

// Process-wide accounting for buffer copies vs. shares.  Deterministic:
// incremented only by explicit Buffer operations, never by timing.
struct BufferStats {
  uint64_t bytes_copied = 0;   // bytes physically duplicated (CoW, ToBytes)
  uint64_t bytes_shared = 0;   // bytes logically duplicated by refcount bump
  uint64_t copies = 0;         // number of physical copy operations
  uint64_t shares = 0;         // number of refcount-bump duplications
  uint64_t link_crcs = 0;      // link-layer CRC-32 computations (CountLinkCrc)
};

// Snapshot of the counters since process start (or since ResetBufferStats).
BufferStats GetBufferStats();
void ResetBufferStats();

// Counts one link-layer CRC computation into BufferStats::link_crcs.  The
// link layer calls it for every CRC it actually computes: one per LinkWrap
// and one per LinkUnwrap of an unsealed view.
void CountLinkCrc();

// Optional live tap on the counters.  The observability layer installs one
// that mirrors copies/shares into MetricsRegistry counters (buf.bytes_copied,
// buf.bytes_shared); common/ stays free of a dependency on obs/.  Process
// wide, last-install wins, nullptr detaches.
class BufferStatsSink {
 public:
  virtual ~BufferStatsSink() = default;
  virtual void OnBufferCopy(uint64_t bytes) = 0;
  virtual void OnBufferShare(uint64_t bytes) = 0;
};
void SetBufferStatsSink(BufferStatsSink* sink);
BufferStatsSink* GetBufferStatsSink();

class Buffer {
 public:
  // Empty buffer: no storage, size 0.
  Buffer() = default;

  // Takes ownership of an existing byte vector without copying.  Implicit on
  // purpose: the codebase is full of call sites producing Bytes rvalues
  // (Writer::TakeBytes(), test literals) that should flow into Buffer-taking
  // APIs with zero churn and zero copies.
  Buffer(Bytes&& bytes);  // NOLINT(google-explicit-constructor)

  // Copies `bytes` into fresh storage (counted in bytes_copied).
  static Buffer CopyOf(std::span<const uint8_t> bytes);

  // Copy/move share storage.  Copy bumps the refcount and the share counter;
  // move transfers the reference and counts nothing.
  Buffer(const Buffer& other);
  Buffer& operator=(const Buffer& other);
  Buffer(Buffer&& other) noexcept = default;
  Buffer& operator=(Buffer&& other) noexcept = default;
  ~Buffer() = default;

  // Zero-copy sub-view of the same storage.
  Buffer Slice(size_t offset, size_t length) const;

  // Clones the visible window into fresh storage and lets `mutator` damage
  // it.  This is the fault-injection boundary: corruption and CRC vetoes are
  // the only writers on the wire path, and each one pays for exactly one
  // copy of the bytes it damages (counted in bytes_copied).
  template <typename Mutator>
  Buffer MutateCopy(Mutator&& mutator) const {
    Bytes clone = CopyOut();
    mutator(clone);
    return Buffer(std::move(clone));
  }

  // Materializes an owned copy of the visible bytes (counted in
  // bytes_copied).  For disk encoders and legacy Bytes-taking APIs.
  Bytes ToBytes() const { return CopyOut(); }

  const uint8_t* data() const { return storage_ ? storage_->bytes.data() + offset_ : nullptr; }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + length_; }
  std::span<const uint8_t> span() const { return {data(), length_}; }
  operator std::span<const uint8_t>() const { return span(); }  // NOLINT

  // Number of Buffer views currently sharing this storage (1 for sole owner,
  // 0 for the empty buffer).  For tests and benchmarks.
  long use_count() const { return storage_ ? storage_.use_count() : 0; }

  // True when this view is exactly a storage block LinkWrap sealed, so its
  // last 4 bytes are known to be the CRC-32 of the rest.
  bool sealed() const {
    return storage_ && storage_->sealed && offset_ == 0 && length_ == storage_->bytes.size();
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size() == b.size() &&
           (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return a.size() == b.size() &&
           (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }
  friend bool operator==(const Bytes& a, const Buffer& b) { return b == a; }

 private:
  // One immutable storage block: the bytes and, when LinkWrap froze them,
  // the seal.  One allocation holds it and the refcount.
  struct Storage {
    Bytes bytes;
    bool sealed = false;
  };

  // The only way to set the seal; LinkWrap has just written the trailer.
  friend Buffer LinkWrap(Bytes body);
  Buffer(Bytes&& bytes, bool sealed);

  Buffer(std::shared_ptr<const Storage> storage, size_t offset, size_t length)
      : storage_(std::move(storage)), offset_(offset), length_(length) {}

  // Physical copy of the visible window, counted in bytes_copied.
  Bytes CopyOut() const;

  std::shared_ptr<const Storage> storage_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

// Builds a Buffer through the familiar Writer interface, so serializers can
// emit straight into what becomes the shared payload: one allocation, zero
// copies between "serialize" and "on the wire".
class BufferBuilder {
 public:
  BufferBuilder() = default;

  Writer& writer() { return writer_; }

  // Consumes the accumulated bytes into an immutable Buffer.  The builder is
  // empty afterwards and may be reused.
  Buffer Build() { return Buffer(writer_.TakeBytes()); }

 private:
  Writer writer_;
};

}  // namespace publishing

#endif  // SRC_COMMON_BUFFER_H_
