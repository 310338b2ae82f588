// Slab-pooled intrusive binary heap of pending events — the one event queue
// of a simulation engine (src/sim/simulator.h).
//
// Layout: pending events live in a slab of pooled nodes (callback stored
// inline via SimCallback's small-buffer optimization) indexed by an intrusive
// binary heap.  Pops move the callback out of the node instead of copying a
// queue entry, cancellation is eager (O(log n) heap removal keyed by a
// generation-stamped handle, so a stale handle can never cancel a recycled
// slot), and freed nodes return to a free list.  Memory is therefore bounded
// by the peak number of *pending* events, not by the total number ever
// scheduled.
//
// Ordering: the heap key is (when, domain, seq).  Every node records the
// domain that scheduled it or that a handoff targets.  The engine numbers
// every event from one monotonically increasing sequence, preserving the
// same-instant FIFO guarantee within a domain.  Cross-domain handoffs carry
// kHandoffSeqBit | sequence, which sorts every handoff after every local
// event of its domain at the same instant (the bit dominates) while keeping
// handoffs in the order they were sent.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace publishing {

// Token for cancelling a scheduled event.  Packs slab slot + slot generation;
// the generation makes handles single-use: once the event fires or is
// cancelled the slot's generation advances and the old handle goes stale.
// One heap serves every domain, so a handle names exactly one event.
struct EventId {
  uint64_t value = 0;

  bool IsValid() const { return value != 0; }

  friend bool operator==(const EventId&, const EventId&) = default;
};

// Sequence-number bit reserved for cross-domain handoff events.  At equal
// `when` within one domain, every handoff (bit set) sorts after every locally
// scheduled event (bit clear), and handoffs sort among themselves by the
// sequence in the low bits, which is their send order.
inline constexpr uint64_t kHandoffSeqBit = uint64_t{1} << 63;

class EventHeap {
 public:
  using Action = SimCallback;

  EventHeap() = default;
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;

  // Inserts `action` keyed by (when, domain, seq).  The caller owns
  // sequence-number assignment.
  EventId Insert(SimTime when, uint32_t domain, uint64_t seq, Action action) {
    const uint32_t slot = AcquireSlot();
    EventNode& node = slab_[slot];
    node.when = when;
    node.seq = seq;
    node.domain = domain;
    node.action = std::move(action);
    node.heap_pos = static_cast<uint32_t>(heap_.size());
    heap_.push_back(slot);
    SiftUp(node.heap_pos);
    return EventId{MakeHandle(slot, node.generation)};
  }

  // Cancels a pending event: removes it from the heap immediately, recycles
  // its slot and stores the event's domain in `*domain`.  Returns false if
  // the handle is stale (the event already ran or was already cancelled) or
  // never existed.
  bool Cancel(EventId id, uint32_t* domain) {
    if (!id.IsValid()) {
      return false;
    }
    const uint32_t slot = HandleSlot(id.value);
    if (slot >= slab_.size()) {
      return false;
    }
    EventNode& node = slab_[slot];
    if (node.heap_pos == kNpos || node.generation != HandleGeneration(id.value)) {
      return false;
    }
    *domain = node.domain;
    RemoveFromHeap(node.heap_pos);
    node.action = Action();
    ReleaseSlot(slot);
    return true;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Number of slab nodes ever materialized.  Bounded by the peak number of
  // simultaneously pending events.
  size_t slab_slots() const { return slab_.size(); }

  SimTime top_when() const {
    assert(!heap_.empty());
    return slab_[heap_.front()].when;
  }

  // Pops the earliest event, moving its callback out and retiring the slot
  // before returning: the action may schedule (growing the slab), cancel, or
  // re-enter the queue, and a handle to this event must already read as
  // fired by the time the caller invokes it.
  Action PopTop(SimTime* when, uint32_t* domain) {
    assert(!heap_.empty());
    const uint32_t slot = heap_.front();
    EventNode& node = slab_[slot];
    *when = node.when;
    *domain = node.domain;
    Action action = std::move(node.action);
    RemoveFromHeap(0);
    ReleaseSlot(slot);
    return action;
  }

 private:
  static constexpr uint32_t kNpos = UINT32_MAX;

  struct EventNode {
    SimTime when = 0;
    uint64_t seq = 0;        // (band | order); breaks same-instant ties
    uint32_t generation = 0; // bumped on release; staleness check for handles
    uint32_t heap_pos = kNpos;
    uint32_t next_free = kNpos;
    uint32_t domain = 0;     // orders same-instant events across domains
    Action action;
  };

  static uint64_t MakeHandle(uint32_t slot, uint32_t generation) {
    // +1 keeps value != 0 so EventId::IsValid stays "nonzero".
    return (uint64_t{generation} << 32) | (uint64_t{slot} + 1);
  }
  static uint32_t HandleSlot(uint64_t value) {
    return static_cast<uint32_t>((value & 0xFFFFFFFFu) - 1);
  }
  static uint32_t HandleGeneration(uint64_t value) { return static_cast<uint32_t>(value >> 32); }

  uint32_t AcquireSlot() {
    if (free_head_ != kNpos) {
      const uint32_t slot = free_head_;
      free_head_ = slab_[slot].next_free;
      slab_[slot].next_free = kNpos;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<uint32_t>(slab_.size() - 1);
  }

  void ReleaseSlot(uint32_t slot) {
    EventNode& node = slab_[slot];
    node.heap_pos = kNpos;
    ++node.generation;
    node.next_free = free_head_;
    free_head_ = slot;
  }

  // True if the event in slot `a` fires before the one in slot `b`.
  bool Before(uint32_t a, uint32_t b) const {
    const EventNode& na = slab_[a];
    const EventNode& nb = slab_[b];
    if (na.when != nb.when) {
      return na.when < nb.when;
    }
    if (na.domain != nb.domain) {
      return na.domain < nb.domain;
    }
    return na.seq < nb.seq;
  }

  void SiftUp(uint32_t pos) {
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / 2;
      if (!Before(heap_[pos], heap_[parent])) {
        break;
      }
      SwapHeap(pos, parent);
      pos = parent;
    }
  }

  void SiftDown(uint32_t pos) {
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    for (;;) {
      uint32_t best = pos;
      const uint32_t left = 2 * pos + 1;
      const uint32_t right = left + 1;
      if (left < n && Before(heap_[left], heap_[best])) {
        best = left;
      }
      if (right < n && Before(heap_[right], heap_[best])) {
        best = right;
      }
      if (best == pos) {
        break;
      }
      SwapHeap(pos, best);
      pos = best;
    }
  }

  void SwapHeap(uint32_t a, uint32_t b) {
    std::swap(heap_[a], heap_[b]);
    slab_[heap_[a]].heap_pos = a;
    slab_[heap_[b]].heap_pos = b;
  }

  // Removes the entry at heap position `pos`, restoring the heap property.
  void RemoveFromHeap(uint32_t pos) {
    const uint32_t last = static_cast<uint32_t>(heap_.size() - 1);
    if (pos != last) {
      SwapHeap(pos, last);
      heap_.pop_back();
      SiftDown(pos);
      SiftUp(pos);
    } else {
      heap_.pop_back();
    }
  }

  std::vector<EventNode> slab_;
  std::vector<uint32_t> heap_;  // slab indices ordered by (when, domain, seq)
  uint32_t free_head_ = kNpos;
};

}  // namespace publishing

#endif  // SRC_SIM_EVENT_QUEUE_H_
