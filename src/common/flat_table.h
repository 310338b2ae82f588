// Flat open-addressing hash tables: FlatSet<K> and FlatMap<K, V>.
//
// Every published message passes through several tables keyed by its
// MessageId: the transport's duplicate cache, the recorder's retransmit
// filter, re-read filter and replay index, the kernels' replay filters, the
// lifecycle index and the invariant oracle.  Node-based std::unordered_*
// containers pay one allocation per element and a pointer chase per bucket
// chain.  These tables keep every element inline in one array:
//   * linear probing over a power-of-two array kept at most 3/4 full, with
//     no per-slot flag: a free slot holds the value-initialised key;
//   * backward-shift deletion, so erasing leaves no tombstones and a FIFO
//     cache that inserts and erases forever never degrades;
//   * keys hashed through MixKey (the SplitMix64 finalizer), whose low bits
//     are well mixed, so the home slot is simply hash & mask.
//
// Iteration order is a function of the sequence of operations alone, so two
// tables fed the same operations iterate in the same order.  It is not key
// order, and it changes when the array grows: callers that export contents
// must sort them or not depend on the order.
//
// Elements live by value in a std::vector, so copy, move and destruction are
// the vector's.  Any insert or erase may move elements: a pointer returned by
// find() or try_emplace() is valid only until the next insert or erase.

#ifndef SRC_COMMON_FLAT_TABLE_H_
#define SRC_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/ids.h"

namespace publishing {

// SplitMix64 finalizer: a cheap, well-mixed integer hash.  std::hash is
// implementation defined (often identity for integers), which would map
// consecutive ids onto consecutive slots or WAL stripes.
constexpr uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash functors for the flat tables' key types.
template <typename K>
struct FlatHash;

template <>
struct FlatHash<uint64_t> {
  uint64_t operator()(uint64_t key) const { return MixKey(key); }
};

template <>
struct FlatHash<MessageId> {
  uint64_t operator()(const MessageId& id) const {
    // Multiplying by an odd constant spreads the sequence over all 64 bits,
    // so it seldom cancels the sender's bits before the final mix.
    const uint64_t sender = uint64_t{id.sender.origin.value} << 32 | id.sender.local;
    return MixKey(sender ^ id.sequence * 0x9e3779b97f4a7c15ULL);
  }
};

namespace flat_table_internal {

// Key extractors: a set stores the key itself, a map a (key, value) pair.
struct SelfKey {
  template <typename E>
  E& operator()(E& entry) const {
    return entry;
  }
};
struct FirstKey {
  template <typename E>
  auto& operator()(E& entry) const {
    return entry.first;
  }
};

// The open-addressing core FlatSet and FlatMap share.  A free slot holds
// the value-initialised key K{}, so a slot costs only its entry.  K{} can
// still be stored: its entry lives in one extra slot after the probed array,
// which no probe reaches.
template <typename K, typename Entry, typename KeyOf>
class Table {
 public:
  // Forward iteration over the stored entries, in slot order.
  class iterator {
   public:
    const Entry& operator*() const { return table_->slots_[index_]; }
    const Entry* operator->() const { return &table_->slots_[index_]; }
    iterator& operator++() {
      index_ = table_->NextUsed(index_ + 1);
      return *this;
    }
    bool operator==(const iterator& other) const { return index_ == other.index_; }

   private:
    friend class Table;
    iterator(const Table* table, size_t index) : table_(table), index_(index) {}
    const Table* table_;
    size_t index_;
  };

  iterator begin() const { return iterator(this, NextUsed(0)); }
  iterator end() const { return iterator(this, slots_.size()); }

  // A moved-from table has no slots; its stale count is ignored.
  size_t size() const { return slots_.empty() ? 0 : size_; }

  // Empties the table but keeps its array for reuse.
  void clear() {
    if (size() == 0) {
      return;
    }
    std::fill(slots_.begin(), slots_.end(), Entry{});
    zero_key_used_ = false;
    size_ = 0;
  }

  // Sizes the array so `count` entries fit without growing.
  void reserve(size_t count) {
    size_t capacity = slots_.empty() ? 0 : Capacity();
    if (count * 4 <= capacity * 3) {
      return;
    }
    capacity = std::max(capacity, kMinCapacity);
    while (capacity * 3 < count * 4) {
      capacity *= 2;
    }
    Rehash(capacity);
  }

 protected:
  static constexpr size_t kNone = SIZE_MAX;

  Entry& EntryAt(size_t index) { return slots_[index]; }
  const Entry& EntryAt(size_t index) const { return slots_[index]; }

  // Index of `key`'s slot, or kNone.
  size_t Find(const K& key) const {
    if (slots_.empty()) {
      return kNone;
    }
    const size_t index = Locate(key);
    return Used(index) ? index : kNone;
  }

  // Index of `key`'s slot, adding it with a value-initialised entry if it is
  // absent, and whether it was added.
  std::pair<size_t, bool> FindOrAdd(const K& key) {
    if (!slots_.empty()) {
      const size_t index = Locate(key);
      if (Used(index)) {
        return {index, false};
      }
      if ((size_ + 1) * 4 <= Capacity() * 3) {
        return {Occupy(index, key), true};
      }
    }
    Rehash(slots_.empty() ? kMinCapacity : Capacity() * 2);
    return {Occupy(Locate(key), key), true};
  }

  bool Erase(const K& key) {
    size_t hole = Find(key);
    if (hole == kNone) {
      return false;
    }
    if (hole == ZeroKeyIndex()) {
      zero_key_used_ = false;
    } else {
      // Backward shift: each later entry of the probe run moves into the
      // hole unless that would put it before its home slot.  Every
      // remaining run stays unbroken, so no tombstone is needed.
      const size_t mask = Capacity() - 1;
      for (size_t i = (hole + 1) & mask; !IsFreeKey(KeyOf{}(slots_[i])); i = (i + 1) & mask) {
        const size_t home = FlatHash<K>{}(KeyOf{}(slots_[i])) & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
          slots_[hole] = std::move(slots_[i]);
          hole = i;
        }
      }
    }
    slots_[hole] = Entry{};
    --size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  static bool IsFreeKey(const K& key) { return key == K{}; }

  // slots_ holds the 2^k probed slots, then the zero key's slot.
  size_t Capacity() const { return slots_.size() - 1; }
  size_t ZeroKeyIndex() const { return slots_.size() - 1; }
  bool Used(size_t index) const {
    return index == ZeroKeyIndex() ? zero_key_used_ : !IsFreeKey(KeyOf{}(slots_[index]));
  }
  size_t NextUsed(size_t index) const {
    while (index < slots_.size() && !Used(index)) {
      ++index;
    }
    return index;
  }

  // The slot holding `key`, or the one it would take: for a probed key, the
  // free slot that ends its run.  The load cap guarantees a free slot, so
  // the walk terminates.
  size_t Locate(const K& key) const {
    if (IsFreeKey(key)) {
      return ZeroKeyIndex();
    }
    const size_t mask = Capacity() - 1;
    size_t index = FlatHash<K>{}(key) & mask;
    for (;;) {
      const K& held = KeyOf{}(slots_[index]);
      if (held == key || IsFreeKey(held)) {
        return index;
      }
      index = (index + 1) & mask;
    }
  }

  size_t Occupy(size_t index, const K& key) {
    if (index == ZeroKeyIndex()) {
      zero_key_used_ = true;
    } else {
      KeyOf{}(slots_[index]) = key;
    }
    ++size_;
    return index;
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> old = std::exchange(slots_, std::vector<Entry>(capacity + 1));
    const bool zero_key = !old.empty() && zero_key_used_;
    zero_key_used_ = false;
    size_ = 0;
    for (size_t i = 0; i + 1 < old.size(); ++i) {
      if (!IsFreeKey(KeyOf{}(old[i]))) {
        slots_[Locate(KeyOf{}(old[i]))] = std::move(old[i]);
        ++size_;
      }
    }
    if (zero_key) {
      slots_.back() = std::move(old.back());
      zero_key_used_ = true;
      ++size_;
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
  bool zero_key_used_ = false;
};

}  // namespace flat_table_internal

template <typename K>
class FlatSet : public flat_table_internal::Table<K, K, flat_table_internal::SelfKey> {
 public:
  // Adds `key`; false if it was already present.
  bool insert(const K& key) { return this->FindOrAdd(key).second; }
  bool contains(const K& key) const { return this->Find(key) != this->kNone; }
  // Removes `key`; false if it was absent.
  bool erase(const K& key) { return this->Erase(key); }
};

template <typename K, typename V>
class FlatMap
    : public flat_table_internal::Table<K, std::pair<K, V>, flat_table_internal::FirstKey> {
 public:
  // The value for `key`, value-initialised first if absent.
  V& operator[](const K& key) { return this->EntryAt(this->FindOrAdd(key).first).second; }

  // Stores `value` under `key` unless the key is present.  Returns the
  // stored value and whether this call inserted it.
  std::pair<V*, bool> try_emplace(const K& key, V value) {
    const auto [index, added] = this->FindOrAdd(key);
    V& stored = this->EntryAt(index).second;
    if (added) {
      stored = std::move(value);
    }
    return {&stored, added};
  }

  // The value for `key`, or nullptr.
  V* find(const K& key) {
    const size_t index = this->Find(key);
    return index == this->kNone ? nullptr : &this->EntryAt(index).second;
  }
  const V* find(const K& key) const {
    const size_t index = this->Find(key);
    return index == this->kNone ? nullptr : &this->EntryAt(index).second;
  }
  // Removes `key`; false if it was absent.
  bool erase(const K& key) { return this->Erase(key); }
};

}  // namespace publishing

#endif  // SRC_COMMON_FLAT_TABLE_H_
