// Unit tests for src/common: ids, status, serialization, checksum, rng, flat
// tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/flat_table.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/common/status.h"

namespace publishing {
namespace {

TEST(Ids, OrderingAndEquality) {
  ProcessId a{NodeId{1}, 2};
  ProcessId b{NodeId{1}, 3};
  ProcessId c{NodeId{2}, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ProcessId{NodeId{1}, 2}));
  EXPECT_FALSE(a.IsValid() == false);
  EXPECT_FALSE(ProcessId{}.IsValid());
  EXPECT_FALSE(MessageId{}.IsValid());
  EXPECT_TRUE((MessageId{a, 1}).IsValid());
}

TEST(Ids, ToStringFormats) {
  EXPECT_EQ(ToString(NodeId{7}), "node7");
  EXPECT_EQ(ToString(ProcessId{NodeId{3}, 9}), "pid(3.9)");
  EXPECT_EQ(ToString(MessageId{ProcessId{NodeId{3}, 9}, 42}), "msg(3.9#42)");
}

TEST(Ids, HashDistinguishesComponents) {
  std::set<size_t> hashes;
  for (uint32_t node = 0; node < 10; ++node) {
    for (uint32_t local = 0; local < 10; ++local) {
      hashes.insert(std::hash<ProcessId>{}(ProcessId{NodeId{node}, local}));
    }
  }
  EXPECT_EQ(hashes.size(), 100u) << "hash collisions in a tiny id space";
}

TEST(Status, CodesAndMessages) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err(StatusCode::kNotFound, "thing missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: thing missing");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad(Status(StatusCode::kExhausted, "full"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kExhausted);
}

TEST(Serialization, PrimitivesRoundTrip) {
  Writer w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-123456789);
  w.WriteDouble(3.14159);
  w.WriteBool(true);
  w.WriteString("hello");
  w.WriteProcessId(ProcessId{NodeId{4}, 5});
  w.WriteMessageId(MessageId{ProcessId{NodeId{4}, 5}, 99});

  Reader r(std::span<const uint8_t>(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0xBEEF);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI64(), -123456789);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadProcessId(), (ProcessId{NodeId{4}, 5}));
  EXPECT_EQ(*r.ReadMessageId(), (MessageId{ProcessId{NodeId{4}, 5}, 99}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialization, UnderrunIsCorruptNotCrash) {
  Writer w;
  w.WriteU32(7);
  Reader r(std::span<const uint8_t>(w.bytes().data(), 2));  // Truncated.
  auto value = r.ReadU32();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kCorrupt);
}

TEST(Serialization, BytesLengthPrefixValidated) {
  Writer w;
  w.WriteU32(1000);  // Claims 1000 bytes follow; none do.
  Reader r(std::span<const uint8_t>(w.bytes().data(), w.bytes().size()));
  auto bytes = r.ReadBytes();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kCorrupt);
}

class SerializationSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SerializationSweep, ByteStringsOfAllSizesRoundTrip) {
  const size_t size = GetParam();
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  Writer w;
  w.WriteBytes(std::span<const uint8_t>(data.data(), data.size()));
  Reader r(std::span<const uint8_t>(w.bytes().data(), w.bytes().size()));
  auto out = r.ReadBytes();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializationSweep,
                         ::testing::Values(0, 1, 2, 3, 127, 128, 1024, 65536));

TEST(Checksum, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (the classic check value).
  const char* s = "123456789";
  uint32_t crc = Crc32(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s), 9));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Checksum, IncrementalMatchesOneShot) {
  Bytes data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  const uint32_t one_shot = Crc32(std::span<const uint8_t>(data.data(), data.size()));
  // Splits off the 8-byte stride leave a byte tail in the first call and
  // start the second call's 8-byte steps at an odd offset.
  for (size_t split : {size_t{400}, size_t{3}, size_t{401}, size_t{997}}) {
    SCOPED_TRACE(split);
    uint32_t state = Crc32Init();
    state = Crc32Update(state, std::span<const uint8_t>(data.data(), split));
    state = Crc32Update(state, std::span<const uint8_t>(data.data() + split, data.size() - split));
    EXPECT_EQ(Crc32Final(state), one_shot);
  }
}

// The one-lookup-per-byte loop Crc32Update ran before slicing-by-8: the
// reference the sliced version must match bit for bit.
uint32_t BytewiseCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (uint8_t byte : data) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  return state;
}

TEST(Checksum, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  Rng rng(2024);
  Bytes data(1100 + 8);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const std::span<const uint8_t> slice(data.data() + offset, length);
      ASSERT_EQ(Crc32(slice), BytewiseCrc32Update(0xFFFFFFFFu, slice) ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32Update(0x1EDC6F41u, slice), BytewiseCrc32Update(0x1EDC6F41u, slice))
          << "offset " << offset << " length " << length;
    }
  }
}

class ChecksumCorruption : public ::testing::TestWithParam<size_t> {};

TEST_P(ChecksumCorruption, SingleBitFlipsAreDetected) {
  Bytes data(64, 0x5C);
  const uint32_t clean = Crc32(std::span<const uint8_t>(data.data(), data.size()));
  data[GetParam() / 8] ^= static_cast<uint8_t>(1u << (GetParam() % 8));
  EXPECT_NE(clean, Crc32(std::span<const uint8_t>(data.data(), data.size())));
}

INSTANTIATE_TEST_SUITE_P(BitPositions, ChecksumCorruption,
                         ::testing::Values(0, 1, 7, 8, 100, 255, 256, 511));

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRangeAndCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(55);
  Rng child_a = parent.Fork(1);
  Rng child_b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.NextU64() == child_b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(FlatTable, MixKeyIsTheSplitMix64Finalizer) {
  // The first two outputs of the reference splitmix64 generator seeded with
  // 0.  WAL stripe routing hashes through MixKey, so a change here would
  // move every record to another stripe.
  EXPECT_EQ(MixKey(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(MixKey(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
}

// Ids over 2 origins x 2 locals x 64 sequences.  The space is small enough
// that probe runs collide, wrap past the end of the array and get shifted
// back across it, and it includes MessageId{}, which a free slot holds.
MessageId SmallSpaceId(Rng& rng) {
  return MessageId{ProcessId{NodeId{static_cast<uint32_t>(rng.NextBelow(2))},
                             static_cast<uint32_t>(rng.NextBelow(2))},
                   rng.NextBelow(64)};
}

// A table's keys in iteration order.
template <typename Table>
std::vector<MessageId> KeysInOrder(const Table& table) {
  std::vector<MessageId> keys;
  for (const auto& entry : table) {
    if constexpr (std::is_same_v<std::decay_t<decltype(entry)>, MessageId>) {
      keys.push_back(entry);
    } else {
      keys.push_back(entry.first);
    }
  }
  return keys;
}

template <typename Table>
std::vector<MessageId> SortedKeys(const Table& table) {
  std::vector<MessageId> keys = KeysInOrder(table);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(FlatTable, SetMatchesUnorderedSetUnderRandomOperations) {
  Rng rng(2024);
  FlatSet<MessageId> flat;
  std::unordered_set<MessageId> reference;
  for (int phase = 0; phase < 40; ++phase) {
    // Even phases mostly insert and odd phases mostly erase, so the table
    // grows to most of the id space and drains again.
    const uint64_t insert_share = phase % 2 == 0 ? 6 : 2;
    for (int op = 0; op < 5000; ++op) {
      const MessageId id = SmallSpaceId(rng);
      const uint64_t roll = rng.NextBelow(10);
      if (roll < insert_share) {
        ASSERT_EQ(flat.insert(id), reference.insert(id).second) << ToString(id);
      } else if (roll < 8) {
        ASSERT_EQ(flat.erase(id), reference.erase(id) > 0) << ToString(id);
      } else {
        ASSERT_EQ(flat.contains(id), reference.contains(id)) << ToString(id);
      }
      if (rng.NextBelow(4000) == 0) {
        flat.clear();
        reference.clear();
      }
    }
    ASSERT_EQ(flat.size(), reference.size());
    ASSERT_EQ(SortedKeys(flat), SortedKeys(reference)) << "phase " << phase;
  }
}

TEST(FlatTable, MapMatchesUnorderedMapUnderRandomOperations) {
  Rng rng(4048);
  FlatMap<MessageId, uint64_t> flat;
  std::unordered_map<MessageId, uint64_t> reference;
  for (int phase = 0; phase < 40; ++phase) {
    const uint64_t insert_share = phase % 2 == 0 ? 6 : 2;
    for (int op = 0; op < 5000; ++op) {
      const MessageId id = SmallSpaceId(rng);
      const uint64_t value = rng.NextU64();
      const uint64_t roll = rng.NextBelow(10);
      if (roll < insert_share / 2) {
        flat[id] += value;
        reference[id] += value;
      } else if (roll < insert_share) {
        const auto [stored, added] = flat.try_emplace(id, value);
        const auto [it, ref_added] = reference.try_emplace(id, value);
        ASSERT_EQ(added, ref_added) << ToString(id);
        ASSERT_EQ(*stored, it->second) << ToString(id);
      } else if (roll < 8) {
        ASSERT_EQ(flat.erase(id), reference.erase(id) > 0) << ToString(id);
      } else {
        const uint64_t* found = flat.find(id);
        auto it = reference.find(id);
        ASSERT_EQ(found != nullptr, it != reference.end()) << ToString(id);
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << ToString(id);
        }
      }
      if (rng.NextBelow(4000) == 0) {
        flat.clear();
        reference.clear();
      }
    }
    ASSERT_EQ(flat.size(), reference.size());
    ASSERT_EQ(SortedKeys(flat), SortedKeys(reference)) << "phase " << phase;
    for (const auto& [id, value] : flat) {
      ASSERT_EQ(value, reference.at(id)) << ToString(id);
    }
  }
}

TEST(FlatTable, GrowsFromEmpty) {
  FlatMap<MessageId, uint64_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_EQ(map.find(MessageId{}), nullptr);
  EXPECT_FALSE(map.erase(MessageId{}));
  const ProcessId sender{NodeId{3}, 7};
  for (uint64_t seq = 0; seq < 10000; ++seq) {
    map[MessageId{sender, seq}] = seq * 3;
    ASSERT_EQ(map.size(), seq + 1);
  }
  for (uint64_t seq = 0; seq < 10000; ++seq) {
    const uint64_t* value = map.find(MessageId{sender, seq});
    ASSERT_NE(value, nullptr) << seq;
    EXPECT_EQ(*value, seq * 3);
  }
  EXPECT_EQ(map.find(MessageId{sender, 10000}), nullptr);
  EXPECT_EQ(map.find(MessageId{ProcessId{NodeId{7}, 3}, 1}), nullptr);
  EXPECT_EQ(KeysInOrder(map).size(), map.size());
}

TEST(FlatTable, ReusableAfterClearAndMove) {
  FlatSet<MessageId> set;
  const ProcessId first{NodeId{1}, 1};
  const ProcessId second{NodeId{2}, 2};
  for (uint64_t seq = 1; seq <= 500; ++seq) {
    set.insert(MessageId{first, seq});
  }
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.begin(), set.end());
  for (uint64_t seq = 1; seq <= 500; ++seq) {
    ASSERT_FALSE(set.contains(MessageId{first, seq})) << seq;
  }
  for (uint64_t seq = 1; seq <= 300; ++seq) {
    ASSERT_TRUE(set.insert(MessageId{second, seq}));
  }
  EXPECT_EQ(set.size(), 300u);
  EXPECT_TRUE(set.contains(MessageId{second, 300}));
  EXPECT_FALSE(set.contains(MessageId{first, 300}));

  // A moved-from table is empty and usable again.
  FlatSet<MessageId> taken = std::move(set);
  EXPECT_EQ(taken.size(), 300u);
  EXPECT_EQ(set.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(set.begin(), set.end());
  EXPECT_TRUE(set.insert(MessageId{first, 1}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatTable, SameOperationsGiveSameIterationOrder) {
  auto feed = [](FlatSet<MessageId>& set) {
    Rng rng(77);
    for (int op = 0; op < 20000; ++op) {
      const MessageId id = SmallSpaceId(rng);
      if (rng.NextBelow(3) == 0) {
        set.erase(id);
      } else {
        set.insert(id);
      }
    }
  };
  FlatSet<MessageId> a;
  FlatSet<MessageId> b;
  feed(a);
  feed(b);
  const std::vector<MessageId> order_a = KeysInOrder(a);
  EXPECT_EQ(KeysInOrder(b), order_a);
  ASSERT_FALSE(order_a.empty());
  // Slot order, not key order: the contents are the same set either way.
  EXPECT_EQ(SortedKeys(a), SortedKeys(b));
  const FlatSet<MessageId> copy = a;
  EXPECT_EQ(KeysInOrder(copy), order_a);
}

}  // namespace
}  // namespace publishing
