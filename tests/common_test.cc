// Unit tests for src/common: ids, status, serialization, checksum, rng.

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/common/checksum.h"
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

}  // namespace
}  // namespace publishing
