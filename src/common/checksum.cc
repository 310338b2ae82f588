#include "src/common/checksum.h"

#include <array>
#include <cstddef>

namespace publishing {
namespace {

using Table = std::array<uint32_t, 256>;

// Slicing-by-8 tables for the reflected IEEE polynomial.  kTables[0] is the
// classic byte-at-a-time table; kTables[k][b] is the CRC of byte b followed
// by k zero bytes, so one step folds eight input bytes with eight independent
// lookups instead of a chain of eight dependent ones.
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

// Little-endian u32 composed from bytes: no alignment or aliasing assumption,
// and the same value on any host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace publishing
