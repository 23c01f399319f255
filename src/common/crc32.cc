#include "src/common/crc32.h"

#include <array>

#include "src/common/bytes.h"

namespace bmeh {

namespace {

constexpr uint32_t kPoly = 0xedb88320u;  // reflected 0x04C11DB7

using Table = std::array<uint32_t, 256>;

// Slicing-by-8: kTables[0] is the classic byte table, and kTables[k][i] is
// the CRC register after byte i is followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    // The register folds into the first four bytes only, so the lookups
    // of the last four need not wait for it.
    const uint32_t lo = GetU32(p) ^ c;
    const uint32_t hi = GetU32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace bmeh
