// Bit manipulation helpers shared by the hashing directories.
//
// Convention used throughout the library: a pseudo-key component is a
// fixed-width unsigned value of `width` bits where *bit 1 is the most
// significant bit* (the paper writes keys as x1 x2 x3 ... xw, MSB first).
// "Offsets" count bits already consumed from the MSB side.

#ifndef BMEH_COMMON_BIT_UTIL_H_
#define BMEH_COMMON_BIT_UTIL_H_

#include <cstdint>

#include "src/common/logging.h"

namespace bmeh {
namespace bit_util {

/// \brief Extracts `count` bits of `v` starting `offset` bits below the MSB
/// of a `width`-bit value, returned right-aligned.
///
/// ExtractBits(0b1011'0000...0 (width=32), offset=1, count=3) == 0b011.
/// count == 0 yields 0.
inline uint64_t ExtractBits(uint64_t v, int width, int offset, int count) {
  BMEH_DCHECK(width >= 1 && width <= 64);
  BMEH_DCHECK(offset >= 0 && count >= 0 && offset + count <= width);
  if (count == 0) return 0;
  int shift = width - offset - count;
  uint64_t mask = (count >= 64) ? ~uint64_t{0} : ((uint64_t{1} << count) - 1);
  return (v >> shift) & mask;
}

/// \brief The single bit `offset` bits below the MSB of a `width`-bit value.
inline int BitAt(uint64_t v, int width, int offset) {
  return static_cast<int>(ExtractBits(v, width, offset, 1));
}

/// \brief First `h` bits (MSB side) of an `H`-bit index value `i`.
///
/// This is the extendible-hashing "group prefix": directory cells whose
/// indexes share the first h bits form one group.
inline uint64_t IndexPrefix(uint64_t i, int H, int h) {
  BMEH_DCHECK(h >= 0 && h <= H && H <= 63);
  return i >> (H - h);
}

/// \brief Floor of log2; requires v > 0.
inline int FloorLog2(uint64_t v) {
  BMEH_DCHECK(v > 0);
  return 63 - __builtin_clzll(v);
}

/// \brief Ceil of log2; requires v > 0. CeilLog2(1) == 0.
inline int CeilLog2(uint64_t v) {
  BMEH_DCHECK(v > 0);
  return (v == 1) ? 0 : FloorLog2(v - 1) + 1;
}

/// \brief True iff v is a power of two (v > 0).
inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// \brief 2^e as uint64 (e in [0, 63]).
inline uint64_t Pow2(int e) {
  BMEH_DCHECK(e >= 0 && e <= 63);
  return uint64_t{1} << e;
}

/// \brief Rebuilds a `width`-bit value: keeps bits [0, offset) of `v`, sets
/// bits [offset, offset+len) to `value`, and fills the remaining low bits
/// with ones (ones_below=true) or zeros.  Used to clamp range-query bounds
/// to a directory cell's region.
inline uint64_t ComposeBits(uint64_t v, int width, int offset, int len,
                            uint64_t value, bool ones_below) {
  BMEH_DCHECK(offset >= 0 && len >= 0 && offset + len <= width);
  const int below = width - offset - len;
  uint64_t out = 0;
  if (offset > 0) out = ExtractBits(v, width, 0, offset);
  out = (out << len) | value;
  out <<= below;
  if (ones_below && below > 0) out |= Pow2(below) - 1;
  return out;
}

/// \brief Reverses the low `width` bits of v (bit-reversal permutation).
uint64_t ReverseBits(uint64_t v, int width);

/// \brief Interleaves the bits of the components MSB-first (z-order /
/// Morton code over the first `width` bits of each of `d` components,
/// taken from the MSB of each 32-bit word).  tests/psi_test.cc uses it as
/// the independent oracle for PsiLess and PsiPrefix (src/encoding/psi.h)
/// on equal widths.
uint64_t MortonInterleave(const uint32_t* components, int d, int width);

}  // namespace bit_util
}  // namespace bmeh

#endif  // BMEH_COMMON_BIT_UTIL_H_
