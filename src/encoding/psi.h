// The ψ digit order: the one definition of how pseudo-keys are ordered.
//
// The paper addresses a record by its interleaved ψ digit string: bit 1
// of dimension 1, bit 1 of dimension 2, ..., bit 1 of dimension d, then
// bit 2 of every dimension, and so on (MSB first).  A dimension whose
// width is exhausted contributes no digit in later rounds, which is the
// paper's treatment of shorter digit strings.  This is the order in which
// the directory distinguishes keys under the cyclic split schedule.
//
// Shard routing (the first digits), range results (the whole string) and
// bulk-load order all use the functions here; nothing else walks ψ digits.

#ifndef BMEH_ENCODING_PSI_H_
#define BMEH_ENCODING_PSI_H_

#include <bit>
#include <cstdint>

#include "src/encoding/key_schema.h"

namespace bmeh {

/// \brief The first `n` (0..32) digits of `key`'s ψ string, right-aligned.
/// A schema with fewer than `n` digits yields all of them.
inline uint32_t PsiPrefix(const PseudoKey& key, const KeySchema& schema,
                          int n) {
  BMEH_DCHECK(n >= 0 && n <= 32);
  uint32_t out = 0;
  int got = 0;
  for (int i = 0; got < n && i < 32; ++i) {
    for (int j = 0; got < n && j < schema.dims(); ++j) {
      const int w = schema.width(j);
      if (i >= w) continue;  // dimension j is exhausted
      out = (out << 1) | ((key.component(j) >> (w - 1 - i)) & 1u);
      ++got;
    }
  }
  return out;
}

/// \brief Strict weak order by the whole ψ digit string.
///
/// O(d) without encoding: in each dimension j the first differing bit is
/// i_j = countl_zero((a_j ^ b_j) aligned to the MSB), and the string's
/// first differing digit is the smallest (i_j, j).  `a` is less iff its
/// bit there is 0.  An exhausted dimension never wins: a bit at i_j is
/// inside dimension j's width by construction.
inline bool PsiLess(const PseudoKey& a, const PseudoKey& b,
                    const KeySchema& schema) {
  int first_i = 32;
  int first_j = -1;
  for (int j = 0; j < schema.dims(); ++j) {
    const uint32_t diff = (a.component(j) ^ b.component(j))
                          << (32 - schema.width(j));
    const int i = std::countl_zero(diff);
    if (i < first_i) {  // strict: on a tie the lower dimension comes first
      first_i = i;
      first_j = j;
    }
  }
  if (first_j < 0) return false;
  const uint32_t aligned = a.component(first_j)
                           << (32 - schema.width(first_j));
  return ((aligned << first_i) >> 31) == 0;
}

}  // namespace bmeh

#endif  // BMEH_ENCODING_PSI_H_
