// The ψ digit order (src/encoding/psi.h): PsiLess and PsiPrefix against
// the Morton-code oracle on equal widths, against the digit string
// written out on mixed widths, and on hand-computed digit strings.

#include "src/encoding/psi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/random.h"

namespace bmeh {
namespace {

KeySchema Widths(std::vector<int> widths) {
  return KeySchema(std::span<const int>(widths));
}

// Random keys in pairs that share a random-length prefix in every
// dimension, so comparisons reach deep into the digit string.
std::vector<PseudoKey> PairedKeys(const KeySchema& schema, uint64_t seed,
                                  int pairs) {
  Rng rng(seed);
  std::vector<PseudoKey> keys;
  for (int p = 0; p < pairs; ++p) {
    PseudoKey a(std::vector<uint32_t>(schema.dims(), 0));
    PseudoKey b = a;
    for (int j = 0; j < schema.dims(); ++j) {
      const uint32_t max = schema.max_component(j);
      const uint32_t v = static_cast<uint32_t>(rng.Next64()) & max;
      const int w = schema.width(j);
      const int keep = static_cast<int>(rng.UniformRange(0, w));
      const uint32_t low = static_cast<uint32_t>(uint64_t{max} >> keep);
      a.set_component(j, v);
      b.set_component(j, (v & ~low) |
                             (static_cast<uint32_t>(rng.Next64()) & low));
    }
    keys.push_back(a);
    keys.push_back(b);
  }
  return keys;
}

// MortonInterleave reads each component from the MSB of its 32-bit word.
uint64_t Morton(const PseudoKey& key, const KeySchema& schema) {
  uint32_t comps[kMaxDims];
  for (int j = 0; j < schema.dims(); ++j) {
    comps[j] = key.component(j) << (32 - schema.width(j));
  }
  return bit_util::MortonInterleave(comps, schema.dims(), schema.width(0));
}

// The paper's definition written out: round-robin over the dimensions,
// MSB first, skipping a dimension once its width is exhausted.
std::string Digits(const PseudoKey& key, const KeySchema& schema) {
  std::string s;
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < schema.dims(); ++j) {
      const int w = schema.width(j);
      if (i < w) s += ((key.component(j) >> (w - 1 - i)) & 1u) ? '1' : '0';
    }
  }
  return s;
}

TEST(PsiTest, EqualWidthsMatchTheMortonCode) {
  for (const KeySchema& schema : {KeySchema(2, 31), KeySchema(3, 20),
                                  KeySchema(4, 16)}) {
    const int total = schema.total_bits();
    const auto keys = PairedKeys(schema, 20261018, 500);
    for (size_t k = 0; k + 1 < keys.size(); ++k) {
      const PseudoKey& a = keys[k];
      const PseudoKey& b = keys[k + 1];
      EXPECT_EQ(PsiLess(a, b, schema), Morton(a, schema) < Morton(b, schema))
          << schema.ToString() << " " << a.ToString() << " " << b.ToString();
      EXPECT_EQ(PsiLess(b, a, schema), Morton(b, schema) < Morton(a, schema));
      EXPECT_EQ(PsiPrefix(a, schema, 0), 0u);
      for (int n = 1; n <= 32; ++n) {
        ASSERT_EQ(PsiPrefix(a, schema, n), Morton(a, schema) >> (total - n))
            << schema.ToString() << " " << a.ToString() << " n=" << n;
      }
    }
  }
}

TEST(PsiTest, MixedWidthsFollowTheDigitString) {
  for (const KeySchema& schema :
       {Widths({3, 1}), Widths({31, 7, 20}),
        Widths({5, 9, 2, 17, 32, 1, 8, 30}), KeySchema(8, 32)}) {
    const auto keys = PairedKeys(schema, 20261019, 60);
    std::vector<std::string> digits;
    for (const PseudoKey& k : keys) digits.push_back(Digits(k, schema));
    const int max_n = std::min(12, schema.total_bits());
    for (size_t x = 0; x < keys.size(); ++x) {
      const PseudoKey& a = keys[x];
      const std::string& da = digits[x];
      EXPECT_FALSE(PsiLess(a, a, schema));
      for (int n = 0; n <= 32; ++n) {
        const std::string head = da.substr(0, n);
        ASSERT_EQ(PsiPrefix(a, schema, n),
                  head.empty() ? 0u : std::stoul(head, nullptr, 2))
            << schema.ToString() << " " << a.ToString() << " n=" << n;
      }
      for (size_t y = 0; y < keys.size(); ++y) {
        const PseudoKey& b = keys[y];
        const bool less = PsiLess(a, b, schema);
        EXPECT_EQ(less, da < digits[y])
            << schema.ToString() << " " << a.ToString() << " "
            << b.ToString();
        if (less) {
          EXPECT_FALSE(PsiLess(b, a, schema));  // asymmetric
          for (int n = 0; n <= max_n; ++n) {
            EXPECT_LE(PsiPrefix(a, schema, n), PsiPrefix(b, schema, n));
          }
        }
      }
    }
  }
}

TEST(PsiTest, HandComputedDigitStrings) {
  // widths 3 and 1: the digit string is k0[2] k1[0] k0[1] k0[0] (bit 2
  // is the MSB) — after round 0, dimension 1 has no digits left.
  const KeySchema schema = Widths({3, 1});
  const PseudoKey k0011({0b011u, 0u});
  const PseudoKey k0101({0b001u, 1u});
  const PseudoKey k1010({0b110u, 0u});
  const PseudoKey k1100({0b100u, 1u});
  EXPECT_EQ(PsiPrefix(k0011, schema, 4), 0b0011u);
  EXPECT_EQ(PsiPrefix(k0101, schema, 4), 0b0101u);
  EXPECT_EQ(PsiPrefix(k1010, schema, 4), 0b1010u);
  EXPECT_EQ(PsiPrefix(k1100, schema, 4), 0b1100u);
  EXPECT_EQ(PsiPrefix(k1010, schema, 3), 0b101u);
  // A schema with fewer digits than asked for yields all of them.
  EXPECT_EQ(PsiPrefix(k1010, schema, 9), 0b1010u);
  // k0 of the first key is larger, but k1's round-0 digit decides first.
  EXPECT_TRUE(PsiLess(k0011, k0101, schema));
  EXPECT_TRUE(PsiLess(k0101, k1010, schema));
  EXPECT_TRUE(PsiLess(k1010, k1100, schema));
  EXPECT_FALSE(PsiLess(k0101, k0011, schema));
}

}  // namespace
}  // namespace bmeh
