#include "src/encoding/pseudo_key.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace bmeh {
namespace {

TEST(PseudoKeyTest, ConstructionAndAccess) {
  PseudoKey k({1u, 2u, 3u});
  EXPECT_EQ(k.dims(), 3);
  EXPECT_EQ(k.component(0), 1u);
  EXPECT_EQ(k.component(1), 2u);
  EXPECT_EQ(k.component(2), 3u);
}

TEST(PseudoKeyTest, SetComponent) {
  PseudoKey k({0u, 0u});
  k.set_component(1, 42u);
  EXPECT_EQ(k.component(1), 42u);
}

TEST(PseudoKeyTest, EqualityRequiresSameDimsAndComponents) {
  EXPECT_EQ(PseudoKey({1u, 2u}), PseudoKey({1u, 2u}));
  EXPECT_NE(PseudoKey({1u, 2u}), PseudoKey({2u, 1u}));
  EXPECT_NE(PseudoKey({1u, 2u}), PseudoKey({1u, 2u, 0u}));
}

TEST(PseudoKeyTest, LexicographicOrder) {
  EXPECT_LT(PseudoKey({1u, 9u}), PseudoKey({2u, 0u}));
  EXPECT_LT(PseudoKey({1u, 2u}), PseudoKey({1u, 3u}));
  EXPECT_FALSE(PseudoKey({1u, 2u}) < PseudoKey({1u, 2u}));
}

TEST(PseudoKeyTest, HashDistinguishesKeys) {
  std::unordered_set<PseudoKey, PseudoKeyHash> set;
  for (uint32_t a = 0; a < 30; ++a) {
    for (uint32_t b = 0; b < 30; ++b) {
      set.insert(PseudoKey({a, b}));
    }
  }
  EXPECT_EQ(set.size(), 900u);
}

TEST(PseudoKeyTest, ToStringDecimal) {
  EXPECT_EQ(PseudoKey({10u, 20u}).ToString(), "(10, 20)");
}

TEST(PseudoKeyTest, ToStringPrintsEveryComponentInFull) {
  EXPECT_EQ(PseudoKey({0u}).ToString(), "(0)");
  EXPECT_EQ(PseudoKey({4294967295u, 0u, 7u}).ToString(),
            "(4294967295, 0, 7)");
  EXPECT_EQ(PseudoKey({1u, 2u, 3u, 4u, 5u, 6u, 7u, 4000000000u}).ToString(),
            "(1, 2, 3, 4, 5, 6, 7, 4000000000)");
}

TEST(PseudoKeyTest, ToBitStringMsbFirst) {
  // Component 0b101 stored as a 32-bit value, printing the first 3 bits of
  // the MSB side of the value 0b101 << 29.
  PseudoKey k({0b101u << 29});
  EXPECT_EQ(k.ToBitString(3), "(101)");
}

TEST(PseudoKeyTest, DefaultIsZeroDims) {
  PseudoKey k;
  EXPECT_EQ(k.dims(), 0);
}

}  // namespace
}  // namespace bmeh
