#include "src/encoding/key_schema.h"

#include <gtest/gtest.h>

#include <vector>

namespace bmeh {
namespace {

TEST(KeySchemaTest, UniformWidths) {
  KeySchema s(3, 31);
  EXPECT_EQ(s.dims(), 3);
  EXPECT_EQ(s.width(0), 31);
  EXPECT_EQ(s.width(2), 31);
  EXPECT_EQ(s.total_bits(), 93);
}

TEST(KeySchemaTest, PerDimensionWidths) {
  const int widths[] = {4, 3};
  KeySchema s{std::span<const int>(widths, 2)};
  EXPECT_EQ(s.dims(), 2);
  EXPECT_EQ(s.width(0), 4);
  EXPECT_EQ(s.width(1), 3);
  EXPECT_EQ(s.total_bits(), 7);
  EXPECT_EQ(s.max_component(0), 15u);
  EXPECT_EQ(s.max_component(1), 7u);
}

TEST(KeySchemaTest, MaxComponentFullWidth) {
  KeySchema s(1, 32);
  EXPECT_EQ(s.max_component(0), ~uint32_t{0});
}

TEST(KeySchemaTest, ValidateAcceptsInRange) {
  KeySchema s(2, 4);
  EXPECT_TRUE(s.Validate(PseudoKey({15u, 0u})).ok());
}

TEST(KeySchemaTest, ValidateRejectsWrongDims) {
  KeySchema s(2, 4);
  EXPECT_TRUE(s.Validate(PseudoKey({1u})).IsInvalid());
  EXPECT_TRUE(s.Validate(PseudoKey({1u, 2u, 3u})).IsInvalid());
}

TEST(KeySchemaTest, ValidateRejectsOutOfRangeComponent) {
  KeySchema s(2, 4);
  EXPECT_TRUE(s.Validate(PseudoKey({16u, 0u})).IsInvalid());
}

TEST(KeySchemaTest, Equality) {
  EXPECT_EQ(KeySchema(2, 31), KeySchema(2, 31));
  EXPECT_FALSE(KeySchema(2, 31) == KeySchema(3, 31));
  EXPECT_FALSE(KeySchema(2, 31) == KeySchema(2, 30));
}

TEST(KeySchemaTest, ToStringMentionsShape) {
  EXPECT_EQ(KeySchema(2, 31).ToString(), "KeySchema(d=2, widths=[31,31])");
}

TEST(KeySchemaDeathTest, RejectsBadShapes) {
  EXPECT_DEATH({ KeySchema bad(0, 31); }, "dims");
  EXPECT_DEATH({ KeySchema bad(9, 31); }, "dims");
  EXPECT_DEATH({ KeySchema bad(2, 0); }, "width");
  EXPECT_DEATH({ KeySchema bad(2, 33); }, "width");
}

// The factory refuses, without dying, what the constructors die on: a
// decoder hands it widths read from a file.
TEST(KeySchemaTest, FromWidthsRefusesBadShapes) {
  const std::vector<int> ok = {1, 32, 7, 31, 3, 3, 3, 3};
  for (size_t d = 1; d <= ok.size(); ++d) {
    auto s = KeySchema::FromWidths(std::span<const int>(ok.data(), d));
    ASSERT_TRUE(s.ok()) << d << ": " << s.status();
    EXPECT_EQ(s->dims(), static_cast<int>(d));
    EXPECT_EQ(s->width(d - 1), ok[d - 1]);
  }
  const std::vector<std::vector<int>> bad = {
      {}, {31, 31, 31, 31, 31, 31, 31, 31, 31}, {0, 31}, {40, 3}, {3, 33},
      {-1}};
  for (const std::vector<int>& widths : bad) {
    const Status st = KeySchema::FromWidths(widths).status();
    EXPECT_TRUE(st.IsInvalid()) << widths.size() << ": " << st;
  }
  EXPECT_EQ(KeySchema::FromWidths(std::vector<int>{40, 3}).status().message(),
            "width must be in [1, 32], got 40");
}

}  // namespace
}  // namespace bmeh
