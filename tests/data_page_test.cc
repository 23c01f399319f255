#include "src/pagestore/data_page.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace bmeh {
namespace {

Record R(uint32_t a, uint32_t b, uint64_t payload) {
  return Record{PseudoKey({a, b}), payload};
}

TEST(DataPageTest, InsertFindLookup) {
  DataPage page(1, 4);
  ASSERT_TRUE(page.Insert(R(1, 2, 100)).ok());
  ASSERT_TRUE(page.Insert(R(3, 4, 200)).ok());
  EXPECT_EQ(page.size(), 2);
  EXPECT_TRUE(page.Contains(PseudoKey({1u, 2u})));
  EXPECT_FALSE(page.Contains(PseudoKey({2u, 1u})));
  EXPECT_EQ(page.Lookup(PseudoKey({3u, 4u})).value(), 200u);
  EXPECT_FALSE(page.Lookup(PseudoKey({9u, 9u})).has_value());
}

TEST(DataPageTest, DuplicateKeyRejected) {
  DataPage page(1, 4);
  ASSERT_TRUE(page.Insert(R(1, 2, 100)).ok());
  Status st = page.Insert(R(1, 2, 999));
  EXPECT_TRUE(st.IsAlreadyExists()) << st;
  EXPECT_EQ(page.size(), 1);
}

TEST(DataPageTest, CapacityEnforced) {
  DataPage page(1, 2);
  ASSERT_TRUE(page.Insert(R(1, 1, 0)).ok());
  ASSERT_TRUE(page.Insert(R(2, 2, 0)).ok());
  EXPECT_TRUE(page.full());
  EXPECT_TRUE(page.Insert(R(3, 3, 0)).IsCapacityError());
}

TEST(DataPageTest, RemoveExistingAndMissing) {
  DataPage page(1, 4);
  ASSERT_TRUE(page.Insert(R(1, 1, 0)).ok());
  ASSERT_TRUE(page.Insert(R(2, 2, 0)).ok());
  EXPECT_TRUE(page.Remove(PseudoKey({1u, 1u})).ok());
  EXPECT_EQ(page.size(), 1);
  EXPECT_TRUE(page.Remove(PseudoKey({1u, 1u})).IsKeyError());
  EXPECT_TRUE(page.Remove(PseudoKey({2u, 2u})).ok());
  EXPECT_TRUE(page.empty());
}

TEST(DataPageTest, PartitionMovesMatchingRecords) {
  DataPage left(1, 8);
  DataPage right(2, 8);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(left.Insert(R(i, 0, i)).ok());
  }
  left.Partition([](const Record& r) { return r.key.component(0) % 2 == 1; },
                 &right);
  EXPECT_EQ(left.size(), 4);
  EXPECT_EQ(right.size(), 4);
  for (const Record& rec : left.records()) {
    EXPECT_EQ(rec.key.component(0) % 2, 0u);
  }
  for (const Record& rec : right.records()) {
    EXPECT_EQ(rec.key.component(0) % 2, 1u);
  }
}

TEST(DataPageTest, PartitionNothingAndEverything) {
  DataPage left(1, 4);
  DataPage right(2, 4);
  for (uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(left.Insert(R(i, 0, 0)).ok());
  left.Partition([](const Record&) { return false; }, &right);
  EXPECT_EQ(left.size(), 4);
  EXPECT_EQ(right.size(), 0);
  left.Partition([](const Record&) { return true; }, &right);
  EXPECT_EQ(left.size(), 0);
  EXPECT_EQ(right.size(), 4);
}

TEST(DataPageTest, CopyLeavesRoomForOneRecordAndNeverGrowsPastCapacity) {
  // A copy-on-write clone takes one change; a plain vector copy would have
  // no room left, and the insert after it would double the storage past b.
  constexpr int kCapacity = 8;
  for (int s = 0; s <= kCapacity; ++s) {
    DataPage page(1, kCapacity);
    for (int i = 0; i < s; ++i) {
      ASSERT_TRUE(page.Insert(R(static_cast<uint32_t>(i), 0, 0)).ok());
    }
    DataPage copy(page);
    EXPECT_EQ(copy.size(), s);
    EXPECT_EQ(copy.records(), page.records());
    EXPECT_EQ(copy.records().capacity(),
              static_cast<size_t>(std::min(s + 1, kCapacity)))
        << "s = " << s;
    for (int i = s; i < kCapacity; ++i) {
      ASSERT_TRUE(copy.Insert(R(static_cast<uint32_t>(i), 0, 0)).ok());
      EXPECT_LE(copy.records().capacity(), static_cast<size_t>(kCapacity))
          << "s = " << s << ", after " << i + 1 << " records";
    }
    EXPECT_TRUE(copy.full());
  }
}

TEST(DataPageTest, SerializeDeserializeRoundTrip) {
  DataPage page(7, 5);
  ASSERT_TRUE(page.Insert(R(11, 22, 1001)).ok());
  ASSERT_TRUE(page.Insert(R(33, 44, 2002)).ok());
  ByteWriter w;
  page.Serialize(&w);
  ByteReader in(w.bytes());
  auto r = DataPage::Deserialize(&in, 7, 5, KeySchema(2, 31));
  ASSERT_TRUE(r.ok()) << r.status();
  const DataPage& back = *r;
  EXPECT_EQ(back.id(), 7u);
  EXPECT_EQ(back.size(), 2);
  EXPECT_EQ(back.Lookup(PseudoKey({11u, 22u})).value(), 1001u);
  EXPECT_EQ(back.Lookup(PseudoKey({33u, 44u})).value(), 2002u);
}

TEST(DataPageTest, SerializeEmptyPage) {
  DataPage page(1, 3);
  ByteWriter w;
  page.Serialize(&w);
  ByteReader in(w.bytes());
  auto r = DataPage::Deserialize(&in, 1, 3, KeySchema(2, 31));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(DataPageTest, DeserializeRejectsOverCapacityCount) {
  DataPage page(1, 3);
  ASSERT_TRUE(page.Insert(R(1, 1, 0)).ok());
  ByteWriter w;
  page.Serialize(&w);
  std::vector<uint8_t> buf = w.bytes();
  buf[0] = 200;  // corrupt the record count
  ByteReader in(buf);
  auto r = DataPage::Deserialize(&in, 1, 3, KeySchema(2, 31));
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(DataPageTest, DeserializeRejectsDuplicateAndOutOfSchemaKeys) {
  DataPage page(1, 3);
  ASSERT_TRUE(page.Insert(R(1, 1, 0)).ok());
  ASSERT_TRUE(page.Insert(R(2, 2, 0)).ok());
  ByteWriter w;
  page.Serialize(&w);
  // [count u32 | record 0: key u32 x 2, payload u64 | record 1: ...]
  std::vector<uint8_t> dup = w.bytes();
  dup[20] = 1;
  dup[24] = 1;  // record 1 now has record 0's key
  ByteReader dup_in(dup);
  EXPECT_TRUE(
      DataPage::Deserialize(&dup_in, 1, 3, KeySchema(2, 31)).status()
          .IsCorruption());
  ByteReader wide_in(w.bytes());
  EXPECT_TRUE(
      DataPage::Deserialize(&wide_in, 1, 3, KeySchema(2, 1)).status()
          .IsCorruption())
      << "key component 2 does not fit a 1-bit dimension";
}

TEST(DataPageTest, DeserializeRejectsShortBuffer) {
  std::vector<uint8_t> tiny(3);
  ByteReader in(tiny);
  auto r = DataPage::Deserialize(&in, 1, 3, KeySchema(2, 31));
  EXPECT_TRUE(r.status().IsCorruption());
}

}  // namespace
}  // namespace bmeh
