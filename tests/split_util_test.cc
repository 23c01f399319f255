// Direct unit tests of the page-group split/merge primitives shared by the
// tree schemes (higher-level behavior is covered by the structure tests).

#include "src/hashdir/split_util.h"

#include <gtest/gtest.h>

namespace bmeh {
namespace hashdir {
namespace {

IndexTuple T(uint32_t a, uint32_t b) {
  IndexTuple t{};
  t[0] = a;
  t[1] = b;
  return t;
}

class SplitUtilTest : public ::testing::Test {
 protected:
  SplitUtilTest()
      : schema_(2, 8),
        nodes_(2),
        node_id_(nodes_.Create()),
        node_(*nodes_.Mutate(node_id_)),
        pages_(4) {}

  uint32_t NewPageWithKeys(std::initializer_list<PseudoKey> keys) {
    uint32_t id = pages_.Create();
    for (const PseudoKey& k : keys) {
      BMEH_CHECK_OK(pages_.Mutate(id)->Insert({k, 0}));
    }
    return id;
  }

  KeySchema schema_;
  NodeArena nodes_;
  uint32_t node_id_;
  DirNode& node_;
  PageArena pages_;
  IoCounter io_;
};

TEST_F(SplitUtilTest, SplitPageGroupPartitionsByAbsoluteBit) {
  node_.Double(0);
  // Keys differing in bit 1 (offset 1) of dim 0; bit 0 is identical so the
  // split at consumed=0, h=0 uses bit 0 ... set up h=1 by splitting once.
  // Simpler: keys with distinct bit 0 of dim 0.
  uint32_t pid = NewPageWithKeys({PseudoKey({0b00000000u, 0u}),
                                  PseudoKey({0b10000000u, 0u})});
  node_.SetGroupRef(T(0, 0), Ref::Page(pid));
  std::array<uint16_t, kMaxDims> consumed{};
  ASSERT_TRUE(hashdir::SplitPageGroup(schema_, &node_, T(0, 0), 0, consumed,
                                      &pages_, &io_)
                  .ok());
  // Each half got one record.
  const Entry& left = node_.at(T(0, 0));
  const Entry& right = node_.at(T(1, 0));
  ASSERT_TRUE(left.ref.is_page());
  ASSERT_TRUE(right.ref.is_page());
  EXPECT_EQ(pages_.Get(left.ref.id)->size(), 1);
  EXPECT_EQ(pages_.Get(right.ref.id)->size(), 1);
  EXPECT_EQ(pages_.Get(left.ref.id)->records()[0].key.component(0),
            0b00000000u);
  EXPECT_EQ(pages_.Get(right.ref.id)->records()[0].key.component(0),
            0b10000000u);
  EXPECT_EQ(io_.stats().dir_writes, 1u);
  EXPECT_EQ(io_.stats().data_writes, 2u);
}

TEST_F(SplitUtilTest, SplitRespectsConsumedOffset) {
  node_.Double(0);
  // Both keys share bit 0; they differ at bit 3.  With consumed = 3 the
  // split distinguishes them.
  uint32_t pid = NewPageWithKeys({PseudoKey({0b00010000u, 0u}),
                                  PseudoKey({0b00000000u, 0u})});
  node_.SetGroupRef(T(0, 0), Ref::Page(pid));
  std::array<uint16_t, kMaxDims> consumed{};
  consumed[0] = 3;
  ASSERT_TRUE(hashdir::SplitPageGroup(schema_, &node_, T(0, 0), 0, consumed,
                                      &pages_, &io_)
                  .ok());
  EXPECT_EQ(pages_.live_count(), 2u);
  EXPECT_EQ(pages_.Get(node_.at(T(0, 0)).ref.id)->size(), 1);
  EXPECT_EQ(pages_.Get(node_.at(T(1, 0)).ref.id)->size(), 1);
}

TEST_F(SplitUtilTest, EmptySideBecomesNil) {
  node_.Double(1);
  // Both keys have dim-1 bit 0 == 1, so the left half ends up empty.
  uint32_t pid = NewPageWithKeys({PseudoKey({0u, 0b10000000u}),
                                  PseudoKey({0u, 0b11000000u})});
  node_.SetGroupRef(T(0, 0), Ref::Page(pid));
  std::array<uint16_t, kMaxDims> consumed{};
  ASSERT_TRUE(hashdir::SplitPageGroup(schema_, &node_, T(0, 0), 1, consumed,
                                      &pages_, &io_)
                  .ok());
  EXPECT_TRUE(node_.at(T(0, 0)).ref.is_nil());
  ASSERT_TRUE(node_.at(T(0, 1)).ref.is_page());
  EXPECT_EQ(pages_.live_count(), 1u);
  EXPECT_EQ(pages_.Get(node_.at(T(0, 1)).ref.id)->size(), 2);
}

TEST_F(SplitUtilTest, MergeCascadeJoinsSmallBuddies) {
  node_.Double(0);
  uint32_t left = NewPageWithKeys({PseudoKey({0b00000000u, 0u})});
  uint32_t right = NewPageWithKeys({PseudoKey({0b10000000u, 0u})});
  node_.SplitGroup(T(0, 0), 0, Ref::Page(left), Ref::Page(right));
  const int merges = hashdir::MergeGroupCascade(&nodes_, node_id_, T(0, 0),
                                                &pages_, 4, &io_);
  EXPECT_EQ(merges, 1);
  EXPECT_EQ(pages_.live_count(), 1u);
  EXPECT_EQ(node_.at(T(0, 0)).ref, node_.at(T(1, 0)).ref);
  EXPECT_EQ(node_.at(T(0, 0)).h[0], 0);
  EXPECT_EQ(pages_.Get(node_.at(T(0, 0)).ref.id)->size(), 2);
}

TEST_F(SplitUtilTest, MergeRefusesWhenCombinedWouldBeFull) {
  node_.Double(0);
  // Capacity 4: 3 + 1 = 4 records would make an exactly-full page —
  // refused by the strict threshold (see split_util.cc).
  uint32_t left = NewPageWithKeys({PseudoKey({0b00000001u, 0u}),
                                   PseudoKey({0b00000010u, 0u}),
                                   PseudoKey({0b00000011u, 0u})});
  uint32_t right = NewPageWithKeys({PseudoKey({0b10000000u, 0u})});
  node_.SplitGroup(T(0, 0), 0, Ref::Page(left), Ref::Page(right));
  EXPECT_EQ(hashdir::MergeGroupCascade(&nodes_, node_id_, T(0, 0), &pages_,
                                       4, &io_),
            0);
  EXPECT_EQ(pages_.live_count(), 2u);
}

TEST_F(SplitUtilTest, MergeDropsEmptiedPageWithoutPartner) {
  node_.Double(0);
  uint32_t left = NewPageWithKeys({});
  uint32_t right = NewPageWithKeys({PseudoKey({0b10000000u, 0u}),
                                    PseudoKey({0b10000001u, 0u}),
                                    PseudoKey({0b11000000u, 0u}),
                                    PseudoKey({0b11000001u, 0u})});
  node_.SplitGroup(T(0, 0), 0, Ref::Page(left), Ref::Page(right));
  // left empty + right full: cannot merge (4 >= capacity), so the empty
  // page is dropped and its group set to NIL.
  hashdir::MergeGroupCascade(&nodes_, node_id_, T(0, 0), &pages_, 4, &io_);
  EXPECT_TRUE(node_.at(T(0, 0)).ref.is_nil());
  EXPECT_EQ(pages_.live_count(), 1u);
}

TEST_F(SplitUtilTest, MergeTriesAllDimensionsNotJustRecorded) {
  node_.Double(0);
  node_.Double(1);
  uint32_t a = NewPageWithKeys({PseudoKey({0u, 0u})});
  uint32_t b = NewPageWithKeys({PseudoKey({0b10000000u, 0u})});
  node_.SplitGroup(T(0, 0), 0, Ref::Page(a), Ref::Page(b));
  // Corrupt the recorded last-split dimension: set m to 1 (whose h is 0).
  node_.ForEachInGroup(T(0, 0), [&](const IndexTuple& member) {
    node_.at(member).m = 1;
  });
  node_.ForEachInGroup(T(1, 0), [&](const IndexTuple& member) {
    node_.at(member).m = 1;
  });
  // The cascade must still find the dim-0 merge.
  EXPECT_EQ(hashdir::MergeGroupCascade(&nodes_, node_id_, T(0, 0), &pages_,
                                       4, &io_),
            1);
  EXPECT_EQ(pages_.live_count(), 1u);
}

TEST_F(SplitUtilTest, HalveNodeCascadeReversesUnneededDoublings) {
  node_.Double(0);
  node_.Double(1);
  node_.Double(1);
  IndexTuple t = T(1, 3);
  const int halvings =
      hashdir::HalveNodeCascade(&nodes_, node_id_, &t, &io_);
  EXPECT_EQ(halvings, 3);
  EXPECT_EQ(node_.depth(0), 0);
  EXPECT_EQ(node_.depth(1), 0);
  EXPECT_EQ(t[0], 0u);
  EXPECT_EQ(t[1], 0u);
}

TEST_F(SplitUtilTest, HalveStopsAtUsedDepth) {
  node_.Double(0);
  node_.Double(1);
  node_.SplitGroup(T(0, 0), 1, Ref::Nil(), Ref::Nil());  // uses the dim-1 bit
  IndexTuple t = T(0, 0);
  EXPECT_EQ(hashdir::HalveNodeCascade(&nodes_, node_id_, &t, &io_), 0);
  EXPECT_EQ(node_.depth(1), 1);
}

}  // namespace
}  // namespace hashdir
}  // namespace bmeh
