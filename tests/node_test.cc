#include "src/hashdir/node.h"

#include <gtest/gtest.h>

#include <set>

namespace bmeh {
namespace hashdir {
namespace {

IndexTuple T(uint32_t a, uint32_t b) {
  IndexTuple t{};
  t[0] = a;
  t[1] = b;
  return t;
}

TEST(DirNodeTest, FreshNodeHasOneNilEntry) {
  DirNode node(2);
  EXPECT_EQ(node.entry_count(), 1u);
  EXPECT_TRUE(node.at(T(0, 0)).ref.is_nil());
  EXPECT_EQ(node.GroupSize(T(0, 0)), 1u);
}

TEST(DirNodeTest, GroupSizeTracksFreeBits) {
  DirNode node(2);
  node.Double(0);
  node.Double(0);
  node.Double(1);
  // depths (2,1); all entries h=0 -> one group of 8.
  EXPECT_EQ(node.GroupSize(T(3, 1)), 8u);
  node.SplitGroup(T(0, 0), 0, Ref::Page(1), Ref::Page(2));
  // Now two groups of 4 (split on dim-0 bit 0).
  EXPECT_EQ(node.GroupSize(T(0, 0)), 4u);
  EXPECT_EQ(node.GroupSize(T(3, 1)), 4u);
}

TEST(DirNodeTest, SplitGroupPartitionsByNextBit) {
  DirNode node(2);
  node.Double(0);
  node.Double(0);  // depth (2,0): indexes 0..3
  node.SplitGroup(T(0, 0), 0, Ref::Page(10), Ref::Page(20));
  // Bit 0 of i0: 0,1 -> left; 2,3 -> right.
  EXPECT_EQ(node.at(T(0, 0)).ref, Ref::Page(10));
  EXPECT_EQ(node.at(T(1, 0)).ref, Ref::Page(10));
  EXPECT_EQ(node.at(T(2, 0)).ref, Ref::Page(20));
  EXPECT_EQ(node.at(T(3, 0)).ref, Ref::Page(20));
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(node.at(T(i, 0)).h[0], 1);
    EXPECT_EQ(node.at(T(i, 0)).m, 0);
  }
  // Split the left group again: bit 1 distinguishes 0 from 1.
  node.SplitGroup(T(0, 0), 0, Ref::Page(11), Ref::Page(12));
  EXPECT_EQ(node.at(T(0, 0)).ref, Ref::Page(11));
  EXPECT_EQ(node.at(T(1, 0)).ref, Ref::Page(12));
  EXPECT_EQ(node.at(T(0, 0)).h[0], 2);
  EXPECT_EQ(node.at(T(2, 0)).h[0], 1) << "right group untouched";
}

TEST(DirNodeTest, ForEachInGroupEnumeratesExactlyTheGroup) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  node.Double(1);  // depths (1,2)
  node.SplitGroup(T(0, 0), 1, Ref::Page(1), Ref::Page(2));
  // Group of (0,0): h=(0,1): members have any i0 and i1 in {0,1}.
  std::set<std::pair<uint32_t, uint32_t>> members;
  node.ForEachInGroup(T(0, 0), [&](const IndexTuple& t) {
    members.insert({t[0], t[1]});
  });
  std::set<std::pair<uint32_t, uint32_t>> expected = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(members, expected);
}

TEST(DirNodeTest, GroupAddressesAreDistinct) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  auto addrs = node.GroupAddresses(T(1, 1));
  std::set<uint64_t> unique(addrs.begin(), addrs.end());
  EXPECT_EQ(addrs.size(), 4u);
  EXPECT_EQ(unique.size(), 4u);
}

TEST(DirNodeTest, BuddyGroupFlipsLastPrefixBit) {
  DirNode node(2);
  node.Double(0);
  node.Double(0);
  node.SplitGroup(T(0, 0), 0, Ref::Page(1), Ref::Page(2));
  // Groups now have h0=1: prefix is the leading bit.  Buddy of the
  // group containing (0,*) is the group containing (2,*).
  IndexTuple buddy = node.BuddyGroup(T(1, 0), 0);
  EXPECT_EQ(node.at(buddy).ref, Ref::Page(2));
  // Deeper: split left again; buddy of {0} is {1}.
  node.SplitGroup(T(0, 0), 0, Ref::Page(11), Ref::Page(12));
  buddy = node.BuddyGroup(T(0, 0), 0);
  EXPECT_EQ(buddy[0], 1u);
}

TEST(DirNodeTest, MergeGroupReversesSplit) {
  DirNode node(2);
  node.Double(1);
  node.Double(1);
  const Entry before = node.at(T(0, 0));
  node.SplitGroup(T(0, 0), 1, Ref::Page(1), Ref::Page(2));
  node.MergeGroup(T(0, 0), 1, Ref::Page(1));
  const Entry after = node.at(T(0, 3));
  EXPECT_EQ(after.ref, Ref::Page(1));
  EXPECT_EQ(after.h[1], before.h[1]);
  EXPECT_EQ(node.GroupSize(T(0, 0)), 4u);
}

TEST(DirNodeTest, MergeGroupRollsBackSplitDimension) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  node.SplitGroup(T(0, 0), 0, Ref::Page(1), Ref::Page(2));
  node.SplitGroup(T(0, 0), 1, Ref::Page(1), Ref::Page(3));
  EXPECT_EQ(node.at(T(0, 0)).m, 1);
  node.MergeGroup(T(0, 0), 1, Ref::Page(1));
  EXPECT_EQ(node.at(T(0, 0)).m, 0)
      << "after undoing the dim-1 split the previous split dim is 0";
  EXPECT_EQ(node.at(T(0, 0)).NextSplitDim(2), 1);
}

TEST(DirNodeTest, ForEachGroupVisitsOnePerGroup) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  node.SplitGroup(T(0, 0), 0, Ref::Page(1), Ref::Page(2));
  int groups = 0;
  uint64_t cells = 0;
  node.ForEachGroup([&](const IndexTuple& rep, const Entry&) {
    ++groups;
    cells += node.GroupSize(rep);
  });
  EXPECT_EQ(groups, 2);
  EXPECT_EQ(cells, node.entry_count());
}

TEST(DirNodeTest, SetGroupRefTouchesWholeGroupOnly) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  node.SplitGroup(T(0, 0), 0, Ref::Nil(), Ref::Nil());
  node.SetGroupRef(T(0, 0), Ref::Page(9));
  EXPECT_EQ(node.at(T(0, 0)).ref, Ref::Page(9));
  EXPECT_EQ(node.at(T(0, 1)).ref, Ref::Page(9));
  EXPECT_TRUE(node.at(T(1, 0)).ref.is_nil());
}

TEST(DirNodeTest, CanHalveRequiresLifoDimAndUnusedDepth) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  EXPECT_FALSE(node.CanHalve(0)) << "dim 0 was not the last doubling";
  EXPECT_TRUE(node.CanHalve(1));
  node.SplitGroup(T(0, 0), 1, Ref::Nil(), Ref::Nil());
  EXPECT_FALSE(node.CanHalve(1)) << "an entry now needs the dim-1 bit";
  node.MergeGroup(T(0, 0), 1, Ref::Nil());
  EXPECT_TRUE(node.CanHalve(1));
  node.Halve(1);
  EXPECT_EQ(node.depth(1), 0);
  EXPECT_TRUE(node.CanHalve(0));
}

TEST(DirNodeDeathTest, SplitBeyondDepthAborts) {
  DirNode node(2);
  node.Double(0);
  node.SplitGroup(T(0, 0), 0, Ref::Page(1), Ref::Page(2));
  EXPECT_DEATH(node.SplitGroup(T(0, 0), 0, Ref::Page(3), Ref::Page(4)),
               "SplitGroup");
}

TEST(DirNodeCodecTest, RoundTripsAndRejectsBadFields) {
  DirNode node(2);
  node.Double(0);
  node.Double(1);
  node.Double(0);
  node.SplitGroup(T(0, 0), 0, Ref::Page(7), Ref::Node(9));
  ByteWriter w;
  EncodeNode(node, &w);
  const KeySchema schema(2, 16);
  ByteReader r(w.bytes());
  auto back = DecodeNode(&r, schema);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(back->history().event_count(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(back->history().event_dim(i), node.history().event_dim(i));
  }
  ASSERT_EQ(back->entry_count(), node.entry_count());
  for (uint64_t a = 0; a < node.entry_count(); ++a) {
    const Entry& x = node.at_address(a);
    const Entry& y = back->at_address(a);
    EXPECT_EQ(y.ref, x.ref);
    EXPECT_TRUE(y.SameShape(x, 2));
    EXPECT_EQ(y.m, x.m);
  }

  // [doubling count u32 | 3 dimensions | entry 0: kind, id u32, h x 2, m]
  auto decode_with = [&](size_t at, uint8_t value) {
    std::vector<uint8_t> bytes = w.bytes();
    bytes[at] = value;
    ByteReader in(bytes);
    return DecodeNode(&in, schema).status();
  };
  EXPECT_TRUE(decode_with(4, 2).IsCorruption()) << "doubling dimension >= d";
  EXPECT_TRUE(decode_with(7, 3).IsCorruption()) << "unknown ref kind";
  EXPECT_TRUE(decode_with(12, 3).IsCorruption()) << "local depth > depth";
  EXPECT_TRUE(decode_with(14, 2).IsCorruption()) << "split dimension >= d";
  ByteReader cut(std::span<const uint8_t>(w.bytes()).first(w.size() - 1));
  EXPECT_TRUE(DecodeNode(&cut, schema).status().IsCorruption());
}

TEST(EntryTest, ChooseSplitDimCyclesAndSkipsExhausted) {
  Entry e = MakeEntry(Ref::Nil(), 3);
  const int limits_all[] = {4, 4, 4};
  EXPECT_EQ(ChooseSplitDim(e, std::span<const int>(limits_all, 3), 3), 0);
  e.m = 0;
  EXPECT_EQ(ChooseSplitDim(e, std::span<const int>(limits_all, 3), 3), 1);
  e.m = 2;
  EXPECT_EQ(ChooseSplitDim(e, std::span<const int>(limits_all, 3), 3), 0);
  // Exhaust dim 1: h[1] == limit.
  e.h[1] = 4;
  e.m = 0;
  EXPECT_EQ(ChooseSplitDim(e, std::span<const int>(limits_all, 3), 3), 2)
      << "dim 1 skipped";
  // Exhaust everything.
  e.h[0] = e.h[2] = 4;
  EXPECT_EQ(ChooseSplitDim(e, std::span<const int>(limits_all, 3), 3), -1);
}

}  // namespace
}  // namespace hashdir
}  // namespace bmeh
