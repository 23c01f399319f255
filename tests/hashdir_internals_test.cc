// Unit tests of the traversal plumbing shared by the tree schemes:
// descent, the range-walk box iterator, and entry/ref formatting.

#include <gtest/gtest.h>

#include "src/hashdir/descent.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {
namespace hashdir {
namespace {

TEST(RefTest, KindsAndEquality) {
  EXPECT_TRUE(Ref::Nil().is_nil());
  EXPECT_TRUE(Ref::Page(3).is_page());
  EXPECT_TRUE(Ref::Node(4).is_node());
  EXPECT_EQ(Ref::Page(3), Ref::Page(3));
  EXPECT_NE(Ref::Page(3), Ref::Page(4));
  EXPECT_NE(Ref::Page(3), Ref::Node(3));
  EXPECT_EQ(Ref::Nil(), Ref::Nil());
  EXPECT_EQ(Ref::Nil().ToString(), "NIL");
  EXPECT_EQ(Ref::Page(3).ToString(), "P3");
  EXPECT_EQ(Ref::Node(4).ToString(), "N4");
}

TEST(EntryTest, ToStringShowsDepths) {
  Entry e = MakeEntry(Ref::Page(7), 2);
  e.h[0] = 1;
  e.h[1] = 2;
  e.m = 0;
  EXPECT_EQ(e.ToString(2), "{P7, h=<1,2>, m=0}");
}

TEST(EntryTest, SameShapeComparesAllFields) {
  Entry a = MakeEntry(Ref::Page(1), 2);
  Entry b = a;
  EXPECT_TRUE(a.SameShape(b, 2));
  b.h[1] = 3;
  EXPECT_FALSE(a.SameShape(b, 2));
  b = a;
  b.ref = Ref::Page(2);
  EXPECT_FALSE(a.SameShape(b, 2));
  b = a;
  b.m = static_cast<uint8_t>((a.m + 1) % 2);
  EXPECT_FALSE(a.SameShape(b, 2));
}

TEST(TupleInNodeTest, ExtractsAtConsumedOffsets) {
  KeySchema schema(2, 8);
  DirNode node(2);
  node.Double(0);
  node.Double(0);
  node.Double(1);
  // Key bits (dim 0): 1 0 1 1 ...; consumed 1 -> next 2 bits are "01".
  PseudoKey key({0b10110000u, 0b01000000u});
  std::array<uint16_t, kMaxDims> consumed{};
  consumed[0] = 1;
  consumed[1] = 0;
  IndexTuple t = TupleInNode(schema, node, key, consumed);
  EXPECT_EQ(t[0], 0b01u);
  EXPECT_EQ(t[1], 0b0u);
}

TEST(DescendTest, StopsAtPageLevelEntry) {
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t root = nodes.Create();
  const uint32_t child = nodes.Create();
  DirNode* r = nodes.Mutate(root);
  r->Double(0);
  r->SplitGroup(IndexTuple{}, 0, Ref::Node(child), Ref::Page(9));
  nodes.Mutate(child)->at_address(0) = MakeEntry(Ref::Page(5), 2);

  IoCounter io;
  // Key with leading dim-0 bit 0 descends into the child node.
  auto left = DescendToLeaf(schema, nodes, root, PseudoKey({0u, 0u}), &io);
  ASSERT_TRUE(left.ok());
  ASSERT_EQ(left->size(), 2u);
  EXPECT_EQ((*left)[0].node_id, root);
  EXPECT_EQ((*left)[1].node_id, child);
  EXPECT_EQ((*left)[1].consumed[0], 1) << "the entry's h was stripped";
  EXPECT_EQ(io.stats().dir_reads, 1u) << "root read not charged";

  // Leading bit 1 ends at the root's page entry.
  auto right =
      DescendToLeaf(schema, nodes, root, PseudoKey({0x80u, 0u}), &io);
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(right->size(), 1u);
}

TEST(DescendTest, DanglingNodeIsCorruption) {
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t root = nodes.Create();
  nodes.Mutate(root)->at_address(0) = MakeEntry(Ref::Node(1234), 2);
  auto r = DescendToLeaf(schema, nodes, root, PseudoKey({0u, 0u}), nullptr);
  EXPECT_TRUE(r.status().IsCorruption()) << r.status();
}

TEST(DescendTest, ZeroDepthCycleIsCaught) {
  // Two zero-depth nodes pointing at each other consume no bits; the
  // descent must terminate with Corruption rather than loop.
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t a = nodes.Create();
  const uint32_t b = nodes.Create();
  nodes.Mutate(a)->at_address(0) = MakeEntry(Ref::Node(b), 2);
  nodes.Mutate(b)->at_address(0) = MakeEntry(Ref::Node(a), 2);
  auto r = DescendToLeaf(schema, nodes, a, PseudoKey({0u, 0u}), nullptr);
  EXPECT_TRUE(r.status().IsCorruption()) << r.status();
}

TEST(BoxOdometerTest, SingleCellBox) {
  IndexTuple lo{}, hi{};
  lo[0] = hi[0] = 3;
  lo[1] = hi[1] = 5;
  BoxOdometer od(2, lo, hi);
  ASSERT_FALSE(od.done());
  EXPECT_EQ(od.tuple()[0], 3u);
  EXPECT_EQ(od.tuple()[1], 5u);
  od.Next();
  EXPECT_TRUE(od.done());
}

TEST(BoxOdometerTest, CoversBoxLastDimensionFastest) {
  IndexTuple lo{}, hi{};
  lo[0] = 1;
  hi[0] = 2;
  lo[1] = 4;
  hi[1] = 6;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  for (BoxOdometer od(2, lo, hi); !od.done(); od.Next()) {
    seen.push_back({od.tuple()[0], od.tuple()[1]});
  }
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0], (std::pair<uint32_t, uint32_t>{1, 4}));
  EXPECT_EQ(seen[1], (std::pair<uint32_t, uint32_t>{1, 5}));
  EXPECT_EQ(seen[3], (std::pair<uint32_t, uint32_t>{2, 4}));
  EXPECT_EQ(seen[5], (std::pair<uint32_t, uint32_t>{2, 6}));
}

TEST(RangeWalkTest, EmptyPredicateShortCircuits) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  pred.Constrain(0, 5, 6);
  pred.Constrain(0, 7, 8);  // empty intersection
  ASSERT_TRUE(pred.Empty());
  RangeWalkCallbacks cbs;  // never invoked
  std::vector<Record> out;
  RangeWalkStats stats;
  ASSERT_TRUE(RangeWalk(schema, pred, Ref::Node(0), cbs, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.nodes_visited, 0u);
}

TEST(RangeWalkTest, DanglingNodeReportsCorruption) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  RangeWalkCallbacks cbs;
  cbs.get_node = [](uint32_t, int) -> const DirNode* { return nullptr; };
  std::vector<Record> out;
  RangeWalkStats stats;
  Status st = RangeWalk(schema, pred, Ref::Node(7), cbs, &out, &stats);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(RangeWalkTest, NilRootMatchesNothing) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  RangeWalkCallbacks cbs;
  std::vector<Record> out;
  RangeWalkStats stats;
  ASSERT_TRUE(RangeWalk(schema, pred, Ref::Nil(), cbs, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace hashdir
}  // namespace bmeh
