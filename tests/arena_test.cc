#include "src/hashdir/arena.h"

#include <gtest/gtest.h>

namespace bmeh {
namespace hashdir {
namespace {

TEST(ArenaTest, CreateGetDestroy) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(7); });
  uint32_t b = arena.Create([](uint32_t) { return std::make_unique<int>(8); });
  EXPECT_NE(a, b);
  EXPECT_EQ(*arena.Get(a), 7);
  EXPECT_EQ(*arena.Get(b), 8);
  EXPECT_EQ(arena.live_count(), 2u);
  arena.Destroy(a);
  EXPECT_FALSE(arena.Alive(a));
  EXPECT_TRUE(arena.Alive(b));
  EXPECT_EQ(arena.live_count(), 1u);
}

TEST(ArenaTest, IdsAreRecycled) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  arena.Destroy(a);
  uint32_t b = arena.Create([](uint32_t) { return std::make_unique<int>(2); });
  EXPECT_EQ(a, b);
  EXPECT_EQ(*arena.Get(b), 2);
}

TEST(ArenaTest, PointerStabilityAcrossGrowth) {
  // Pointees never move even when the slot vector reallocates — the index
  // structures rely on this across Create calls.
  Arena<int> arena;
  uint32_t first =
      arena.Create([](uint32_t) { return std::make_unique<int>(42); });
  const int* p = arena.Get(first);
  for (int i = 0; i < 1000; ++i) {
    arena.Create([](uint32_t) { return std::make_unique<int>(0); });
  }
  EXPECT_EQ(arena.Get(first), p);
  EXPECT_EQ(*p, 42);
}

TEST(ArenaTest, MakeReceivesTheAssignedId) {
  Arena<uint32_t> arena;
  uint32_t id = arena.Create(
      [](uint32_t assigned) { return std::make_unique<uint32_t>(assigned); });
  EXPECT_EQ(*arena.Get(id), id);
}

TEST(ArenaTest, CreateAtExactId) {
  Arena<int> arena;
  arena.CreateAt(5, [](uint32_t) { return std::make_unique<int>(55); });
  EXPECT_TRUE(arena.Alive(5));
  EXPECT_FALSE(arena.Alive(0));
  EXPECT_EQ(arena.live_count(), 1u);
  // The gap ids 0..4 are reusable.
  uint32_t fresh =
      arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  EXPECT_LT(fresh, 5u);
}

TEST(ArenaTest, CreateAtIntoFreedSlot) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  uint32_t b = arena.Create([](uint32_t) { return std::make_unique<int>(2); });
  (void)b;
  arena.Destroy(a);
  arena.CreateAt(a, [](uint32_t) { return std::make_unique<int>(3); });
  EXPECT_EQ(*arena.Get(a), 3);
  // `a` must no longer be on the free list: the next Create picks a new id.
  uint32_t c = arena.Create([](uint32_t) { return std::make_unique<int>(4); });
  EXPECT_NE(c, a);
}

TEST(ArenaTest, ScopeDefersRecyclingOfPublishedIds) {
  // Regression: Destroy inside a copy-on-write scope used to return the id
  // to the free list immediately, so a later Create in the SAME scope
  // could republish the slot with an object for an unrelated region.  An
  // optimistic reader pairing a stale parent (still routing to the id,
  // its own republish pending) with that slot would validate cleanly and
  // read the wrong region.  Published ids now become recyclable only at
  // PublishScope, after their tombstones land.
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  arena.BeginScope();
  arena.Destroy(a);
  uint32_t b = arena.Create([](uint32_t) { return std::make_unique<int>(2); });
  EXPECT_NE(b, a) << "published id recycled within its destroying scope";

  std::vector<RetiredObject> retired;
  arena.PublishScope(&retired);
  ASSERT_EQ(retired.size(), 1u);
  for (RetiredObject& r : retired) r.deleter(r.obj);
  EXPECT_FALSE(arena.Alive(a));
  EXPECT_EQ(arena.Acquire(a).ptr, nullptr);  // Tombstone is published.

  // Once the tombstone is out, the id is recyclable again.
  uint32_t c = arena.Create([](uint32_t) { return std::make_unique<int>(3); });
  EXPECT_EQ(c, a);
  EXPECT_EQ(*arena.Get(c), 3);
}

TEST(ArenaTest, ScopeRecyclesNeverPublishedIdsImmediately) {
  // Ids created inside the scope have a null published slot, so recycling
  // them within the same scope is safe: no stale parent can route to a
  // slot that was never published, and a reader that reaches the null
  // pointer treats it as a conflict regardless.
  Arena<int> arena;
  arena.BeginScope();
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  arena.Destroy(a);
  uint32_t b = arena.Create([](uint32_t) { return std::make_unique<int>(2); });
  EXPECT_EQ(b, a);

  std::vector<RetiredObject> retired;
  arena.PublishScope(&retired);
  EXPECT_TRUE(retired.empty());
  EXPECT_EQ(*arena.Get(b), 2);
  EXPECT_EQ(arena.live_count(), 1u);
}

TEST(ArenaTest, GetNeverClones) {
  // Inside a scope, Get is the const writer view: it returns the published
  // object and records nothing to publish.  Only Mutate clones, once.
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  const int* published = arena.Acquire(a).ptr;
  arena.BeginScope();
  EXPECT_EQ(arena.Get(a), published);
  EXPECT_FALSE(arena.ScopeDirty());

  int* shadow = arena.Mutate(a);
  EXPECT_NE(shadow, published);
  EXPECT_TRUE(arena.ScopeDirty());
  EXPECT_EQ(arena.Mutate(a), shadow);
  *shadow = 2;
  EXPECT_EQ(arena.Get(a), shadow);
  EXPECT_EQ(*published, 1) << "the published object changed in place";

  std::vector<RetiredObject> retired;
  arena.PublishScope(&retired);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].obj, published);
  for (RetiredObject& r : retired) r.deleter(r.obj);
  EXPECT_EQ(*arena.Get(a), 2);
}

TEST(ArenaTest, ForEachVisitsLiveOnly) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  arena.Create([](uint32_t) { return std::make_unique<int>(2); });
  arena.Destroy(a);
  int sum = 0, count = 0;
  arena.ForEach([&](uint32_t, const int& v) {
    sum += v;
    ++count;
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sum, 2);
}

TEST(ArenaDeathTest, DoubleDestroyAborts) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  arena.Destroy(a);
  EXPECT_DEATH(arena.Destroy(a), "dead id");
}

TEST(ArenaDeathTest, CreateAtLiveIdAborts) {
  Arena<int> arena;
  uint32_t a = arena.Create([](uint32_t) { return std::make_unique<int>(1); });
  EXPECT_DEATH(
      arena.CreateAt(a, [](uint32_t) { return std::make_unique<int>(2); }),
      "live id");
}

TEST(PageArenaTest, PagesCarryCapacityAndId) {
  PageArena pages(4);
  uint32_t id = pages.Create();
  EXPECT_EQ(pages.Get(id)->capacity(), 4);
  EXPECT_EQ(pages.Get(id)->id(), id);
  EXPECT_EQ(pages.live_count(), 1u);
}

TEST(NodeArenaTest, NodesCarryDims) {
  NodeArena nodes(3);
  uint32_t id = nodes.Create();
  EXPECT_EQ(nodes.Get(id)->dims(), 3);
  EXPECT_EQ(nodes.Get(id)->entry_count(), 1u);
}

}  // namespace
}  // namespace hashdir
}  // namespace bmeh
