#include "src/store/frozen_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/workload/distributions.h"

namespace bmeh {
namespace {

struct Built {
  std::unique_ptr<BmehTree> tree;
  std::vector<PseudoKey> keys;
};

Built BuildTree(int n, uint64_t seed, int b = 8) {
  Built out;
  KeySchema schema(2, 31);
  out.tree = std::make_unique<BmehTree>(schema, TreeOptions::Make(2, b));
  workload::WorkloadSpec spec;
  spec.seed = seed;
  out.keys = workload::GenerateKeys(spec, n);
  for (size_t i = 0; i < out.keys.size(); ++i) {
    BMEH_CHECK_OK(out.tree->Insert(out.keys[i], i));
  }
  return out;
}

TEST(FrozenTreeTest, FreezeOpenSearchRoundTrip) {
  Built built = BuildTree(5000, 11);
  InMemoryPageStore store(4096);
  auto meta = FrozenBmehTree::Freeze(*built.tree, &store);
  ASSERT_TRUE(meta.ok()) << meta.status();
  auto frozen = FrozenBmehTree::Open(&store, *meta, /*pool_pages=*/64);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EXPECT_EQ((*frozen)->height(), built.tree->height());
  EXPECT_EQ((*frozen)->records(), 5000u);
  EXPECT_EQ((*frozen)->schema(), built.tree->schema());
  for (size_t i = 0; i < built.keys.size(); i += 7) {
    auto r = (*frozen)->Search(built.keys[i]);
    ASSERT_TRUE(r.ok()) << built.keys[i].ToString();
    EXPECT_EQ(*r, i);
  }
  // Absent keys miss cleanly.
  auto absent = workload::GenerateAbsentKeys(
      workload::WorkloadSpec{.seed = 11}, 200, built.keys);
  for (const auto& key : absent) {
    EXPECT_TRUE((*frozen)->Search(key).status().IsKeyError());
  }
}

TEST(FrozenTreeTest, PhysicalReadsEqualLogicalModelWhenUncached) {
  // The paper's lambda = height reads (root pinned).  With a buffer pool
  // too small to retain anything across probes of random keys, physical
  // reads per successful search must equal the logical model exactly.
  Built built = BuildTree(20000, 12);
  InMemoryPageStore store(4096);
  auto meta = FrozenBmehTree::Freeze(*built.tree, &store);
  ASSERT_TRUE(meta.ok());
  auto frozen_r = FrozenBmehTree::Open(&store, *meta, /*pool_pages=*/2);
  ASSERT_TRUE(frozen_r.ok());
  auto frozen = std::move(frozen_r).ValueOrDie();
  const int height = frozen->height();
  ASSERT_GE(height, 2);

  Rng rng(13);
  const int probes = 300;
  const uint64_t before = frozen->physical_reads();
  for (int i = 0; i < probes; ++i) {
    ASSERT_TRUE(frozen->Search(built.keys[rng.Uniform(built.keys.size())])
                    .ok());
  }
  const double per_probe =
      static_cast<double>(frozen->physical_reads() - before) / probes;
  EXPECT_NEAR(per_probe, height, 0.05 * height)
      << "physical I/O should match the paper's logical cost model";
}

TEST(FrozenTreeTest, WarmPoolServesFromMemory) {
  Built built = BuildTree(3000, 14);
  InMemoryPageStore store(4096);
  auto meta = FrozenBmehTree::Freeze(*built.tree, &store);
  ASSERT_TRUE(meta.ok());
  // Pool large enough for the whole image.
  auto frozen_r = FrozenBmehTree::Open(&store, *meta, /*pool_pages=*/4096);
  ASSERT_TRUE(frozen_r.ok());
  auto frozen = std::move(frozen_r).ValueOrDie();
  Rng rng(15);
  // First pass warms the pool; second pass must be all hits.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        frozen->Search(built.keys[rng.Uniform(built.keys.size())]).ok());
  }
  const uint64_t reads_after_warm = frozen->physical_reads();
  Rng rng2(15);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        frozen->Search(built.keys[rng2.Uniform(built.keys.size())]).ok());
  }
  EXPECT_EQ(frozen->physical_reads(), reads_after_warm)
      << "repeating the same probes must be served by the buffer pool";
}

TEST(FrozenTreeTest, RangeQueriesMatchLiveTree) {
  Built built = BuildTree(8000, 16);
  InMemoryPageStore store(4096);
  auto meta = FrozenBmehTree::Freeze(*built.tree, &store);
  ASSERT_TRUE(meta.ok());
  auto frozen = FrozenBmehTree::Open(&store, *meta, 128);
  ASSERT_TRUE(frozen.ok());
  KeySchema schema(2, 31);
  Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      uint32_t a = static_cast<uint32_t>(rng.Uniform(1u << 31));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(1u << 31));
      if (a > b) std::swap(a, b);
      pred.Constrain(j, a, b);
    }
    std::vector<Record> live, cold;
    ASSERT_TRUE(built.tree->RangeSearch(pred, &live).ok());
    ASSERT_TRUE((*frozen)->RangeSearch(pred, &cold).ok());
    auto by_key = [](const Record& x, const Record& y) {
      return x.key < y.key;
    };
    std::sort(live.begin(), live.end(), by_key);
    std::sort(cold.begin(), cold.end(), by_key);
    ASSERT_EQ(live.size(), cold.size()) << pred.ToString();
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].key, cold[i].key);
      EXPECT_EQ(live[i].payload, cold[i].payload);
    }
  }
}

TEST(FrozenTreeTest, WorksThroughFilePageStore) {
  Built built = BuildTree(2000, 18);
  const std::string path = ::testing::TempDir() + "/bmeh_frozen.db";
  PageId meta;
  {
    auto store_r = FilePageStore::Create(path, 4096);
    ASSERT_TRUE(store_r.ok());
    auto store = std::move(store_r).ValueOrDie();
    auto meta_r = FrozenBmehTree::Freeze(*built.tree, store.get());
    ASSERT_TRUE(meta_r.ok()) << meta_r.status();
    meta = *meta_r;
    ASSERT_TRUE(store->Sync().ok());
  }
  {
    auto store_r = FilePageStore::Open(path);
    ASSERT_TRUE(store_r.ok());
    auto store = std::move(store_r).ValueOrDie();
    auto frozen = FrozenBmehTree::Open(store.get(), meta, 32);
    ASSERT_TRUE(frozen.ok()) << frozen.status();
    for (size_t i = 0; i < built.keys.size(); i += 13) {
      auto r = (*frozen)->Search(built.keys[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, i);
    }
  }
  std::remove(path.c_str());
}

TEST(FrozenTreeTest, EmptyTreeFreezes) {
  KeySchema schema(2, 16);
  BmehTree tree(schema, TreeOptions::Make(2, 4));
  InMemoryPageStore store(4096);
  auto meta = FrozenBmehTree::Freeze(tree, &store);
  ASSERT_TRUE(meta.ok());
  auto frozen = FrozenBmehTree::Open(&store, *meta, 8);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ((*frozen)->records(), 0u);
  EXPECT_TRUE(
      (*frozen)->Search(PseudoKey({1u, 2u})).status().IsKeyError());
}

TEST(FrozenTreeTest, RejectsBadMetaPage) {
  InMemoryPageStore store(4096);
  auto page = store.Allocate();
  ASSERT_TRUE(page.ok());
  auto frozen = FrozenBmehTree::Open(&store, *page, 8);
  EXPECT_TRUE(frozen.status().IsCorruption()) << frozen.status();
}

TEST(FrozenTreeTest, TooSmallPagesFailCleanly) {
  Built built = BuildTree(500, 19, /*b=*/64);
  InMemoryPageStore store(64);  // far too small for b=64 data pages
  auto meta = FrozenBmehTree::Freeze(*built.tree, &store);
  EXPECT_TRUE(meta.status().IsCapacityError()) << meta.status();
  EXPECT_EQ(store.live_page_count(), 0u);
}

}  // namespace
}  // namespace bmeh
