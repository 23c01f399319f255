#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/crc32.h"
#include "src/core/bmeh_tree.h"
#include "src/pagestore/page_store.h"
#include "src/workload/distributions.h"

namespace bmeh {
namespace {

std::unique_ptr<BmehTree> BuildTree(int n, uint64_t seed,
                                    std::vector<PseudoKey>* keys_out) {
  KeySchema schema(2, 31);
  auto tree =
      std::make_unique<BmehTree>(schema, TreeOptions::Make(2, 4));
  workload::WorkloadSpec spec;
  spec.seed = seed;
  auto keys = workload::GenerateKeys(spec, n);
  for (size_t i = 0; i < keys.size(); ++i) {
    BMEH_CHECK_OK(tree->Insert(keys[i], i * 3 + 1));
  }
  if (keys_out) *keys_out = std::move(keys);
  return tree;
}

void ExpectTreesEquivalent(BmehTree* a, BmehTree* b,
                           const std::vector<PseudoKey>& keys) {
  ASSERT_EQ(a->Stats().records, b->Stats().records);
  ASSERT_EQ(a->height(), b->height());
  ASSERT_EQ(a->node_count(), b->node_count());
  for (const PseudoKey& key : keys) {
    auto ra = a->Search(key);
    auto rb = b->Search(key);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(*ra, *rb);
  }
}

TEST(SerializeTest, RoundTripInMemory) {
  std::vector<PseudoKey> keys;
  auto tree = BuildTree(2500, 91, &keys);
  InMemoryPageStore store(4096);
  auto head = tree->SaveTo(&store);
  ASSERT_TRUE(head.ok()) << head.status();
  auto loaded = BmehTree::LoadFrom(&store, *head);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectTreesEquivalent(tree.get(), loaded->get(), keys);
  ASSERT_TRUE((*loaded)->Validate().ok());
}

TEST(SerializeTest, RoundTripSmallPagesChainsAcrossMany) {
  std::vector<PseudoKey> keys;
  auto tree = BuildTree(800, 92, &keys);
  InMemoryPageStore store(128);  // forces a long page chain
  auto head = tree->SaveTo(&store);
  ASSERT_TRUE(head.ok());
  EXPECT_GT(store.live_page_count(), 10u);
  auto loaded = BmehTree::LoadFrom(&store, *head);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectTreesEquivalent(tree.get(), loaded->get(), keys);
}

TEST(SerializeTest, RoundTripThroughFileStore) {
  const std::string path = ::testing::TempDir() + "/bmeh_tree.db";
  std::vector<PseudoKey> keys;
  auto tree = BuildTree(1200, 93, &keys);
  PageId head;
  {
    auto store_r = FilePageStore::Create(path, 4096);
    ASSERT_TRUE(store_r.ok());
    auto store = std::move(store_r).ValueOrDie();
    auto head_r = tree->SaveTo(store.get());
    ASSERT_TRUE(head_r.ok()) << head_r.status();
    head = *head_r;
    ASSERT_TRUE(store->Sync().ok());
  }
  {
    auto store_r = FilePageStore::Open(path);
    ASSERT_TRUE(store_r.ok());
    auto store = std::move(store_r).ValueOrDie();
    auto loaded = BmehTree::LoadFrom(store.get(), head);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectTreesEquivalent(tree.get(), loaded->get(), keys);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadedTreeRemainsFullyOperational) {
  std::vector<PseudoKey> keys;
  auto tree = BuildTree(1000, 94, &keys);
  InMemoryPageStore store(4096);
  auto head = tree->SaveTo(&store);
  ASSERT_TRUE(head.ok());
  auto loaded_r = BmehTree::LoadFrom(&store, *head);
  ASSERT_TRUE(loaded_r.ok());
  auto loaded = std::move(loaded_r).ValueOrDie();
  // Mutate after load: insert fresh keys, delete old ones.
  workload::WorkloadSpec spec;
  spec.seed = 95;
  auto fresh = workload::GenerateAbsentKeys(spec, 500, keys);
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_TRUE(loaded->Insert(fresh[i], 1000000 + i).ok());
  }
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(loaded->Delete(keys[i]).ok());
  }
  ASSERT_TRUE(loaded->Validate().ok());
  EXPECT_EQ(loaded->Stats().records, 1000u);
}

TEST(SerializeTest, EmptyTreeRoundTrip) {
  KeySchema schema(3, 20);
  BmehTree tree(schema, TreeOptions::Make(3, 8));
  InMemoryPageStore store(4096);
  auto head = tree.SaveTo(&store);
  ASSERT_TRUE(head.ok());
  auto loaded = BmehTree::LoadFrom(&store, *head);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->Stats().records, 0u);
  EXPECT_EQ((*loaded)->schema(), schema);
  ASSERT_TRUE((*loaded)->Insert(PseudoKey({1u, 2u, 3u}), 9).ok());
}

TEST(SerializeTest, CorruptMagicRejected) {
  auto tree = BuildTree(100, 96, nullptr);
  InMemoryPageStore store(4096);
  auto head = tree->SaveTo(&store);
  ASSERT_TRUE(head.ok());
  // Flip a byte in the payload region of the head page (offset 8 = start
  // of the serialized stream, i.e. the magic).
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(store.Read(*head, buf).ok());
  buf[8] ^= 0xff;
  ASSERT_TRUE(store.Write(*head, buf).ok());
  auto loaded = BmehTree::LoadFrom(&store, *head);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST(SerializeTest, TruncatedChainRejected) {
  auto tree = BuildTree(2000, 97, nullptr);
  InMemoryPageStore store(256);
  auto head = tree->SaveTo(&store);
  ASSERT_TRUE(head.ok());
  // Cut the chain: clear the next pointer of the head page.
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(store.Read(*head, buf).ok());
  const uint32_t nil = kInvalidPageId;
  std::memcpy(buf.data(), &nil, 4);
  ASSERT_TRUE(store.Write(*head, buf).ok());
  auto loaded = BmehTree::LoadFrom(&store, *head);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST(SerializeTest, ImageBytesDoNotChange) {
  // Every store file and backup set holds a checkpoint image, so its bytes
  // must not move.  kCrc and kLength were recorded from the image writer
  // that predates the shared node and page codecs, by following each
  // chain page's next link from the head.
  constexpr uint32_t kCrc = 0x6c9ce3e1;
  constexpr uint64_t kLength = 60 * 512;
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, /*b=*/4, /*phi=*/6));
  workload::WorkloadSpec spec;
  spec.seed = 20;
  const auto keys = workload::GenerateKeys(spec, 1500);
  for (size_t i = 0; i < keys.size(); ++i) {
    BMEH_CHECK_OK(tree.Insert(keys[i], i * 7 + 3));
  }
  for (size_t i = 0; i < keys.size(); i += 3) {
    BMEH_CHECK_OK(tree.Delete(keys[i]));
  }
  ASSERT_GT(tree.mutation_stats().page_merges, 0u);
  ASSERT_GT(tree.mutation_stats().node_merges, 0u);

  InMemoryPageStore store(512);
  std::vector<PageId> pages;
  auto head = tree.SaveTo(&store, &pages);
  ASSERT_TRUE(head.ok()) << head.status();
  ASSERT_FALSE(pages.empty());
  EXPECT_EQ(pages.front(), *head);
  std::vector<uint8_t> buf(512);
  uint32_t crc = 0;
  uint64_t length = 0;
  for (PageId id : pages) {
    ASSERT_TRUE(store.Read(id, buf).ok());
    crc = Crc32(buf.data(), buf.size(), crc);
    length += buf.size();
  }
  EXPECT_EQ(length, kLength);
  EXPECT_EQ(crc, kCrc);

  std::vector<PageId> read_pages;
  auto loaded = BmehTree::LoadFrom(&store, *head, &read_pages);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(read_pages, pages);
  BmehTree& back = **loaded;
  const IndexStructureStats a = tree.Stats();
  const IndexStructureStats b = back.Stats();
  EXPECT_EQ(b.directory_entries, a.directory_entries);
  EXPECT_EQ(b.directory_entries_used, a.directory_entries_used);
  EXPECT_EQ(b.directory_nodes, a.directory_nodes);
  EXPECT_EQ(b.directory_levels, a.directory_levels);
  EXPECT_EQ(b.data_pages, a.data_pages);
  EXPECT_EQ(b.records, a.records);
  EXPECT_EQ(back.height(), tree.height());
  std::vector<Record> want, got;
  tree.Scan([&](const Record& r) { want.push_back(r); });
  back.Scan([&](const Record& r) { got.push_back(r); });
  auto by_key = [](const Record& x, const Record& y) { return x.key < y.key; };
  std::sort(want.begin(), want.end(), by_key);
  std::sort(got.begin(), got.end(), by_key);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace bmeh
