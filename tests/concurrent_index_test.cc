// BmehStore over an in-memory page device, driven from several threads at
// once: batches beside lock-free readers, readers beside a writer that
// splits and merges, and range queries beside a growing tree.  Every read
// runs the tree's one exact-match or range walk through the store's read
// plane.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/store/bmeh_store.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

std::unique_ptr<BmehStore> OpenMemStore() {
  StoreOptions opts;
  opts.tree = TreeOptions::Make(2, /*b=*/8);
  auto store = BmehStore::Open(std::make_unique<InMemoryPageStore>(), opts);
  BMEH_CHECK_OK(store.status());
  return std::move(store).ValueOrDie();
}

TEST(ConcurrentIndexTest, SingleThreadedBasics) {
  auto store = OpenMemStore();
  ASSERT_TRUE(store->optimistic_reads_enabled());
  ASSERT_TRUE(store->Put(PseudoKey({1u, 2u}), 7).ok());
  auto r = store->Get(PseudoKey({1u, 2u}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7u);
  ASSERT_TRUE(store->Delete(PseudoKey({1u, 2u})).ok());
  EXPECT_TRUE(store->Get(PseudoKey({1u, 2u})).status().IsKeyError());
  EXPECT_TRUE(store->tree().Validate().ok());
}

TEST(ConcurrentIndexTest, BatchInsertAndDeleteSingleLockSemantics) {
  auto store = OpenMemStore();
  std::vector<Record> records;
  for (uint32_t i = 0; i < 100; ++i) {
    records.push_back({PseudoKey({i, i}), i});
  }
  ASSERT_TRUE(store->InsertBatch(records).ok());
  EXPECT_EQ(store->tree().Stats().records, 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    auto r = store->Get(PseudoKey({i, i}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, i);
  }

  // Duplicates report the first failure but every non-duplicate member
  // still lands (N-consecutive-inserts semantics, no rollback).
  std::vector<Record> with_dup = {{PseudoKey({7u, 7u}), 7},
                                  {PseudoKey({200u, 200u}), 200}};
  EXPECT_EQ(store->InsertBatch(with_dup).code(), StatusCode::kAlreadyExists);
  auto landed = store->Get(PseudoKey({200u, 200u}));
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(*landed, 200u);

  std::vector<PseudoKey> doomed;
  for (uint32_t i = 0; i < 50; ++i) doomed.push_back(PseudoKey({i, i}));
  ASSERT_TRUE(store->DeleteBatch(doomed).ok());
  EXPECT_EQ(store->tree().Stats().records, 51u);
  // Missing keys report KeyError; present members of the batch still go.
  std::vector<PseudoKey> mixed = {PseudoKey({0u, 0u}), PseudoKey({99u, 99u})};
  EXPECT_EQ(store->DeleteBatch(mixed).code(), StatusCode::kKeyError);
  EXPECT_FALSE(store->Get(PseudoKey({99u, 99u})).ok());
  EXPECT_TRUE(store->tree().Validate().ok());
}

TEST(ConcurrentIndexTest, ConcurrentBatchesAndReadersStayCoherent) {
  auto store = OpenMemStore();
  // Stable region for the readers.
  std::vector<Record> stable;
  for (uint32_t i = 0; i < 300; ++i) stable.push_back({PseudoKey({i, i}), i});
  ASSERT_TRUE(store->InsertBatch(stable).ok());

  std::atomic<bool> failed{false};
  constexpr int kBatchWriters = 2;
  constexpr int kBatchesPerWriter = 40;
  constexpr uint32_t kSpan = 16;
  auto batcher = [&](int t) {
    const uint32_t base = static_cast<uint32_t>(t + 1) << 20;
    for (int b = 0; b < kBatchesPerWriter && !failed; ++b) {
      std::vector<Record> batch;
      for (uint32_t i = 0; i < kSpan; ++i) {
        const uint32_t c = base + static_cast<uint32_t>(b) * kSpan + i;
        batch.push_back({PseudoKey({c, c}), c});
      }
      if (!store->InsertBatch(batch).ok()) {
        failed = true;
        return;
      }
      if (b % 2 == 1) {  // churn: delete the previous batch
        std::vector<PseudoKey> keys;
        for (uint32_t i = 0; i < kSpan; ++i) {
          const uint32_t c = base + static_cast<uint32_t>(b - 1) * kSpan + i;
          keys.push_back(PseudoKey({c, c}));
        }
        if (!store->DeleteBatch(keys).ok()) {
          failed = true;
          return;
        }
      }
    }
  };
  auto reader = [&] {
    for (int i = 0; i < 5000 && !failed; ++i) {
      const uint32_t k = static_cast<uint32_t>(i) % 300;
      auto r = store->Get(PseudoKey({k, k}));
      if (!r.ok() || *r != k) {
        failed = true;
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kBatchWriters; ++t) threads.emplace_back(batcher, t);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed);
  EXPECT_TRUE(store->tree().Validate().ok());
  // Each writer churned away half its batches and kept the other half.
  const size_t kept = kBatchWriters * (kBatchesPerWriter / 2) * kSpan;
  EXPECT_EQ(store->tree().Stats().records, 300u + kept);
}

TEST(ConcurrentIndexTest, ParallelReadersOverStaticTree) {
  auto store = OpenMemStore();
  auto keys =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 71}, 5000);
  std::vector<Record> records;
  for (size_t i = 0; i < keys.size(); ++i) records.push_back({keys[i], i});
  ASSERT_TRUE(store->InsertBatch(records).ok());
  std::atomic<uint64_t> found{0};
  std::atomic<bool> failed{false};
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
      const size_t pos = rng.Uniform(keys.size());
      auto r = store->Get(keys[pos]);
      if (!r.ok() || *r != pos) {
        failed = true;
        return;
      }
      found.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(reader, 100 + t);
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(found.load(), 4u * 4000u);
}

// Three readers of a stable key set beside one writer of clustered
// inserts and deletes.  The inserts split the root, and a balanced split
// destroys the old root's id, which a later node may recycle: a reader
// that descended from a recycled root id would answer KeyError for a
// present key (DESIGN.md §13, "Hand-over-hand descent").
TEST(ConcurrentIndexTest, MixedReadersAndWriters) {
  auto store = OpenMemStore();
  // Preload a stable read set.
  auto stable =
      workload::GenerateKeys(workload::WorkloadSpec{.seed = 72}, 2000);
  for (size_t i = 0; i < stable.size(); ++i) {
    ASSERT_TRUE(store->Put(stable[i], i).ok());
  }
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    workload::WorkloadSpec spec;
    spec.seed = 73;
    spec.distribution = workload::Distribution::kClustered;
    workload::KeyGenerator gen(spec);
    std::vector<PseudoKey> mine;
    Rng rng(74);
    for (int op = 0; op < 3000; ++op) {
      if (rng.NextBool(0.3) && !mine.empty()) {
        const size_t pos = rng.Uniform(mine.size());
        if (!store->Delete(mine[pos]).ok()) {
          failed = true;
          break;
        }
        mine[pos] = mine.back();
        mine.pop_back();
      } else {
        PseudoKey key = gen.Next();
        if (!store->Put(key, 1000000 + op).ok()) {
          failed = true;
          break;
        }
        mine.push_back(key);
      }
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      while (!stop.load()) {
        const size_t pos = rng.Uniform(stable.size());
        auto r = store->Get(stable[pos]);
        if (!r.ok() || *r != pos) {
          failed = true;
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_TRUE(store->tree().Validate().ok());
  EXPECT_GE(store->tree().Stats().records, 2000u)
      << "stable keys never touched";
  // All stable keys still present with their payloads.
  for (size_t i = 0; i < stable.size(); ++i) {
    auto r = store->Get(stable[i]);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, i);
  }
}

TEST(ConcurrentIndexTest, ConcurrentRangeQueriesSeeConsistentSnapshots) {
  auto store = OpenMemStore();
  // Writer inserts pairs (k, k) so every snapshot of a full-domain range
  // has a verifiable internal property: payload == first component / 1000.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (uint32_t i = 0; i < 4000; ++i) {
      if (!store->Put(PseudoKey({i * 1000, i * 1000}), i).ok()) {
        failed = true;
        break;
      }
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      RangePredicate pred(store->schema());
      pred.Constrain(0, 0, 1000u * 4000u);
      std::vector<Record> out;
      if (!store->Range(pred, &out).ok()) {
        failed = true;
        return;
      }
      for (const Record& rec : out) {
        if (rec.payload * 1000 != rec.key.component(0)) {
          failed = true;
          return;
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(store->tree().Stats().records, 4000u);
}

}  // namespace
}  // namespace bmeh
