// Multi-threaded stress test for BmehStore over an in-memory page device,
// designed to run under ThreadSanitizer: several writers churn disjoint
// key regions while readers hammer a stable preloaded region, a scanner
// runs full-domain range queries and a sampler snapshots the store's
// metrics, all racing on the same store.  Every record carries the
// invariant payload == component(0), so any torn read or lost update shows
// up as a concrete value mismatch, not just a sanitizer report.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "src/obs/metrics.h"
#include "src/store/bmeh_store.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

// Sized to stay fast under TSan's ~10x slowdown while still giving the
// scheduler plenty of interleavings to shuffle.
constexpr int kWriters = 3;
constexpr int kOpsPerWriter = 500;
constexpr uint32_t kStableKeys = 400;
constexpr uint32_t kRegion = 1u << 20;  // writer t owns [(t+1)*kRegion, ...)

// Every thread's PRNG stream derives from one base seed (override with
// BMEH_STRESS_SEED to reproduce a failing schedule) through a SplitMix64
// finalizer, so streams are decorrelated without hand-picked magic offsets
// that silently collide when thread counts change.
uint64_t BaseSeed() {
  if (const char* env = std::getenv("BMEH_STRESS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807;
}

uint64_t MixSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(ConcurrentStressTest, MixedChurnReadersAndScansStayCoherent) {
  const uint64_t base_seed = BaseSeed();
  // GTest prints properties on failure output; rerun with
  // BMEH_STRESS_SEED=<value> to replay the same operation streams.
  ::testing::Test::RecordProperty("bmeh_stress_seed",
                                  std::to_string(base_seed));
  // Metrics attached so the stress doubles as a TSan check of the charge
  // paths (counters/histograms from op threads, source sampling from the
  // snapshot thread below).
  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.tree = TreeOptions::Make(2, /*b=*/8);
  opts.metrics = &registry;
  auto opened = BmehStore::Open(std::make_unique<InMemoryPageStore>(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  BmehStore& store = **opened;
  const KeySchema& schema = store.schema();

  // Stable region: keys [0, kStableKeys) never mutated after preload.
  for (uint32_t i = 0; i < kStableKeys; ++i) {
    ASSERT_TRUE(store.Put(PseudoKey({i, i}), i).ok());
  }

  std::atomic<bool> failed{false};
  std::vector<std::vector<PseudoKey>> survivors(kWriters);

  auto writer = [&](int t) {
    const uint32_t base = static_cast<uint32_t>(t + 1) * kRegion;
    Rng rng(MixSeed(base_seed, static_cast<uint64_t>(t)));
    std::vector<PseudoKey> live;
    uint32_t serial = 0;
    for (int op = 0; op < kOpsPerWriter && !failed; ++op) {
      const double roll = rng.NextDouble();
      if (roll < 0.25 && !live.empty()) {
        const size_t pos = rng.Uniform(live.size());
        if (!store.Delete(live[pos]).ok()) {
          failed = true;
          return;
        }
        live[pos] = live.back();
        live.pop_back();
      } else if (roll < 0.85 || live.empty()) {
        const PseudoKey key({base + serial, serial});
        ++serial;
        if (!store.Put(key, key.component(0)).ok()) {
          failed = true;
          return;
        }
        live.push_back(key);
      } else {
        const PseudoKey& probe = live[rng.Uniform(live.size())];
        auto r = store.Get(probe);
        if (!r.ok() || *r != probe.component(0)) {
          failed = true;
          return;
        }
      }
    }
    survivors[t] = std::move(live);
  };

  // Readers and the scanner run a fixed amount of work rather than
  // spinning until the writers finish: an unbounded scan loop mostly
  // measures lock contention and inflates the wall clock (badly so under
  // TSan) without adding interleavings.
  auto stable_reader = [&](int t) {
    // Reader streams live past the writer streams in seed space.
    Rng rng(MixSeed(base_seed, kWriters + static_cast<uint64_t>(t)));
    for (int i = 0; i < 20000 && !failed; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.Uniform(kStableKeys));
      auto r = store.Get(PseudoKey({k, k}));
      if (!r.ok() || *r != k) {
        failed = true;
        return;
      }
    }
  };

  auto scanner = [&] {
    for (int i = 0; i < 60 && !failed; ++i) {
      RangePredicate pred(schema);
      std::vector<Record> out;
      if (!store.Range(pred, &out).ok() || out.size() < kStableKeys) {
        failed = true;
        return;
      }
      for (const Record& rec : out) {
        if (rec.payload != rec.key.component(0)) {
          failed = true;
          return;
        }
      }
    }
  };

  // Metrics reader: snapshots (which sample the store's source under its
  // shared lock) and expositions racing against the operation threads.
  auto sampler = [&] {
    for (int i = 0; i < 100 && !failed; ++i) {
      const obs::RegistrySnapshot s = registry.Snapshot();
      if (s.gauge("tree_records") < 0) {
        failed = true;
        return;
      }
      (void)registry.TextExposition();
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) threads.emplace_back(writer, t);
  for (int t = 0; t < 2; ++t) threads.emplace_back(stable_reader, t);
  threads.emplace_back(scanner);
  threads.emplace_back(sampler);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed) << "a concurrent operation observed corrupt state";

  // Quiescent cross-check: structure valid, population exactly the stable
  // region plus every writer's surviving keys.
  ASSERT_TRUE(store.tree().Validate().ok());
  size_t expected = kStableKeys;
  for (const auto& keys : survivors) expected += keys.size();
  EXPECT_EQ(store.tree().Stats().records, expected);
  for (const auto& keys : survivors) {
    for (const PseudoKey& key : keys) {
      auto r = store.Get(key);
      ASSERT_TRUE(r.ok()) << "missing " << key.ToString();
      ASSERT_EQ(*r, key.component(0));
    }
  }
  for (uint32_t i = 0; i < kStableKeys; ++i) {
    auto r = store.Get(PseudoKey({i, i}));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, i);
  }

  // Quiescent metrics cross-check: the registry's view of the store
  // agrees with the store itself.
  const obs::RegistrySnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.gauge("tree_records"), static_cast<int64_t>(expected));
  EXPECT_GE(final_snap.counter("store_puts_total"), uint64_t{kStableKeys});
  EXPECT_GT(final_snap.counter("store_gets_total"), 0u);
  EXPECT_GT(final_snap.counter("store_ranges_total"), 0u);
  const obs::HistogramSnapshot* h =
      final_snap.histogram("search_latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, final_snap.counter("store_gets_total"));
}

}  // namespace
}  // namespace bmeh
