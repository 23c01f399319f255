// Stress tests for the optimistic (lock-free) read path, written to run
// under ThreadSanitizer: reader threads descend the published structure
// with version validation while a writer mutates a small hot domain and
// a splitter forces directory growth by streaming fresh keys into
// capacity-4 pages.  The read plane's retry, fallback and degraded-tree
// behaviour is checked through both of its owners, ConcurrentIndex and
// BmehStore.
//
// Torn reads are detectable by construction: every record's payload is a
// pure function of its key, so any payload mismatch on a successful read
// means a reader observed a half-published state.  Failures are counted
// in atomics and asserted on the main thread.
//
// Seeded from BMEH_STRESS_SEED (default fixed) so a failure reproduces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/metrics/experiment.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"
#include "src/store/concurrent_index.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

uint64_t StressSeed() {
  const char* v = std::getenv("BMEH_STRESS_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 20260809ull;
}

uint64_t PayloadFor(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

uint64_t PayloadOf(const PseudoKey& key) {
  return PayloadFor(key.component(0), key.component(1));
}

// One read/write surface over both read-plane owners, so a scenario runs
// unchanged against ConcurrentIndex and BmehStore.
Status Put(ConcurrentIndex* c, const PseudoKey& k, uint64_t v) {
  return c->Insert(k, v);
}
Status Put(BmehStore* s, const PseudoKey& k, uint64_t v) {
  return s->Put(k, v);
}
Status Del(ConcurrentIndex* c, const PseudoKey& k) { return c->Delete(k); }
Status Del(BmehStore* s, const PseudoKey& k) { return s->Delete(k); }
Result<uint64_t> Get(ConcurrentIndex* c, const PseudoKey& k) {
  return c->Search(k);
}
Result<uint64_t> Get(BmehStore* s, const PseudoKey& k) { return s->Get(k); }
Status Scan(ConcurrentIndex* c, const RangePredicate& p,
            std::vector<Record>* out) {
  return c->RangeSearch(p, out);
}
Status Scan(BmehStore* s, const RangePredicate& p, std::vector<Record>* out) {
  return s->Range(p, out);
}

// No-op sleeps: conflict backoff becomes a pure retry loop, so the
// stress spends its whole budget racing instead of parked in nanosleep.
class ScopedNoSleep {
 public:
  ScopedNoSleep() {
    SetSleepHookForTesting([](uint64_t) {});
  }
  ~ScopedNoSleep() { SetSleepHookForTesting(nullptr); }
};

struct Harness {
  explicit Harness(int page_capacity = 4) {
    KeySchema schema(2, 31);
    auto owned =
        metrics::MakeIndex(metrics::Method::kBmehTree, schema, page_capacity);
    tree = dynamic_cast<BmehTree*>(owned.get());
    index = std::make_unique<ConcurrentIndex>(std::move(owned), &registry);
  }

  obs::MetricsRegistry registry;
  BmehTree* tree = nullptr;  // borrowed; owned by index
  std::unique_ptr<ConcurrentIndex> index;
};

// An in-memory BmehStore with capacity-4 pages, charging `registry`.
std::unique_ptr<BmehStore> OpenMemStore(obs::MetricsRegistry* registry) {
  StoreOptions opts;
  opts.tree = TreeOptions::Make(2, 4);
  opts.metrics = registry;
  return BmehStore::Open(std::make_unique<InMemoryPageStore>(), opts)
      .ValueOrDie();
}

TEST(OlcReadStressTest, ReadersWritersSplitterNoTornReads) {
  ScopedNoSleep no_sleep;
  Harness h;
  ASSERT_NE(h.tree, nullptr);
  ASSERT_TRUE(h.index->optimistic_reads_enabled());

  // Widen each commit's publication window a little so readers actually
  // collide with in-flight commits on small machines.
  h.tree->SetCommitHookForTesting([] { std::this_thread::yield(); });

  const uint64_t seed = StressSeed();
  SCOPED_TRACE("BMEH_STRESS_SEED=" + std::to_string(seed));

  // Hot domain the writer toggles; the splitter streams unique keys from
  // a disjoint region (top bit set) to keep pages splitting underneath.
  constexpr uint32_t kHot = 64;
  constexpr uint32_t kSplitBase = 1u << 30;
  constexpr int kWriterOps = 1500;
  constexpr int kSplitterOps = 800;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};         // payload mismatches (must stay 0)
  std::atomic<uint64_t> bad_status{0};   // non-OK, non-KeyError reads
  std::atomic<uint64_t> reads_done{0};
  std::atomic<uint64_t> ranges_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed + 1000 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kHot));
        const uint32_t b = static_cast<uint32_t>(rng.Uniform(kHot));
        auto got = h.index->Search(PseudoKey({a, b}));
        if (got.ok()) {
          if (*got != PayloadFor(a, b)) torn.fetch_add(1);
        } else if (!got.status().IsKeyError()) {
          bad_status.fetch_add(1);
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);

        if ((reads_done.load(std::memory_order_relaxed) & 15u) == 0) {
          RangePredicate pred(h.index->schema());
          pred.Constrain(0, 0, kHot - 1);
          pred.Constrain(1, 0, kHot - 1);
          std::vector<Record> out;
          Status st = h.index->RangeSearch(pred, &out);
          if (st.ok()) {
            for (const Record& rec : out) {
              if (rec.payload != PayloadFor(rec.key.component(0),
                                            rec.key.component(1))) {
                torn.fetch_add(1);
              }
            }
          } else {
            bad_status.fetch_add(1);
          }
          ranges_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread writer([&] {
    Rng rng(seed);
    for (int i = 0; i < kWriterOps; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(kHot));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(kHot));
      const PseudoKey key({a, b});
      if (rng.NextDouble() < 0.65) {
        Status st = h.index->Insert(key, PayloadFor(a, b));
        if (!st.ok() && !st.IsAlreadyExists()) bad_status.fetch_add(1);
      } else {
        Status st = h.index->Delete(key);
        if (!st.ok() && !st.IsKeyError()) bad_status.fetch_add(1);
      }
    }
  });

  std::thread splitter([&] {
    for (uint32_t i = 0; i < kSplitterOps; ++i) {
      const uint32_t a = kSplitBase + i;
      const uint32_t b = kSplitBase ^ (i * 2654435761u) % (1u << 30);
      Status st = h.index->Insert(PseudoKey({a, b}), PayloadFor(a, b));
      if (!st.ok() && !st.IsAlreadyExists()) bad_status.fetch_add(1);
    }
  });

  writer.join();
  splitter.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "optimistic reader observed a torn record";
  EXPECT_EQ(bad_status.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(ranges_done.load(), 0u);
  EXPECT_TRUE(h.index->Validate().ok());

  const auto snap = h.registry.Snapshot();
  // Retries + fallbacks both funnel through the retry counter first, so
  // "the retry machinery engaged" is observable from one counter.  The
  // commit hook makes conflicts overwhelmingly likely even single-core;
  // the deterministic test below guarantees one regardless.
  EXPECT_GT(snap.counter("index_searches_total"), 0u);
  EXPECT_GT(snap.counter("index_ranges_total"), 0u);
}

// Deterministic conflict: the commit hook parks the writer mid-commit
// (publication seq odd) until the reader has charged a retry for every
// optimistic attempt.  A seqlock-validated range read in that window MUST
// conflict each time, so it ends in the shared-lock fallback — which
// waits for the writer to finish and still returns a coherent answer.
// `prefix` names the owner's retry counters ("index_" / "store_").
template <typename Owner>
void ParkedCommitForcesFallback(Owner* owner, BmehTree* tree,
                                obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  ASSERT_TRUE(Put(owner, PseudoKey({1u, 1u}), PayloadFor(1, 1)).ok());

  obs::Counter* retries = registry->GetCounter(prefix + "read_retries_total");
  const auto attempts = static_cast<uint64_t>(ReadPlane::kOptimisticAttempts);
  std::atomic<bool> in_commit{false};
  tree->SetCommitHookForTesting([&] {
    in_commit.store(true, std::memory_order_release);
    // Bounded: the reader needs no lock we hold to burn its attempts.
    while (retries->value() < attempts) std::this_thread::yield();
  });

  std::thread reader([&] {
    while (!in_commit.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    RangePredicate pred(owner->schema());
    std::vector<Record> out;
    ASSERT_TRUE(Scan(owner, pred, &out).ok());
    ASSERT_EQ(out.size(), 2u);
    for (const Record& rec : out) EXPECT_EQ(rec.payload, PayloadOf(rec.key));
  });

  ASSERT_TRUE(Put(owner, PseudoKey({2u, 2u}), PayloadFor(2, 2)).ok());
  reader.join();
  tree->SetCommitHookForTesting(nullptr);

  const auto snap = registry->Snapshot();
  EXPECT_GE(snap.counter(prefix + "read_retries_total"), attempts);
  EXPECT_GE(snap.counter(prefix + "read_fallbacks_total"), 1u);
  // The fallback path (not a late success) served the read, so the
  // retried-success histogram may be empty; it must exist either way.
  ASSERT_NE(snap.histogram("range_retried_latency_ns"), nullptr);
}

TEST(OlcReadStressTest, RetryCounterAdvancesOnGuaranteedConflict) {
  ScopedNoSleep no_sleep;
  {
    SCOPED_TRACE("ConcurrentIndex");
    Harness h;
    ASSERT_NE(h.tree, nullptr);
    ParkedCommitForcesFallback(h.index.get(), h.tree, &h.registry, "index_");
  }
  {
    SCOPED_TRACE("BmehStore");
    obs::MetricsRegistry registry;
    auto store = OpenMemStore(&registry);
    ParkedCommitForcesFallback(store.get(), store->mutable_tree(), &registry,
                               "store_");
  }
}

// Runs `read` on a fresh thread while parked threads lease every slot of
// the global epoch manager — the one the read plane pins — so the read's
// guard comes back unpinned.
void WithEpochSlotsExhausted(const std::function<void()>& read) {
  epoch::EpochManager* mgr = epoch::EpochManager::Global();
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool release = false;
  std::vector<std::thread> holders;
  for (int i = 0; i < epoch::EpochManager::kMaxThreads; ++i) {
    holders.emplace_back([&] {
      // The lease outlives the guard: the slot stays taken until this
      // thread exits.
      { epoch::Guard g(mgr); }
      std::unique_lock<std::mutex> lock(mu);
      ++ready;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == epoch::EpochManager::kMaxThreads; });
  }
  std::thread reader([&] {
    {
      epoch::Guard probe(mgr);
      EXPECT_FALSE(probe.pinned()) << "an epoch slot is still free";
    }
    read();
  });
  reader.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : holders) t.join();
}

TEST(OlcReadStressTest, UnpinnedGuardFallsBackOnStore) {
  obs::MetricsRegistry registry;
  auto store = OpenMemStore(&registry);
  ASSERT_TRUE(store->optimistic_reads_enabled());
  const PseudoKey key({3u, 4u});
  ASSERT_TRUE(store->Put(key, PayloadOf(key)).ok());

  WithEpochSlotsExhausted([&] {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, PayloadOf(key));
  });

  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("store_read_fallbacks_total"), 1u);
  EXPECT_EQ(snap.counter("store_read_retries_total"), 0u);
}

TEST(OlcReadStressTest, UnpinnedGuardFallsBackOnIndex) {
  Harness h;
  ASSERT_TRUE(h.index->optimistic_reads_enabled());
  const PseudoKey key({3u, 4u});
  ASSERT_TRUE(h.index->Insert(key, PayloadOf(key)).ok());

  WithEpochSlotsExhausted([&] {
    RangePredicate pred(h.index->schema());
    std::vector<Record> out;
    ASSERT_TRUE(h.index->RangeSearch(pred, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].key, key);
    EXPECT_EQ(out[0].payload, PayloadOf(key));
  });

  const auto snap = h.registry.Snapshot();
  EXPECT_EQ(snap.counter("index_read_fallbacks_total"), 1u);
  EXPECT_EQ(snap.counter("index_read_retries_total"), 0u);
}

constexpr int kDegradedPageSize = 512;

StoreOptions DegradedOpts() {
  StoreOptions o;
  o.tree = TreeOptions::Make(2, 8);
  o.page_size = kDegradedPageSize;
  o.wal_sync_every = 0;
  return o;
}

// Builds a store file whose checkpoint image lost its last page to bit
// rot, as in the corruption matrix's
// ImageTailCorruptionQuarantinesOnlyLostBuckets: the tail lies deep in
// the serialized pages section, so the directory survives and a tolerant
// load quarantines only the buckets whose records sat on that page.  `keys` receives every stored key (payload =
// PayloadOf(key)); `image_head` the image chain's first page.
void BuildDegradedStoreFile(const std::string& path,
                            std::vector<PseudoKey>* keys,
                            PageId* image_head) {
  std::remove(path.c_str());
  {
    auto store = BmehStore::Open(path, DegradedOpts());
    ASSERT_TRUE(store.ok()) << store.status();
    for (uint32_t i = 1; i <= 300; ++i) {
      keys->push_back(PseudoKey({(i * 2654435761u) & 0x7fffffffu, i}));
      ASSERT_TRUE((*store)->Put(keys->back(), PayloadOf(keys->back())).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }
  auto info = BmehStore::Inspect(path);
  ASSERT_TRUE(info.ok()) << info.status();
  *image_head = info->image_head;
  PageId victim = kInvalidPageId;
  {
    auto file = FilePageStore::OpenForRecovery(path);
    ASSERT_TRUE(file.ok()) << file.status();
    std::vector<uint8_t> buf(kDegradedPageSize);
    for (PageId id = info->image_head; id != kInvalidPageId;) {
      victim = id;
      ASSERT_TRUE((*file)->Read(id, buf).ok());
      std::memcpy(&id, buf.data(), 4);
    }
  }
  ASSERT_NE(victim, kInvalidPageId);
  const long offset =
      static_cast<long>(victim) *
          (kDegradedPageSize + FilePageStore::kPageTrailerSize) +
      77;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char byte = 0;
  f.seekg(offset);
  ASSERT_TRUE(f.read(&byte, 1));
  byte = static_cast<char>(byte ^ 0xff);
  f.seekp(offset);
  ASSERT_TRUE(f.write(&byte, 1));
}

// Two readers (Get sweeps plus a full-domain Range) beside one writer
// that deletes and re-inserts keys in healthy buckets.  Lock-free reads
// of a degraded tree must stay exact: keys in a quarantined bucket always
// answer DataLoss, keys present throughout always answer their payload,
// and Range answers DataLoss with only genuine records, every key present
// throughout among them.
template <typename Owner>
void DegradedReadsStayExact(Owner* owner, BmehTree* tree,
                            const std::vector<PseudoKey>& keys) {
  ScopedNoSleep no_sleep;
  std::vector<PseudoKey> stable, churn, lost;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto got = Get(owner, keys[i]);
    if (got.ok()) {
      ASSERT_EQ(*got, PayloadOf(keys[i]));
      (i % 4 == 0 ? churn : stable).push_back(keys[i]);
    } else {
      ASSERT_TRUE(got.status().IsDataLoss()) << got.status();
      lost.push_back(keys[i]);
    }
  }
  ASSERT_FALSE(lost.empty()) << "the fixture must quarantine some bucket";
  ASSERT_FALSE(stable.empty());
  ASSERT_FALSE(churn.empty());
  const std::set<PseudoKey> genuine(keys.begin(), keys.end());

  // Widen each commit's publication window so readers collide with it.
  tree->SetCommitHookForTesting([] { std::this_thread::yield(); });
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> passes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const RangePredicate all(owner->schema());
      do {
        for (const PseudoKey& k : stable) {
          auto got = Get(owner, k);
          if (!got.ok() || *got != PayloadOf(k)) wrong.fetch_add(1);
        }
        for (const PseudoKey& k : lost) {
          if (!Get(owner, k).status().IsDataLoss()) wrong.fetch_add(1);
        }
        for (const PseudoKey& k : churn) {
          auto got = Get(owner, k);
          if (got.ok() ? *got != PayloadOf(k) : !got.status().IsKeyError()) {
            wrong.fetch_add(1);
          }
        }
        std::vector<Record> out;
        if (!Scan(owner, all, &out).IsDataLoss()) wrong.fetch_add(1);
        std::set<PseudoKey> seen;
        for (const Record& rec : out) {
          if (genuine.count(rec.key) == 0 ||
              rec.payload != PayloadOf(rec.key) ||
              !seen.insert(rec.key).second) {
            wrong.fetch_add(1);
          }
        }
        for (const PseudoKey& k : stable) {
          if (seen.count(k) == 0) wrong.fetch_add(1);
        }
        passes.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  std::thread writer([&] {
    for (int round = 0; round < 3; ++round) {
      for (const PseudoKey& k : churn) {
        if (!Del(owner, k).ok()) write_errors.fetch_add(1);
        if (!Put(owner, k, PayloadOf(k)).ok()) write_errors.fetch_add(1);
      }
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  tree->SetCommitHookForTesting(nullptr);

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(write_errors.load(), 0u);
  EXPECT_GE(passes.load(), 2u);
}

TEST(OlcReadStressTest, DegradedStoreReadsLockFree) {
  const std::string path =
      ::testing::TempDir() + "/bmeh_olc_degraded_store.db";
  std::vector<PseudoKey> keys;
  PageId head = kInvalidPageId;
  ASSERT_NO_FATAL_FAILURE(BuildDegradedStoreFile(path, &keys, &head));
  {
    auto opened = BmehStore::Open(path, DegradedOpts());
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto store = std::move(opened).ValueOrDie();
    ASSERT_TRUE(store->degraded());
    ASSERT_GT(store->recovery_report().quarantined_buckets, 0u);
    ASSERT_TRUE(store->optimistic_reads_enabled());
    DegradedReadsStayExact(store.get(), store->mutable_tree(), keys);
  }
  std::remove(path.c_str());
}

TEST(OlcReadStressTest, DegradedIndexReadsLockFree) {
  const std::string path =
      ::testing::TempDir() + "/bmeh_olc_degraded_index.db";
  std::vector<PseudoKey> keys;
  PageId head = kInvalidPageId;
  ASSERT_NO_FATAL_FAILURE(BuildDegradedStoreFile(path, &keys, &head));
  std::unique_ptr<BmehTree> loaded;
  {
    auto file = FilePageStore::OpenForRecovery(path);
    ASSERT_TRUE(file.ok()) << file.status();
    TreeLoadReport report;
    auto tree = BmehTree::LoadFromTolerant(file->get(), head, &report);
    ASSERT_TRUE(tree.ok()) << tree.status();
    loaded = std::move(tree).ValueOrDie();
  }
  std::remove(path.c_str());
  ASSERT_TRUE(loaded->degraded());
  BmehTree* tree = loaded.get();
  ConcurrentIndex index(std::move(loaded));
  ASSERT_TRUE(index.optimistic_reads_enabled());
  DegradedReadsStayExact(&index, tree, keys);
}

TEST(OlcReadStressTest, MidPublishPageSplitConflictsInsteadOfKeyError) {
  // Linearizability regression.  SplitPageGroup used to reuse the old
  // page id for the LEFT half.  Pages publish before nodes, so in the
  // mid-publish window a reader could pair the stale pre-split node
  // (routing the whole region to the old id) with the already-republished
  // page (now holding only the left half): both version validations pass,
  // and a present key that moved to the right half came back as a
  // definitive KeyError.  Both halves now take fresh ids and the old id
  // is tombstoned, so the stale pairing hits a null slot and surfaces as
  // a conflict (retry) instead of a wrong answer.
  Harness h(/*page_capacity=*/2);
  ASSERT_NE(h.tree, nullptr);

  const uint32_t kHighBit = 1u << 30;  // MSB of a width-31 component.
  const PseudoKey low({0u, 0u});
  const PseudoKey high({kHighBit, 0u});
  ASSERT_TRUE(h.index->Insert(low, PayloadFor(0, 0)).ok());
  ASSERT_TRUE(h.index->Insert(high, PayloadFor(kHighBit, 0)).ok());

  // The third insert overflows the capacity-2 page and splits it.  The
  // hook runs on the writer thread inside the exact hazard window: page
  // slots published, node slots still pre-split.
  std::atomic<int> windows{0};
  h.tree->SetMidPublishHookForTesting([&] {
    windows.fetch_add(1, std::memory_order_relaxed);
    for (const PseudoKey* key : {&low, &high}) {
      epoch::Guard g(epoch::EpochManager::Global());
      ASSERT_TRUE(g.pinned());
      bool conflict = false;
      auto got = h.tree->SearchOptimistic(*key, &conflict);
      // A present key may conflict mid-publish but must never read as a
      // clean miss.
      EXPECT_TRUE(conflict || got.ok())
          << "spurious KeyError for present key mid-publish: "
          << key->ToString();
      if (got.ok()) {
        EXPECT_EQ(*got, PayloadFor(key->component(0), key->component(1)));
      }
    }
  });
  ASSERT_TRUE(h.index->Insert(PseudoKey({1u, 1u}), PayloadFor(1, 1)).ok());
  h.tree->SetMidPublishHookForTesting(nullptr);
  ASSERT_GE(windows.load(), 1) << "split commit never hit the hook window";

  // Post-commit, everything is found through the public read path.
  for (const auto& [a, b] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0u, 0u}, {kHighBit, 0u}, {1u, 1u}}) {
    auto got = h.index->Search(PseudoKey({a, b}));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, PayloadFor(a, b));
  }
}

TEST(OlcReadStressTest, MetricsSnapshotRacesLockFreeReadersAndWriter) {
  // Regression for the stat-sampling race: the registry source used to
  // read tree shape through writer-view accessors, racing the writer's
  // copy-on-write scope.  It now samples the published structure under
  // an epoch guard with version validation; TSan enforces that here.
  ScopedNoSleep no_sleep;
  Harness h;
  ASSERT_NE(h.tree, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_gauge{0};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = h.registry.Snapshot();
      // Shape gauges must always be internally coherent — a torn sample
      // shows up as e.g. nodes without entries.
      if (snap.gauge("index_directory_nodes") < 1) bad_gauge.fetch_add(1);
      if (snap.gauge("index_records") < 0) bad_gauge.fetch_add(1);
    }
  });

  std::thread reader([&] {
    Rng rng(StressSeed() + 7);
    while (!stop.load(std::memory_order_acquire)) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(128));
      (void)h.index->Search(PseudoKey({a, a}));
    }
  });

  Rng rng(StressSeed());
  for (int i = 0; i < 1500; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(128));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(128));
    if (rng.NextDouble() < 0.7) {
      (void)h.index->Insert(PseudoKey({a, b}), PayloadFor(a, b));
    } else {
      (void)h.index->Delete(PseudoKey({a, b}));
    }
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  reader.join();

  EXPECT_EQ(bad_gauge.load(), 0u);
  const auto final_snap = h.registry.Snapshot();
  EXPECT_EQ(final_snap.gauge("index_records"),
            static_cast<int64_t>(h.index->Stats().records));
}

// A leader parked inside its WAL fsync holds the operation lock
// exclusively.  Get and Range of committed keys still answer, lock-free
// and without a fallback, before the fsync returns.
TEST(OlcReadStressTest, ReadsDoNotWaitForALeadersFsync) {
  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.tree = TreeOptions::Make(2, 4);
  opts.wal_sync_every = 1;
  opts.metrics = &registry;
  auto device =
      std::make_unique<testing::LatchedSyncPageStore>(opts.page_size);
  testing::LatchedSyncPageStore* latch = device.get();
  auto opened = BmehStore::Open(std::move(device), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  constexpr uint32_t kKeys = 64;
  for (uint32_t a = 0; a < kKeys; ++a) {
    ASSERT_TRUE(store->Put(PseudoKey({a, a}), PayloadFor(a, a)).ok());
  }

  latch->Hold(true);
  const uint64_t syncs_before = latch->syncs();
  std::thread writer([&] {
    EXPECT_TRUE(store->Put(PseudoKey({kKeys, kKeys}), 1).ok());
  });
  latch->AwaitSyncs(syncs_before + 1);  // the leader is inside its fsync

  auto reads = std::async(std::launch::async, [&] {
    auto got = store->Get(PseudoKey({7u, 7u}));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, PayloadFor(7, 7));
    RangePredicate pred(store->schema());
    pred.Constrain(0, 0, kKeys - 1);
    std::vector<Record> out;
    ASSERT_TRUE(store->Range(pred, &out).ok());
    EXPECT_EQ(out.size(), kKeys);
    for (const Record& rec : out) EXPECT_EQ(rec.payload, PayloadOf(rec.key));
  });
  const bool answered =
      reads.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Release before asserting, so a read stuck behind the fsync fails the
  // test instead of hanging it.
  latch->Hold(false);
  writer.join();
  reads.get();
  EXPECT_TRUE(answered) << "a read waited out the leader's fsync";
  EXPECT_EQ(registry.Snapshot().counter("store_read_fallbacks_total"), 0u);
}

}  // namespace
}  // namespace bmeh
