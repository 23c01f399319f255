// Tests of the shared commit path.  Two deterministic cases freeze a
// commit leader inside its fsync while three writers queue behind it, then
// check that they share one WAL append and one fsync with their own
// outcomes and LSNs, and that a failed auto-checkpoint after their commit
// reaches every one of them.  A multi-threaded stress case, designed to
// run under ThreadSanitizer, has several writer threads issue
// single-record mutations through the writer queue while an
// explicit-batch thread races WriteBatch applications against them,
// readers hammer a stable preloaded region, and a metrics sampler
// snapshots the registry (whose sources take the store's shared lock)
// against all of it.
//
// Every stress record carries the invariant payload == component(0), so a
// torn read or lost update shows up as a concrete value mismatch, not just
// a sanitizer report.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/obs/metrics.h"
#include "src/obs/oplog.h"
#include "src/pagestore/fault_injecting_page_store.h"
#include "src/store/bmeh_store.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

// Sized to stay fast under TSan's ~10x slowdown while still giving the
// scheduler plenty of interleavings (and queued writers plenty of
// chances to share commits).
constexpr int kWriters = 3;
constexpr int kOpsPerWriter = 250;
constexpr int kExplicitBatches = 30;
constexpr int kBatchSpan = 8;
constexpr uint32_t kStableKeys = 200;
constexpr uint32_t kRegion = 1u << 20;  // writer t owns [(t+1)*kRegion, ...)

// Same reproducibility scheme as concurrent_stress_test: one base seed
// (override with BMEH_STRESS_SEED) fanned out per thread via SplitMix64.
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

using testing::LatchedSyncPageStore;

class CaptureSink : public LogSink {
 public:
  void WriteLine(std::string_view line) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.emplace_back(line);
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

/// The text after `"field":` in a wide-event line, up to the next ',' or
/// '}', with quotes stripped.
std::string Field(const std::string& line, const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  const size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const size_t begin = at + tag.size();
  std::string value = line.substr(begin, line.find_first_of(",}", begin) - begin);
  value.erase(std::remove(value.begin(), value.end(), '"'), value.end());
  return value;
}

void WaitForQueued(BmehStore* store, size_t n) {
  while (store->QueuedWritersForTesting() < n) std::this_thread::yield();
}

StoreOptions QueueTestOptions() {
  StoreOptions opts;
  opts.schema = KeySchema(2, 31);
  opts.tree = TreeOptions::Make(2, 8);
  opts.page_size = 512;
  opts.wal_sync_every = 1;
  return opts;
}

/// What each writer of RunQueuedGroup got back.
struct QueuedGroup {
  Status leader, put, dup, batch;
  std::vector<Status> per_record;
};

/// Holds a leader's Put inside its fsync while a Put, a duplicate Put and
/// a 3-record WriteBatch queue behind it, in that order, then releases
/// the fsync and waits for all four writers.
QueuedGroup RunQueuedGroup(BmehStore* store, LatchedSyncPageStore* latch) {
  QueuedGroup out;
  latch->Hold(true);
  const uint64_t syncs_before = latch->syncs();
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { out.leader = store->Put(PseudoKey({10, 10}), 10); });
  latch->AwaitSyncs(syncs_before + 1);  // the leader is inside its fsync
  threads.emplace_back([&] { out.put = store->Put(PseudoKey({1, 1}), 1); });
  WaitForQueued(store, 2);
  threads.emplace_back([&] { out.dup = store->Put(PseudoKey({1, 1}), 2); });
  WaitForQueued(store, 3);
  threads.emplace_back([&] {
    WriteBatch batch;
    batch.Put(PseudoKey({2, 2}), 2);
    batch.Delete(PseudoKey({10, 10}));
    batch.Delete(PseudoKey({3, 3}));  // absent
    out.batch = store->Write(batch, &out.per_record);
  });
  WaitForQueued(store, 4);
  latch->Hold(false);
  for (auto& th : threads) th.join();
  return out;
}

/// The batch's own outcomes in RunQueuedGroup: insert, delete of the
/// leader's key, delete of an absent key.
void ExpectBatchOutcomes(const std::vector<Status>& per_record) {
  ASSERT_EQ(per_record.size(), 3u);
  EXPECT_TRUE(per_record[0].ok()) << per_record[0];
  EXPECT_TRUE(per_record[1].ok()) << per_record[1];
  EXPECT_TRUE(per_record[2].IsKeyError()) << per_record[2];
}

// Once the leader's fsync returns, the three queued writers commit
// together: one WAL append and one fsync, each with its own outcome and
// the LSN of its own last record, in queue order.
TEST(GroupCommitStressTest, QueuedWritersShareOneAppendAndOneSync) {
  obs::MetricsRegistry registry;
  auto sink = std::make_shared<CaptureSink>();
  obs::OpLog oplog(sink);
  StoreOptions opts = QueueTestOptions();
  opts.metrics = &registry;
  opts.oplog = &oplog;
  auto device = std::make_unique<LatchedSyncPageStore>(opts.page_size);
  LatchedSyncPageStore* latch = device.get();
  auto opened = BmehStore::Open(std::move(device), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  const uint64_t syncs_at_open = latch->syncs();

  const QueuedGroup got = RunQueuedGroup(store.get(), latch);
  const std::vector<std::string> lines = sink->lines();
  EXPECT_TRUE(got.leader.ok()) << got.leader;
  EXPECT_TRUE(got.put.ok()) << got.put;
  EXPECT_TRUE(got.dup.IsAlreadyExists()) << got.dup;
  EXPECT_TRUE(got.batch.IsKeyError()) << got.batch;
  ExpectBatchOutcomes(got.per_record);
  auto payload = store->Get(PseudoKey({1, 1}));
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, 1u) << "the first queued Put must apply first";

  // Two commits in all — the leader's and the group's — each one WAL
  // append and one fsync.
  EXPECT_EQ(latch->syncs(), syncs_at_open + 2);
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::HistogramSnapshot* appends =
      snap.histogram("wal_append_latency_ns");
  ASSERT_NE(appends, nullptr);
  EXPECT_EQ(appends->count, 2u);
  const obs::HistogramSnapshot* sizes = snap.histogram("wal_batch_records");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 2u);
  EXPECT_EQ(sizes->max, 5u);
  EXPECT_EQ(snap.counter("wal_appends_total"), 6u);
  EXPECT_EQ(snap.counter("store_batch_writes_total"), 1u);
  EXPECT_EQ(store->wal_records(), 6u);
  EXPECT_EQ(store->dirty_ops(), 6u);

  // Each writer's wide event carries the LSN of its own last record:
  // consecutive in queue order, the batch three past the duplicate.
  std::vector<std::tuple<uint64_t, std::string, std::string>> events;
  for (const std::string& line : lines) {
    events.emplace_back(std::stoull(Field(line, "lsn")), Field(line, "op"),
                        Field(line, "status"));
  }
  std::sort(events.begin(), events.end());
  const std::vector<std::tuple<uint64_t, std::string, std::string>> want = {
      {1, "put", "OK"},
      {2, "put", "OK"},
      {3, "put", "AlreadyExists"},
      {6, "write_batch", "KeyError"}};
  EXPECT_EQ(events, want);
}

// The group's records push dirty_ops past checkpoint_every, and the
// auto-checkpoint's publish fsync fails: every member of the group
// returns that error, while the batch's per_record keeps each record's
// own outcome.
TEST(GroupCommitStressTest, FailedAutoCheckpointFailsEveryGroupMember) {
  StoreOptions opts = QueueTestOptions();
  opts.checkpoint_every = 5;
  auto latched = std::make_unique<LatchedSyncPageStore>(opts.page_size);
  LatchedSyncPageStore* latch = latched.get();
  auto device = std::make_unique<FaultInjectingPageStore>(std::move(latched));
  FaultInjectingPageStore* faults = device.get();
  auto opened = BmehStore::Open(std::move(device), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  // Syncs from here: the leader's publish, the group's fsync, then the
  // checkpoint's publish.
  faults->FailNthSync(faults->syncs_issued() + 2);

  const QueuedGroup got = RunQueuedGroup(store.get(), latch);
  EXPECT_TRUE(got.leader.ok()) << got.leader;
  EXPECT_TRUE(got.put.IsIoError()) << got.put;
  EXPECT_TRUE(got.dup.IsIoError()) << got.dup;
  EXPECT_TRUE(got.batch.IsIoError()) << got.batch;
  ExpectBatchOutcomes(got.per_record);
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_TRUE(store->Put(PseudoKey({4, 4}), 4).IsIoError()) << "poisoned";
  store->SimulateCrashForTesting();
}

TEST(GroupCommitStressTest, CoalescedWritersStayCoherentUnderBackpressure) {
  const uint64_t base_seed = BaseSeed();
  ::testing::Test::RecordProperty("bmeh_stress_seed",
                                  std::to_string(base_seed));

  obs::MetricsRegistry registry;
  StoreOptions opts;
  opts.schema = KeySchema(2, 31);
  opts.tree = TreeOptions::Make(2, 8);
  opts.page_size = 512;
  opts.wal_sync_every = 1;
  opts.checkpoint_every = 400;  // checkpoints race the writers too
  opts.metrics = &registry;

  auto opened =
      BmehStore::Open(std::make_unique<InMemoryPageStore>(opts.page_size),
                      opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();

  // Stable region: keys [0, kStableKeys) never mutated after preload.
  for (uint32_t i = 0; i < kStableKeys; ++i) {
    ASSERT_TRUE(store->Put(PseudoKey({i, i}), i).ok());
  }

  std::atomic<bool> failed{false};
  std::vector<std::vector<PseudoKey>> survivors(kWriters);

  // Single-record writers: their Puts/Deletes queue behind each other
  // and ride shared commits.
  auto writer = [&](int t) {
    const uint32_t base = static_cast<uint32_t>(t + 1) * kRegion;
    Rng rng(MixSeed(base_seed, static_cast<uint64_t>(t)));
    std::vector<PseudoKey> live;
    uint32_t serial = 0;
    for (int op = 0; op < kOpsPerWriter && !failed; ++op) {
      if (rng.NextDouble() < 0.2 && !live.empty()) {
        const size_t pos = rng.Uniform(live.size());
        if (!store->Delete(live[pos]).ok()) {
          failed = true;
          return;
        }
        live[pos] = live.back();
        live.pop_back();
      } else {
        const PseudoKey key({base + serial, serial});
        ++serial;
        if (!store->Put(key, key.component(0)).ok()) {
          failed = true;
          return;
        }
        live.push_back(key);
      }
    }
    survivors[t] = std::move(live);
  };

  // Explicit batches queue with the single-record writers: each
  // WriteBatch inserts a fresh span of keys in its own region.
  std::vector<PseudoKey> batch_keys;
  auto batch_writer = [&] {
    const uint32_t base = static_cast<uint32_t>(kWriters + 1) * kRegion;
    uint32_t serial = 0;
    for (int b = 0; b < kExplicitBatches && !failed; ++b) {
      WriteBatch batch;
      std::vector<PseudoKey> keys;
      for (int i = 0; i < kBatchSpan; ++i) {
        const PseudoKey key({base + serial, serial});
        ++serial;
        batch.Put(key, key.component(0));
        keys.push_back(key);
      }
      std::vector<Status> per_record;
      if (!store->Write(batch, &per_record).ok() ||
          per_record.size() != keys.size()) {
        failed = true;
        return;
      }
      for (const Status& st : per_record) {
        if (!st.ok()) {
          failed = true;
          return;
        }
      }
      batch_keys.insert(batch_keys.end(), keys.begin(), keys.end());
    }
  };

  // Readers: point lookups on the immutable preloaded region, plus
  // occasional full-domain scans checking the payload invariant.
  auto stable_reader = [&](int t) {
    Rng rng(MixSeed(base_seed, kWriters + 1 + static_cast<uint64_t>(t)));
    for (int i = 0; i < 4000 && !failed; ++i) {
      if (i % 200 == 199) {
        RangePredicate pred(opts.schema);
        std::vector<Record> out;
        if (!store->Range(pred, &out).ok() || out.size() < kStableKeys) {
          failed = true;
          return;
        }
        for (const Record& rec : out) {
          if (rec.payload != rec.key.component(0)) {
            failed = true;
            return;
          }
        }
        continue;
      }
      const uint32_t k = static_cast<uint32_t>(rng.Uniform(kStableKeys));
      auto r = store->Get(PseudoKey({k, k}));
      if (!r.ok() || *r != k) {
        failed = true;
        return;
      }
    }
  };

  // Metrics sampler: snapshots pull the store's and page store's sampled
  // sources (shared lock) while commit leaders hold/release the exclusive
  // side — the TSan target this test exists for.
  auto sampler = [&] {
    for (int i = 0; i < 150 && !failed; ++i) {
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
  threads.emplace_back(batch_writer);
  for (int t = 0; t < 2; ++t) threads.emplace_back(stable_reader, t);
  threads.emplace_back(sampler);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed) << "a concurrent operation observed corrupt state";

  // Quiescent cross-check: structure valid, population exactly the stable
  // region plus every thread's surviving keys.
  ASSERT_TRUE(store->tree().Validate().ok());
  size_t expected = kStableKeys + batch_keys.size();
  for (const auto& keys : survivors) expected += keys.size();
  EXPECT_EQ(store->tree().Stats().records, expected);
  for (uint32_t i = 0; i < kStableKeys; ++i) {
    auto r = store->Get(PseudoKey({i, i}));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, i);
  }
  for (const auto& keys : survivors) {
    for (const PseudoKey& key : keys) {
      auto r = store->Get(key);
      ASSERT_TRUE(r.ok()) << "missing " << key.ToString();
      ASSERT_EQ(*r, key.component(0));
    }
  }
  for (const PseudoKey& key : batch_keys) {
    auto r = store->Get(key);
    ASSERT_TRUE(r.ok()) << "missing " << key.ToString();
    ASSERT_EQ(*r, key.component(0));
  }

  // The metrics views agree: every Write call is counted once, and every
  // acknowledged mutation reached the WAL exactly once.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("store_batch_writes_total"),
            static_cast<uint64_t>(kExplicitBatches));
  const uint64_t singles =
      kStableKeys + kWriters * static_cast<uint64_t>(kOpsPerWriter);
  EXPECT_EQ(snap.counter("wal_appends_total"),
            singles + batch_keys.size());
}

}  // namespace
}  // namespace bmeh
