// Model-based differential test for BmehStore and ShardedStore: seeded
// random op sequences (insert / delete / search / range / batched writes
// / checkpoint / clean reopen / crash-reopen) run against both the store
// and a std::map-backed reference model, asserting identical observable
// results after every step and identical full contents at periodic sync
// points.
//
// The store runs file-backed with wal_sync_every = 1 and simulated
// process crashes (completed page writes survive, nothing else does), so
// a crash-reopen at a quiescent point must recover the model's state
// *exactly* — any divergence is a durability or batch-atomicity bug, not
// test noise.  Reproduce a failure by re-running with the seed printed in
// the failure message (BMEH_MODEL_CHECK_SEED / BMEH_MODEL_CHECK_OPS
// override the sweep).
//
// The same harness drives a ShardedStore directory with shards ∈
// {1, 2, 8}; a 1-shard ShardedStore must be behaviorally identical to a
// BmehStore, and the multi-shard runs must still match the model through
// per-shard batches, checkpoints and parallel crash recovery.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/store/sharded_store.h"

namespace bmeh {
namespace {

// Small component domain so duplicate inserts, deletes of absent keys and
// non-trivial range predicates arise constantly.
constexpr uint32_t kDomain = 48;

// Drives a file-backed BmehStore through the checker's lifecycle hooks.
class SingleStoreDriver {
 public:
  explicit SingleStoreDriver(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }

  static StoreOptions Opts() {
    StoreOptions o;
    o.schema = KeySchema(2, 31);
    o.tree = TreeOptions::Make(2, 8);
    o.page_size = 512;
    o.wal_sync_every = 1;
    o.checkpoint_every = 200;
    return o;
  }

  BmehStore* store() { return store_.get(); }

  void OpenFresh() {
    auto created = FilePageStore::Create(path_, Opts().page_size);
    ASSERT_TRUE(created.ok()) << created.status();
    auto file = std::move(created).ValueOrDie();
    file->DisableFsyncForTesting();
    raw_file_ = file.get();
    auto opened = BmehStore::Open(std::move(file), Opts());
    ASSERT_TRUE(opened.ok()) << opened.status();
    store_ = std::move(opened).ValueOrDie();
  }

  void Reopen() {
    auto recovered = FilePageStore::Open(path_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto file = std::move(recovered).ValueOrDie();
    file->DisableFsyncForTesting();
    raw_file_ = file.get();
    auto opened = BmehStore::Open(std::move(file), Opts());
    ASSERT_TRUE(opened.ok()) << opened.status();
    store_ = std::move(opened).ValueOrDie();
  }

  void CleanClose() { store_.reset(); }  // destructor checkpoints

  void Crash() {
    store_->SimulateCrashForTesting();
    raw_file_->CrashForTesting();
    store_.reset();
  }

  void Abandon() {
    if (store_ != nullptr) store_->SimulateCrashForTesting();
  }

  bool Validate() { return store_->tree().Validate().ok(); }
  uint64_t RecordCount() { return store_->tree().Stats().records; }

  /// Highest LSN committed so far (summed over shards for the sharded
  /// driver) — the checker asserts exactly one LSN per committed
  /// mutation, monotonic across checkpoints and crash recovery.
  uint64_t DurableLsnSum() { return store_->durable_lsn(); }

  /// Checker keys need no special shape for a single tree.
  static constexpr int kKeyShift = 0;

 private:
  std::string path_;
  std::unique_ptr<BmehStore> store_;
  FilePageStore* raw_file_ = nullptr;
};

// Drives a ShardedStore directory.  Keys are shifted into the top
// component bits (kKeyShift) so the ψ-prefix router actually spreads the
// small checker domain across shards instead of parking it on shard 0.
class ShardedStoreDriver {
 public:
  ShardedStoreDriver(std::string dir, int shards)
      : dir_(std::move(dir)), shards_(shards) {
    RemoveAll();
  }

  ShardedStoreOptions Opts() const {
    ShardedStoreOptions o;
    o.shards = shards_;
    o.store = SingleStoreDriver::Opts();
    return o;
  }

  ShardedStore* store() { return store_.get(); }

  void OpenFresh() {
    auto opened = ShardedStore::Open(dir_, Opts());
    ASSERT_TRUE(opened.ok()) << opened.status();
    store_ = std::move(opened).ValueOrDie();
    store_->DisableFsyncForTesting();
  }

  void Reopen() {
    ShardedStoreOptions opts = Opts();
    opts.shards = 0;  // adopt the manifest
    auto opened = ShardedStore::Open(dir_, opts);
    ASSERT_TRUE(opened.ok()) << opened.status();
    store_ = std::move(opened).ValueOrDie();
    ASSERT_EQ(store_->shards(), shards_);
    store_->DisableFsyncForTesting();
  }

  void CleanClose() { store_.reset(); }  // destructors checkpoint per shard

  void Crash() {
    store_->SimulateProcessCrashForTesting();
    store_.reset();
  }

  void Abandon() {
    if (store_ != nullptr) store_->SimulateCrashForTesting();
  }

  bool Validate() {
    for (int s = 0; s < store_->shards(); ++s) {
      if (!store_->shard(s)->tree().Validate().ok()) return false;
    }
    return true;
  }
  uint64_t RecordCount() { return store_->records(); }

  uint64_t DurableLsnSum() {
    uint64_t total = 0;
    for (int s = 0; s < store_->shards(); ++s) {
      total += store_->shard(s)->durable_lsn();
    }
    return total;
  }

  void RemoveAll() {
    for (int s = 0; s < shards_; ++s) {
      std::remove(ShardedStore::ShardPath(dir_, s).c_str());
    }
    std::remove((dir_ + "/MANIFEST").c_str());
    ::rmdir(dir_.c_str());
  }

  /// Lift the checker's [0, kDomain) components into the top bits so the
  /// routing prefix varies: 47 << 25 < 2^31, and exact duplicates stay as
  /// frequent as in the unshifted domain.
  static constexpr int kKeyShift = 25;

 private:
  std::string dir_;
  int shards_;
  std::unique_ptr<ShardedStore> store_;
};

template <typename Driver>
class ModelChecker {
 public:
  ModelChecker(Driver driver, uint64_t seed)
      : driver_(std::move(driver)), rng_(seed), seed_(seed) {
    driver_.OpenFresh();
  }

  ~ModelChecker() {
    // Keep teardown write-free; files are removed by the caller.
    driver_.Abandon();
  }

  void Step(int op_index) {
    const double roll = rng_.NextDouble();
    if (roll < 0.35) {
      StepPut();
    } else if (roll < 0.50) {
      StepDelete();
    } else if (roll < 0.65) {
      StepSearch();
    } else if (roll < 0.72) {
      StepRange();
    } else if (roll < 0.87) {
      StepBatch();
    } else if (roll < 0.90) {
      StepCheckpoint();
    } else if (roll < 0.95) {
      StepReopen(/*crash=*/false, op_index);
    } else {
      StepReopen(/*crash=*/true, op_index);
    }
    CheckLsnDiscipline("after op " + std::to_string(op_index));
  }

  // LSN discipline, checked after every step.  The store logs intent
  // before applying (append-before-apply), so every logged operation —
  // including a refused duplicate put or absent delete — consumes
  // exactly one LSN, and the sequence never runs backwards: not across
  // checkpoints (Truncate advances the base, not the head) and not
  // across crash recovery (LSNs are re-derived from the log's ordinal
  // positions).
  void CheckLsnDiscipline(const std::string& when) {
    const uint64_t lsn = driver_.DurableLsnSum();
    ASSERT_GE(lsn, last_lsn_) << Label(when + ": durable LSN ran backwards");
    ASSERT_EQ(lsn, logged_)
        << Label(when + ": one LSN per logged mutation");
    last_lsn_ = lsn;
  }

  void CheckFullState(const std::string& when) {
    ASSERT_TRUE(driver_.Validate()) << Label(when);
    ASSERT_EQ(driver_.RecordCount(), model_.size()) << Label(when);
    for (const auto& [key, payload] : model_) {
      auto r = store()->Get(key);
      ASSERT_TRUE(r.ok()) << Label(when) << ": missing " << key.ToString();
      ASSERT_EQ(*r, payload) << Label(when) << ": " << key.ToString();
    }
    // Full-domain range returns exactly the model, key for key.
    RangePredicate pred(store()->schema());
    std::vector<Record> out;
    ASSERT_TRUE(store()->Range(pred, &out).ok()) << Label(when);
    ASSERT_EQ(out.size(), model_.size()) << Label(when);
    std::sort(out.begin(), out.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    size_t i = 0;
    for (const auto& [key, payload] : model_) {
      ASSERT_TRUE(out[i].key == key) << Label(when) << " record " << i;
      ASSERT_EQ(out[i].payload, payload) << Label(when) << " record " << i;
      ++i;
    }
  }

 private:
  auto* store() { return driver_.store(); }

  std::string Label(const std::string& what) const {
    return what + " (seed " + std::to_string(seed_) + ")";
  }

  PseudoKey RandomKey() {
    return PseudoKey(
        {static_cast<uint32_t>(rng_.Uniform(kDomain)) << Driver::kKeyShift,
         static_cast<uint32_t>(rng_.Uniform(kDomain)) << Driver::kKeyShift});
  }

  void StepPut() {
    const PseudoKey key = RandomKey();
    const uint64_t payload = next_payload_++;
    const bool fresh = model_.emplace(key, payload).second;
    Status st = store()->Put(key, payload);
    ++logged_;  // even a refused duplicate logs intent first
    if (fresh) {
      ASSERT_TRUE(st.ok()) << Label("put " + key.ToString()) << ": " << st;
    } else {
      ASSERT_TRUE(st.IsAlreadyExists())
          << Label("dup put " + key.ToString()) << ": " << st;
    }
  }

  void StepDelete() {
    const PseudoKey key = RandomKey();
    const bool present = model_.erase(key) > 0;
    Status st = store()->Delete(key);
    ++logged_;  // an absent delete still logs intent
    if (present) {
      ASSERT_TRUE(st.ok()) << Label("delete " + key.ToString()) << ": " << st;
    } else {
      ASSERT_TRUE(st.IsKeyError())
          << Label("absent delete " + key.ToString()) << ": " << st;
    }
  }

  void StepSearch() {
    const PseudoKey key = RandomKey();
    auto it = model_.find(key);
    auto r = store()->Get(key);
    if (it != model_.end()) {
      ASSERT_TRUE(r.ok()) << Label("get " + key.ToString()) << ": "
                          << r.status();
      ASSERT_EQ(*r, it->second) << Label("get " + key.ToString());
    } else {
      ASSERT_TRUE(r.status().IsKeyError())
          << Label("absent get " + key.ToString()) << ": " << r.status();
    }
  }

  void StepRange() {
    RangePredicate pred(store()->schema());
    for (int j = 0; j < 2; ++j) {
      const uint32_t a =
          static_cast<uint32_t>(rng_.Uniform(kDomain)) << Driver::kKeyShift;
      const uint32_t b =
          static_cast<uint32_t>(rng_.Uniform(kDomain)) << Driver::kKeyShift;
      pred.Constrain(j, std::min(a, b), std::max(a, b));
    }
    std::vector<Record> got;
    ASSERT_TRUE(store()->Range(pred, &got).ok()) << Label("range");
    std::vector<Record> want;
    for (const auto& [key, payload] : model_) {
      if (pred.Matches(key)) want.push_back({key, payload});
    }
    ASSERT_EQ(got.size(), want.size()) << Label("range " + pred.ToString());
    std::sort(got.begin(), got.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].key == want[i].key)
          << Label("range " + pred.ToString()) << " record " << i;
      ASSERT_EQ(got[i].payload, want[i].payload)
          << Label("range " + pred.ToString()) << " record " << i;
    }
  }

  void StepBatch() {
    // Mixed batch with natural duplicates / absent deletes; the model
    // applies members in order with the same per-record tolerance the
    // store guarantees.
    const size_t n = 2 + rng_.Uniform(31);
    WriteBatch batch;
    std::vector<Status> expected;
    std::map<PseudoKey, uint64_t> scratch = model_;
    for (size_t i = 0; i < n; ++i) {
      const PseudoKey key = RandomKey();
      if (rng_.NextDouble() < 0.7) {
        const uint64_t payload = next_payload_++;
        batch.Put(key, payload);
        expected.push_back(scratch.emplace(key, payload).second
                               ? Status::OK()
                               : Status::AlreadyExists("dup"));
      } else {
        batch.Delete(key);
        expected.push_back(scratch.erase(key) > 0 ? Status::OK()
                                                  : Status::KeyError("absent"));
      }
    }
    std::vector<Status> per_record;
    Status st = store()->Write(batch, &per_record);
    ASSERT_TRUE(st.ok() || st.IsAlreadyExists() || st.IsKeyError())
        << Label("batch") << ": " << st;
    ASSERT_EQ(per_record.size(), n) << Label("batch");
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(per_record[i].code(), expected[i].code())
          << Label("batch member " + std::to_string(i)) << ": got "
          << per_record[i] << ", want " << expected[i];
    }
    logged_ += n;  // the whole batch hit the log before any member applied
    model_ = std::move(scratch);
  }

  void StepCheckpoint() {
    ASSERT_TRUE(store()->Checkpoint().ok()) << Label("checkpoint");
    ASSERT_EQ(store()->wal_records(), 0u) << Label("checkpoint");
  }

  void StepReopen(bool crash, int op_index) {
    const std::string label =
        (crash ? "crash-reopen at op " : "clean reopen at op ") +
        std::to_string(op_index);
    if (crash) {
      // Process death at a quiescent point: with wal_sync_every = 1 every
      // acknowledged mutation is on disk, so recovery must reproduce the
      // model exactly — batches included, whole or not at all.
      driver_.Crash();
    } else {
      driver_.CleanClose();
    }
    driver_.Reopen();
    CheckFullState(label);
  }

  Driver driver_;
  Rng rng_;
  uint64_t seed_;
  std::map<PseudoKey, uint64_t> model_;
  uint64_t next_payload_ = 1;
  /// Mutations that reached the WAL so far (append-before-apply: refused
  /// duplicates and absent deletes log too) — must equal the durable LSN
  /// sum at all times.
  uint64_t logged_ = 0;
  uint64_t last_lsn_ = 0;
};

class ModelCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/bmeh_model_check_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".db";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

TEST_F(ModelCheckTest, RandomOpsMatchReferenceModel) {
  const uint64_t base_seed = EnvOr("BMEH_MODEL_CHECK_SEED", 20260807);
  const int ops = static_cast<int>(EnvOr("BMEH_MODEL_CHECK_OPS", 700));
  const int seeds = static_cast<int>(EnvOr("BMEH_MODEL_CHECK_SEEDS", 3));
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelChecker<SingleStoreDriver> checker(SingleStoreDriver(path_), seed);
    for (int op = 0; op < ops; ++op) {
      checker.Step(op);
      if (::testing::Test::HasFatalFailure()) return;
      if (op % 100 == 99) {
        checker.CheckFullState("op " + std::to_string(op));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    checker.CheckFullState("final");
  }
}

TEST_F(ModelCheckTest, ShardedStoreMatchesReferenceModel) {
  // The identical differential harness against a sharded directory.  With
  // one shard the facade must be behaviorally indistinguishable from a
  // BmehStore (same statuses, same recovered states); with 2 and 8 shards
  // the per-shard batch split, per-shard checkpoints and parallel crash
  // recovery must still reproduce the model exactly.
  const uint64_t base_seed = EnvOr("BMEH_MODEL_CHECK_SEED", 20260807);
  const int ops = static_cast<int>(EnvOr("BMEH_MODEL_CHECK_OPS", 700));
  for (int shards : {1, 2, 8}) {
    const std::string dir = path_ + "_shards" + std::to_string(shards);
    const uint64_t seed = base_seed + 10u * static_cast<uint64_t>(shards);
    SCOPED_TRACE("shards " + std::to_string(shards) + ", seed " +
                 std::to_string(seed));
    {
      ModelChecker<ShardedStoreDriver> checker(
          ShardedStoreDriver(dir, shards), seed);
      for (int op = 0; op < ops; ++op) {
        checker.Step(op);
        if (::testing::Test::HasFatalFailure()) break;
        if (op % 100 == 99) {
          checker.CheckFullState("op " + std::to_string(op));
          if (::testing::Test::HasFatalFailure()) break;
        }
      }
      if (!::testing::Test::HasFatalFailure()) {
        checker.CheckFullState("final");
      }
    }
    ShardedStoreDriver(dir, shards).RemoveAll();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ModelCheckTest, GroupCommitModeMatchesReferenceModel) {
  // Same differential harness over single-record Puts and Deletes, each
  // a commit of one, closed and reopened at the end.
  const uint64_t seed = EnvOr("BMEH_MODEL_CHECK_SEED", 20260807) + 100;
  StoreOptions opts;
  opts.schema = KeySchema(2, 31);
  opts.tree = TreeOptions::Make(2, 8);
  opts.page_size = 512;
  opts.wal_sync_every = 1;
  std::remove(path_.c_str());
  auto created = FilePageStore::Create(path_, opts.page_size);
  ASSERT_TRUE(created.ok()) << created.status();
  auto file = std::move(created).ValueOrDie();
  file->DisableFsyncForTesting();
  auto opened = BmehStore::Open(std::move(file), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();

  std::map<PseudoKey, uint64_t> model;
  Rng rng(seed);
  uint64_t next_payload = 1;
  for (int op = 0; op < 500; ++op) {
    const PseudoKey key({static_cast<uint32_t>(rng.Uniform(kDomain)),
                         static_cast<uint32_t>(rng.Uniform(kDomain))});
    const double roll = rng.NextDouble();
    if (roll < 0.6) {
      const uint64_t payload = next_payload++;
      const bool fresh = model.emplace(key, payload).second;
      Status st = store->Put(key, payload);
      ASSERT_EQ(st.ok(), fresh) << "op " << op << ": " << st;
      if (!fresh) {
        ASSERT_TRUE(st.IsAlreadyExists()) << st;
      }
    } else if (roll < 0.8) {
      const bool present = model.erase(key) > 0;
      Status st = store->Delete(key);
      ASSERT_EQ(st.ok(), present) << "op " << op << ": " << st;
      if (!present) {
        ASSERT_TRUE(st.IsKeyError()) << st;
      }
    } else {
      auto it = model.find(key);
      auto r = store->Get(key);
      if (it != model.end()) {
        ASSERT_TRUE(r.ok()) << "op " << op << ": " << r.status();
        ASSERT_EQ(*r, it->second);
      } else {
        ASSERT_TRUE(r.status().IsKeyError()) << "op " << op;
      }
    }
  }
  ASSERT_TRUE(store->tree().Validate().ok());
  ASSERT_EQ(store->tree().Stats().records, model.size());
  for (const auto& [key, payload] : model) {
    auto r = store->Get(key);
    ASSERT_TRUE(r.ok()) << "missing " << key.ToString();
    ASSERT_EQ(*r, payload);
  }
  // A clean close folds the WAL into a checkpoint; reopening must
  // reproduce the model.
  store.reset();
  auto reopened = BmehStore::Open(path_, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  store = std::move(reopened).ValueOrDie();
  ASSERT_EQ(store->tree().Stats().records, model.size());
  for (const auto& [key, payload] : model) {
    auto r = store->Get(key);
    ASSERT_TRUE(r.ok()) << "missing after reopen: " << key.ToString();
    ASSERT_EQ(*r, payload);
  }
  store->SimulateCrashForTesting();  // keep teardown write-free
}

TEST_F(ModelCheckTest, ConcurrentReadersMatchOracleDuringMutationBursts) {
  // Readers vs a std::map oracle while the store mutates: the key space
  // is split on component 0 into a stable half (written once, then never
  // touched) and a churn half the writer bursts into.  Concurrent
  // readers repeatedly Get every stable key and Range-scan the stable
  // half; because directory splits triggered by the churn half
  // restructure nodes shared with the stable half, any torn publication
  // shows up as a wrong payload, a phantom, or a dropout against the
  // oracle snapshot.  Runs with 1 and 8 shards.
  const uint64_t seed = EnvOr("BMEH_MODEL_CHECK_SEED", 20260807) + 500;
  constexpr int kShift = ShardedStoreDriver::kKeyShift;
  constexpr uint32_t kStableMax = kDomain / 2;  // c0 in [0, 24) is stable

  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) + " seed " +
                 std::to_string(seed));
    const std::string dir = path_ + "_burst" + std::to_string(shards);
    ShardedStoreDriver cleanup(dir, shards);  // clears leftovers

    ShardedStoreOptions opts;
    opts.shards = shards;
    opts.store = SingleStoreDriver::Opts();
    auto opened = ShardedStore::Open(dir, opts);
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto store = std::move(opened).ValueOrDie();
    store->DisableFsyncForTesting();
    for (int s = 0; s < shards; ++s) {
      ASSERT_TRUE(store->shard(s)->optimistic_reads_enabled());
    }

    // Oracle snapshot of the stable half, fixed for the whole test.
    std::map<PseudoKey, uint64_t> oracle;
    uint64_t next_payload = 1;
    for (uint32_t v0 = 0; v0 < kStableMax; ++v0) {
      for (uint32_t v1 : {0u, 7u, 13u}) {
        const PseudoKey key({v0 << kShift, v1 << kShift});
        const uint64_t payload = next_payload++;
        ASSERT_TRUE(store->Put(key, payload).ok());
        oracle.emplace(key, payload);
      }
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> passes{0};
    RangePredicate stable_pred(store->schema());
    stable_pred.Constrain(0, 0, (kStableMax << kShift) - 1);

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          for (const auto& [key, payload] : oracle) {
            auto got = store->Get(key);
            if (!got.ok() || *got != payload) mismatches.fetch_add(1);
          }
          std::vector<Record> out;
          if (!store->Range(stable_pred, &out).ok() ||
              out.size() != oracle.size()) {
            mismatches.fetch_add(1);
          } else {
            for (const Record& rec : out) {
              auto it = oracle.find(rec.key);
              if (it == oracle.end() || it->second != rec.payload) {
                mismatches.fetch_add(1);
              }
            }
          }
          passes.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // Mutation bursts confined to the churn half (c0 in [24, 48)).
    std::map<PseudoKey, uint64_t> churn_model;
    Rng rng(seed + static_cast<uint64_t>(shards) + 1000);
    for (int burst = 0; burst < 4; ++burst) {
      for (int op = 0; op < 120; ++op) {
        const uint32_t v0 = kStableMax + static_cast<uint32_t>(rng.Uniform(
                                             kDomain - kStableMax));
        const uint32_t v1 = static_cast<uint32_t>(rng.Uniform(kDomain));
        const PseudoKey key({v0 << kShift, v1 << kShift});
        if (rng.NextDouble() < 0.65) {
          const uint64_t payload = next_payload++;
          const bool fresh = churn_model.emplace(key, payload).second;
          Status st = store->Put(key, payload);
          if (st.ok() != fresh) mismatches.fetch_add(1);
        } else {
          const bool present = churn_model.erase(key) > 0;
          Status st = store->Delete(key);
          if (st.ok() != present) mismatches.fetch_add(1);
        }
      }
      std::this_thread::yield();  // give readers a burst boundary
    }

    // Let the readers demonstrably overlap the post-burst state too.
    const uint64_t target = passes.load(std::memory_order_relaxed) + 2;
    while (passes.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    ASSERT_EQ(mismatches.load(), 0u)
        << "reader diverged from the oracle snapshot";
    ASSERT_GT(passes.load(), 0u);

    // Quiesced: full contents must equal stable oracle + churn model.
    ASSERT_EQ(store->records(), oracle.size() + churn_model.size());
    for (const auto& [key, payload] : churn_model) {
      auto got = store->Get(key);
      ASSERT_TRUE(got.ok()) << key.ToString();
      ASSERT_EQ(*got, payload);
    }
    store->SimulateProcessCrashForTesting();  // keep teardown write-free
    store.reset();
    cleanup.RemoveAll();
  }
}

}  // namespace
}  // namespace bmeh
