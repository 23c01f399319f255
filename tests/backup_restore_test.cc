// End-to-end tests of online backup, WAL archiving, and point-in-time
// restore (src/store/backup.h) — single stores and sharded directories.
//
// The invariants under test:
//   * a restore with no target reaches exactly the set's watermark, and a
//     targeted restore reaches exactly --to-lsn: no acked write below the
//     target is lost, nothing above it leaks in;
//   * corrupt, torn, or gapped archives are refused whole, with nothing
//     written at the destination;
//   * backups are online: writers keep committing while a backup runs,
//     and the set still captures a consistent prefix;
//   * a sharded set with failed shards is sealed honestly and restores to
//     a store that opens degraded under OpenPolicy::kPartial.

#include "src/store/backup.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/sharded_store.h"

namespace bmeh {
namespace {

// Injective in both components, so distinct serials never collide and the
// routing prefix reaches every shard.
PseudoKey KeyFor(uint32_t serial) {
  return PseudoKey({(serial * 2654435761u) & 0x7fffffffu,
                    (serial * 0x85ebca6bu + 0x7f4a7c15u) & 0x7fffffffu});
}

// Payloads are a function of the key: every record in a restored store is
// self-verifying.
uint64_t PayloadFor(const PseudoKey& key) {
  return (static_cast<uint64_t>(key.component(0)) << 31) ^
         key.component(1) ^ 0x9e3779b97f4a7c15ull;
}

// Recursive remover: backup sets and sharded directories hold nested
// payload files the flat helpers elsewhere don't know about.
void RemoveTree(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) return;
  if (!S_ISDIR(st.st_mode)) {
    std::remove(path.c_str());
    return;
  }
  if (DIR* d = ::opendir(path.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      RemoveTree(path + "/" + name);
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

// Flips one byte of a file in place (fault injection on payloads).
void FlipByte(const std::string& path, long off) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);
}

bool PathPresent(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

class BackupRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/bmeh_backup_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveTree(root_);
    ASSERT_EQ(::mkdir(root_.c_str(), 0755), 0) << root_;
    db_ = root_ + "/src.bmeh";
    set_ = root_ + "/set";
    dest_ = root_ + "/restored.bmeh";
    archive_ = root_ + "/archive";
  }
  void TearDown() override { RemoveTree(root_); }

  StoreOptions Opts() {
    StoreOptions o;
    o.schema = KeySchema(2, 31);
    o.tree = TreeOptions::Make(2, 8);
    o.page_size = 512;
    o.wal_sync_every = 16;
    o.checkpoint_every = 0;
    o.wal_archive_dir = archive_;
    return o;
  }

  std::unique_ptr<BmehStore> MustOpen(const std::string& path) {
    auto r = BmehStore::Open(path, Opts());
    BMEH_CHECK(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  // Inserts serials [lo, hi) with self-verifying payloads.
  void PutRange(BmehStore* store, uint32_t lo, uint32_t hi) {
    for (uint32_t i = lo; i < hi; ++i) {
      const PseudoKey key = KeyFor(i);
      ASSERT_TRUE(store->Put(key, PayloadFor(key)).ok()) << "serial " << i;
    }
  }

  // Asserts serials [0, present) are present with correct payloads and
  // serials [present, absent_hi) are absent.
  void CheckContents(BmehStore* store, uint32_t present, uint32_t absent_hi) {
    for (uint32_t i = 0; i < present; ++i) {
      auto r = store->Get(KeyFor(i));
      ASSERT_TRUE(r.ok()) << "serial " << i << " lost: " << r.status();
      EXPECT_EQ(*r, PayloadFor(KeyFor(i))) << "serial " << i;
    }
    for (uint32_t i = present; i < absent_hi; ++i) {
      EXPECT_TRUE(store->Get(KeyFor(i)).status().IsKeyError())
          << "serial " << i << " resurrected past the restore target";
    }
  }

  std::string root_, db_, set_, dest_, archive_;
};

TEST_F(BackupRestoreTest, FullBackupRestoreRoundTrip) {
  uint64_t watermark = 0;
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 120);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 120, 150);  // live WAL tail on top of the image
    watermark = store->durable_lsn();
    auto run = BackupStore::Run(store.get(), set_);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_FALSE(run->incremental);
    EXPECT_EQ(run->watermark, watermark);
    EXPECT_EQ(run->base_lsn, 121u) << "image folded LSNs 1..120";
    EXPECT_GT(run->bytes, 0u);
    store->SimulateCrashForTesting();
  }
  ASSERT_TRUE(BackupStore::Verify(set_).ok());
  auto info = BackupStore::ReadManifest(set_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->watermark, watermark);
  EXPECT_EQ(info->schema.dims(), 2);

  auto run = RestoreStore::Run(set_, dest_);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->replay_lsn, watermark);
  EXPECT_EQ(run->records_replayed, 30u);

  auto restored = MustOpen(dest_);
  CheckContents(restored.get(), 150, 160);
  EXPECT_EQ(restored->durable_lsn(), watermark)
      << "the restored history ends exactly at the watermark";
}

TEST_F(BackupRestoreTest, PointInTimeRestoreStopsExactlyAtTarget) {
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 40);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 40, 100);  // LSNs 41..100 in the live tail
    ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
    store->SimulateCrashForTesting();
  }
  // Target LSN 70: serial k gets LSN k+1, so serials 0..69 survive.
  RestoreOptions ropts;
  ropts.to_lsn = 70;
  auto run = RestoreStore::Run(set_, dest_, ropts);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->replay_lsn, 70u);
  auto restored = MustOpen(dest_);
  CheckContents(restored.get(), 70, 100);
  EXPECT_EQ(restored->durable_lsn(), 70u);

  // The image itself cannot be partially unapplied: a target below
  // base_lsn - 1 is refused, as is one past the watermark.
  RestoreOptions below;
  below.to_lsn = 10;
  EXPECT_FALSE(RestoreStore::Run(set_, root_ + "/b.bmeh", below).ok());
  RestoreOptions beyond;
  beyond.to_lsn = 101;
  EXPECT_FALSE(RestoreStore::Run(set_, root_ + "/c.bmeh", beyond).ok());
  EXPECT_FALSE(PathPresent(root_ + "/b.bmeh"));
  EXPECT_FALSE(PathPresent(root_ + "/c.bmeh"));
}

TEST_F(BackupRestoreTest, IncrementalChainRestoresAcrossCheckpoints) {
  const std::string set2 = root_ + "/set2";
  BackupOptions bopts;
  bopts.wal_archive_dir = archive_;
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 50);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 50, 80);
    ASSERT_TRUE(BackupStore::Run(store.get(), set_, bopts).ok());
    // Past the first set: a checkpoint (archiving LSNs 51..80 plus the
    // later ones it folds) and a fresh live tail.
    PutRange(store.get(), 80, 110);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 110, 130);
    BackupOptions inc = bopts;
    inc.base_set = set_;
    auto run = BackupStore::Run(store.get(), set2, inc);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->incremental);
    EXPECT_EQ(run->base_lsn, 81u) << "extends the previous watermark";
    EXPECT_EQ(run->watermark, 130u);
    store->SimulateCrashForTesting();
  }
  auto info = BackupStore::ReadManifest(set2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->prev, set_);

  // Restoring the incremental set follows the chain back to the full set.
  auto run = RestoreStore::Run(set2, dest_);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->replay_lsn, 130u);
  {
    auto restored = MustOpen(dest_);
    CheckContents(restored.get(), 130, 140);
  }
  // A target inside the incremental span also works through the chain.
  RestoreOptions ropts;
  ropts.to_lsn = 95;
  auto mid = RestoreStore::Run(set2, root_ + "/mid.bmeh", ropts);
  ASSERT_TRUE(mid.ok()) << mid.status();
  auto restored = MustOpen(root_ + "/mid.bmeh");
  CheckContents(restored.get(), 95, 130);
}

TEST_F(BackupRestoreTest, DeletesReplayAndDoNotResurrect) {
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 30);
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Delete(KeyFor(5)).ok());  // LSN 31
    ASSERT_TRUE(store->Delete(KeyFor(6)).ok());  // LSN 32
    ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
    store->SimulateCrashForTesting();
  }
  auto run = RestoreStore::Run(set_, dest_);
  ASSERT_TRUE(run.ok()) << run.status();
  {
    auto restored = MustOpen(dest_);
    EXPECT_TRUE(restored->Get(KeyFor(5)).status().IsKeyError());
    EXPECT_TRUE(restored->Get(KeyFor(6)).status().IsKeyError());
    EXPECT_TRUE(restored->Get(KeyFor(7)).ok());
  }
  // Restored to just before the deletes, both records live again.
  RestoreOptions ropts;
  ropts.to_lsn = 30;
  ASSERT_TRUE(RestoreStore::Run(set_, root_ + "/pre.bmeh", ropts).ok());
  auto pre = MustOpen(root_ + "/pre.bmeh");
  EXPECT_TRUE(pre->Get(KeyFor(5)).ok());
  EXPECT_TRUE(pre->Get(KeyFor(6)).ok());
}

TEST_F(BackupRestoreTest, BackupRefusesToOverwriteASealedSet) {
  auto store = MustOpen(db_);
  PutRange(store.get(), 0, 10);
  ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
  auto again = BackupStore::Run(store.get(), set_);
  EXPECT_FALSE(again.ok()) << "sets are immutable once sealed";
  store->SimulateCrashForTesting();
}

TEST_F(BackupRestoreTest, RestoreRefusesExistingDestination) {
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 10);
    ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
    store->SimulateCrashForTesting();
  }
  ASSERT_TRUE(RestoreStore::Run(set_, dest_).ok());
  auto again = RestoreStore::Run(set_, dest_);
  EXPECT_FALSE(again.ok()) << "restore never clobbers an existing store";
}

TEST_F(BackupRestoreTest, CorruptPayloadIsRefusedWithNothingWritten) {
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 60);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 60, 70);
    ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
    store->SimulateCrashForTesting();
  }
  ASSERT_TRUE(BackupStore::Verify(set_).ok());
  FlipByte(set_ + "/" + BackupStore::kPagesName, 64);
  EXPECT_FALSE(BackupStore::Verify(set_).ok())
      << "Verify must catch payload corruption";
  auto run = RestoreStore::Run(set_, dest_);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCorruption()) << run.status();
  EXPECT_FALSE(PathPresent(dest_));
  EXPECT_FALSE(PathPresent(dest_ + ".restore-tmp"))
      << "a refused restore leaves no temp debris";
}

TEST_F(BackupRestoreTest, TornManifestIsRefused) {
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 20);
    ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
    store->SimulateCrashForTesting();
  }
  const std::string manifest = set_ + "/" + BackupStore::kManifestName;
  struct stat st;
  ASSERT_EQ(::stat(manifest.c_str(), &st), 0);
  ASSERT_EQ(::truncate(manifest.c_str(), st.st_size - 3), 0);
  EXPECT_FALSE(BackupStore::ReadManifest(set_).ok());
  EXPECT_FALSE(RestoreStore::Run(set_, dest_).ok());
  EXPECT_FALSE(PathPresent(dest_));
}

TEST_F(BackupRestoreTest, GappedArchiveChainIsRefused) {
  const std::string set2 = root_ + "/set2";
  BackupOptions bopts;
  bopts.wal_archive_dir = archive_;
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 30);
    ASSERT_TRUE(BackupStore::Run(store.get(), set_, bopts).ok());
    PutRange(store.get(), 30, 60);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRange(store.get(), 60, 70);
    BackupOptions inc = bopts;
    inc.base_set = set_;
    ASSERT_TRUE(BackupStore::Run(store.get(), set2, inc).ok());
    store->SimulateCrashForTesting();
  }
  // Punch a hole in the incremental set: drop its first archived segment
  // (covering the LSNs right after the previous watermark).
  auto info = BackupStore::ReadManifest(set2);
  ASSERT_TRUE(info.ok()) << info.status();
  std::string first_seg;
  for (const auto& f : info->files) {
    if (f.name.rfind("wal-", 0) == 0 &&
        (first_seg.empty() || f.name < first_seg)) {
      first_seg = f.name;
    }
  }
  ASSERT_FALSE(first_seg.empty());
  ASSERT_EQ(std::remove((set2 + "/" + first_seg).c_str()), 0);
  auto run = RestoreStore::Run(set2, dest_);
  EXPECT_FALSE(run.ok()) << "a gapped archive must be refused whole";
  EXPECT_FALSE(PathPresent(dest_));
}

TEST_F(BackupRestoreTest, OnlineBackupUnderConcurrentWriters) {
  auto store = MustOpen(db_);
  PutRange(store.get(), 0, 200);
  ASSERT_TRUE(store->Checkpoint().ok());
  PutRange(store.get(), 200, 250);
  const uint64_t acked_before = store->durable_lsn();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Disjoint serial range: the backup's snapshot boundary lands
    // somewhere inside these, which is exactly the point.
    for (uint32_t i = 10000; i < 12000 && !stop.load(); ++i) {
      const PseudoKey key = KeyFor(i);
      if (!store->Put(key, PayloadFor(key)).ok()) break;
    }
  });
  auto run = BackupStore::Run(store.get(), set_);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GE(run->watermark, acked_before)
      << "the snapshot covers every write acked before it began";
  store->SimulateCrashForTesting();
  store.reset();

  auto restored_run = RestoreStore::Run(set_, dest_);
  ASSERT_TRUE(restored_run.ok()) << restored_run.status();
  auto restored = MustOpen(dest_);
  // Every pre-backup record is there; concurrent records are either
  // fully there (LSN <= watermark) or fully absent — and all payloads
  // are self-consistent.
  CheckContents(restored.get(), 250, 250);
  uint64_t concurrent_present = 0;
  for (uint32_t i = 10000; i < 12000; ++i) {
    auto r = restored->Get(KeyFor(i));
    if (r.ok()) {
      EXPECT_EQ(*r, PayloadFor(KeyFor(i))) << "serial " << i;
      ++concurrent_present;
    }
  }
  EXPECT_EQ(restored->durable_lsn(), run->watermark);
  EXPECT_EQ(concurrent_present, run->watermark - acked_before)
      << "exactly the concurrently-acked prefix made the snapshot";
}

TEST_F(BackupRestoreTest, MetricsAreCharged) {
  obs::MetricsRegistry registry;
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 40);
    BackupOptions bopts;
    bopts.metrics = &registry;
    auto run = BackupStore::Run(store.get(), set_, bopts);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(registry.GetCounter("store_backups_total")->value(), 1u);
    EXPECT_EQ(registry.GetCounter("backup_bytes_total")->value(), run->bytes);
    store->SimulateCrashForTesting();
  }
  RestoreOptions ropts;
  ropts.metrics = &registry;
  auto run = RestoreStore::Run(set_, dest_, ropts);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(
      static_cast<uint64_t>(registry.GetGauge("restore_replay_lsn")->value()),
      run->replay_lsn);
}

// Runs the enclosing scope with `dir` as the working directory, so a test
// can name sets by relative paths as a shell user would.
class ScopedChdir {
 public:
  explicit ScopedChdir(const std::string& dir) {
    char buf[4096];
    BMEH_CHECK(::getcwd(buf, sizeof(buf)) != nullptr);
    old_ = buf;
    BMEH_CHECK(::chdir(dir.c_str()) == 0) << dir;
  }
  ~ScopedChdir() { BMEH_CHECK(::chdir(old_.c_str()) == 0) << old_; }

 private:
  std::string old_;
};

// An incremental set whose base is a relative path other than a bare
// sibling name records the base relative to its own parent directory,
// where a restore looks for it; a bare sibling name is recorded as given.
TEST_F(BackupRestoreTest, RelativeBaseOutsideTheSiblingsRestores) {
  ScopedChdir cwd(root_);
  ASSERT_EQ(::mkdir("sets", 0755), 0);
  BackupOptions bopts;
  bopts.wal_archive_dir = archive_;
  {
    auto store = MustOpen(db_);
    PutRange(store.get(), 0, 60);
    ASSERT_TRUE(BackupStore::Run(store.get(), "full", bopts).ok());
    PutRange(store.get(), 60, 80);
    BackupOptions inc = bopts;
    inc.base_set = "full";
    ASSERT_TRUE(BackupStore::Run(store.get(), "inc", inc).ok());
    PutRange(store.get(), 80, 90);
    inc.base_set = "inc";
    auto run = BackupStore::Run(store.get(), "sets/inc2", inc);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->incremental);
    PutRange(store.get(), 90, 100);
    store->SimulateCrashForTesting();
  }
  auto sibling = BackupStore::ReadManifest("inc");
  ASSERT_TRUE(sibling.ok()) << sibling.status();
  EXPECT_EQ(sibling->prev, "full") << "a bare sibling name keeps its bytes";
  auto info = BackupStore::ReadManifest("sets/inc2");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->prev, "../inc");

  auto run = RestoreStore::Run("sets/inc2", dest_);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->replay_lsn, 90u);
  auto restored = MustOpen(dest_);
  CheckContents(restored.get(), 90, 100);
}

// ---------------------------------------------------------------------------
// Sharded stores: one sealed super-manifest, per-shard LSN watermarks,
// partial semantics end to end.

class ShardedBackupTest : public BackupRestoreTest {
 protected:
  ShardedStoreOptions ShardOpts() {
    ShardedStoreOptions o;
    o.shards = 4;
    o.store = Opts();
    o.store.wal_archive_dir = "";  // per-test; rewired under the root
    o.store.tolerate_corruption = false;  // damage => down, not degraded
    o.open_policy = OpenPolicy::kPartial;
    return o;
  }

  std::unique_ptr<ShardedStore> MustOpenSharded(const std::string& dir) {
    auto r = ShardedStore::Open(dir, ShardOpts());
    BMEH_CHECK(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  void PutRangeSharded(ShardedStore* store, uint32_t lo, uint32_t hi) {
    for (uint32_t i = lo; i < hi; ++i) {
      const PseudoKey key = KeyFor(i);
      ASSERT_TRUE(store->Put(key, PayloadFor(key)).ok()) << "serial " << i;
    }
  }
};

TEST_F(ShardedBackupTest, ShardedRoundTripRestoresEveryShard) {
  const std::string sdir = root_ + "/sharded";
  const std::string sdest = root_ + "/sharded_restored";
  {
    auto store = MustOpenSharded(sdir);
    PutRangeSharded(store.get(), 0, 150);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRangeSharded(store.get(), 150, 200);
    auto run = store->Backup(set_);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->shards, 4);
    EXPECT_EQ(run->failed, 0);
    EXPECT_GT(run->bytes, 0u);
    store->SimulateCrashForTesting();
  }
  ASSERT_TRUE(ShardedStore::IsShardedBackupDir(set_));
  EXPECT_FALSE(ShardedStore::IsShardedBackupDir(root_));
  auto info = ShardedStore::ReadBackupManifest(set_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->shards, 4);
  for (const auto& e : info->shard) EXPECT_TRUE(e.ok);

  auto run = ShardedStore::Restore(set_, sdest);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->failed, 0);
  auto restored = MustOpenSharded(sdest);
  EXPECT_EQ(restored->down_shards(), 0);
  for (uint32_t i = 0; i < 200; ++i) {
    auto r = restored->Get(KeyFor(i));
    ASSERT_TRUE(r.ok()) << "serial " << i << ": " << r.status();
    EXPECT_EQ(*r, PayloadFor(KeyFor(i)));
  }
}

// Every shard's set of a sharded incremental names its base relative to
// itself, so sibling sets given by relative paths restore whole.
TEST_F(ShardedBackupTest, RelativeBaseRestoresEveryShard) {
  ScopedChdir cwd(root_);
  ShardedStoreOptions o = ShardOpts();
  o.shards = 2;
  {
    auto opened = ShardedStore::Open("shdb", o);
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto store = std::move(opened).ValueOrDie();
    PutRangeSharded(store.get(), 0, 80);
    ASSERT_TRUE(store->Backup("sfull").ok());
    PutRangeSharded(store.get(), 80, 120);
    BackupOptions inc;
    inc.base_set = "sfull";
    auto run = store->Backup("sinc", inc);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->failed, 0);
    store->SimulateCrashForTesting();
  }
  auto shard0 = BackupStore::ReadManifest("sinc/shard-0000");
  ASSERT_TRUE(shard0.ok()) << shard0.status();
  EXPECT_EQ(shard0->prev, "../sfull/shard-0000");

  auto run = ShardedStore::Restore("sinc", "restored");
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->failed, 0);
  auto restored = ShardedStore::Open("restored", o);
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (uint32_t i = 0; i < 120; ++i) {
    auto r = (*restored)->Get(KeyFor(i));
    ASSERT_TRUE(r.ok()) << "serial " << i << ": " << r.status();
    EXPECT_EQ(*r, PayloadFor(KeyFor(i)));
  }
}

TEST_F(ShardedBackupTest, DownShardYieldsPartialBackupAndDegradedRestore) {
  const std::string sdir = root_ + "/sharded";
  const std::string sdest = root_ + "/sharded_restored";
  {
    auto store = MustOpenSharded(sdir);
    PutRangeSharded(store.get(), 0, 200);
    // Destructor checkpoints every shard cleanly.
  }
  // Corrupt shard 2's superblock; under kPartial it opens as a down unit.
  {
    const std::string victim = ShardedStore::ShardPath(sdir, 2);
    const long off = 512 + FilePageStore::kPageTrailerSize + 100;
    FlipByte(victim, off);
  }
  {
    auto store = MustOpenSharded(sdir);
    ASSERT_GT(store->down_shards(), 0);
    auto run = store->Backup(set_);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->failed, 1);
    EXPECT_FALSE(run->shard_status[2].ok());
    store->SimulateCrashForTesting();
  }
  auto info = ShardedStore::ReadBackupManifest(set_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_FALSE(info->shard[2].ok);
  EXPECT_FALSE(info->shard[2].error.empty())
      << "the super-manifest records why the shard is missing";

  auto run = ShardedStore::Restore(set_, sdest);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->failed, 1);
  EXPECT_FALSE(run->shard_status[2].ok());

  // The restored directory opens degraded: three healthy shards serve,
  // the missing one is down.
  auto restored = MustOpenSharded(sdest);
  EXPECT_EQ(restored->down_shards(), 1);
  uint32_t served = 0, down = 0;
  for (uint32_t i = 0; i < 200; ++i) {
    auto r = restored->Get(KeyFor(i));
    if (r.ok()) {
      EXPECT_EQ(*r, PayloadFor(KeyFor(i)));
      ++served;
    } else {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
      ++down;
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(down, 0u) << "shard 2's records route to a down unit";
}

TEST_F(ShardedBackupTest, GlobalTargetLsnClampsPerShard) {
  const std::string sdir = root_ + "/sharded";
  const std::string sdest = root_ + "/sharded_restored";
  uint64_t max_watermark = 0;
  {
    auto store = MustOpenSharded(sdir);
    PutRangeSharded(store.get(), 0, 120);
    auto run = store->Backup(set_);
    ASSERT_TRUE(run.ok()) << run.status();
    for (uint64_t w : run->watermark) max_watermark = std::max(max_watermark, w);
    store->SimulateCrashForTesting();
  }
  ASSERT_GT(max_watermark, 2u);
  // A global cut below some shards' watermarks: each shard replays to
  // min(target, its own watermark) — LSN domains are independent.
  RestoreOptions ropts;
  ropts.to_lsn = 2;
  auto run = ShardedStore::Restore(set_, sdest, ropts);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->failed, 0);
  for (int s = 0; s < run->shards; ++s) {
    EXPECT_LE(run->replay_lsn[s], 2u) << "shard " << s;
  }
  auto restored = MustOpenSharded(sdest);
  uint32_t present = 0;
  for (uint32_t i = 0; i < 120; ++i) {
    if (restored->Get(KeyFor(i)).ok()) ++present;
  }
  EXPECT_LE(present, 8u) << "at most 2 records per shard survive the cut";
  EXPECT_GT(present, 0u);
}

TEST_F(ShardedBackupTest, CorruptShardSubSetFailsOnlyThatShard) {
  const std::string sdir = root_ + "/sharded";
  const std::string sdest = root_ + "/sharded_restored";
  {
    auto store = MustOpenSharded(sdir);
    PutRangeSharded(store.get(), 0, 150);
    ASSERT_TRUE(store->Checkpoint().ok());
    PutRangeSharded(store.get(), 150, 180);
    ASSERT_TRUE(store->Backup(set_).ok());
    store->SimulateCrashForTesting();
  }
  auto info = ShardedStore::ReadBackupManifest(set_);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->shard[1].ok);
  FlipByte(set_ + "/" + info->shard[1].subdir + "/" + BackupStore::kPagesName,
           80);
  auto run = ShardedStore::Restore(set_, sdest);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->failed, 1);
  EXPECT_FALSE(run->shard_status[1].ok());
  EXPECT_TRUE(run->shard_status[1].IsCorruption()) << run->shard_status[1];
  auto restored = MustOpenSharded(sdest);
  EXPECT_EQ(restored->down_shards(), 1);
}

// Re-seals `dir/name` with its widths line replaced by `widths`: a
// manifest whose seal is valid and whose schema is not.
void ResealWidths(const std::string& dir, const std::string& name,
                  const std::string& widths) {
  auto body = ReadSealedText(dir + "/" + name, name);
  ASSERT_TRUE(body.ok()) << body.status();
  std::string text = *body;
  const size_t at = text.find("\nwidths ");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at + 1, text.find('\n', at + 1) - at - 1, widths);
  ASSERT_TRUE(WriteSealedText(dir, name, text).ok());
}

// A sealed BACKUPSET whose widths form no key schema is corruption
// wherever it is read, as a set or as an incremental's base, and a
// restore of it writes nothing.
void ExpectBadWidthsRefused(BmehStore* store, const std::string& set,
                            const std::string& dest,
                            const std::string& widths) {
  ResealWidths(set, BackupStore::kManifestName, widths);
  const Status read = BackupStore::ReadManifest(set).status();
  EXPECT_TRUE(read.IsCorruption()) << read;
  const Status verify = BackupStore::Verify(set);
  EXPECT_TRUE(verify.IsCorruption()) << verify;
  BackupOptions incremental;
  incremental.base_set = set;
  const Status extend =
      BackupStore::Run(store, set + "-next", incremental).status();
  EXPECT_TRUE(extend.IsCorruption()) << extend;
  const Status restore = RestoreStore::Run(set, dest).status();
  EXPECT_TRUE(restore.IsCorruption()) << restore;
  EXPECT_FALSE(PathPresent(dest));
  EXPECT_FALSE(PathPresent(dest + ".restore-tmp"));
}

TEST_F(BackupRestoreTest, BackupSetWithTooWideAKeyIsCorruption) {
  auto store = MustOpen(db_);
  PutRange(store.get(), 0, 40);
  ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
  ExpectBadWidthsRefused(store.get(), set_, dest_, "widths 40 3");
  store->SimulateCrashForTesting();
}

TEST_F(BackupRestoreTest, BackupSetWithAZeroWidthKeyIsCorruption) {
  auto store = MustOpen(db_);
  PutRange(store.get(), 0, 40);
  ASSERT_TRUE(BackupStore::Run(store.get(), set_).ok());
  ExpectBadWidthsRefused(store.get(), set_, dest_, "widths 0 31");
  store->SimulateCrashForTesting();
}

// One shard's sub-set with a schema that cannot be built fails that
// shard alone, as a corrupt payload does: the other shard restores.
class ShardedBadSchemaTest : public ShardedBackupTest {
 protected:
  void ExpectSubSetRefused(const std::string& widths) {
    const std::string sdir = root_ + "/sharded";
    const std::string sdest = root_ + "/sharded_restored";
    ShardedStoreOptions o = ShardOpts();
    o.shards = 2;
    {
      auto opened = ShardedStore::Open(sdir, o);
      ASSERT_TRUE(opened.ok()) << opened.status();
      auto store = std::move(opened).ValueOrDie();
      PutRangeSharded(store.get(), 0, 80);
      ASSERT_TRUE(store->Backup(set_).ok());
      store->SimulateCrashForTesting();
    }
    auto info = ShardedStore::ReadBackupManifest(set_);
    ASSERT_TRUE(info.ok()) << info.status();
    ASSERT_TRUE(info->shard[1].ok);
    ResealWidths(set_ + "/" + info->shard[1].subdir,
                 BackupStore::kManifestName, widths);
    auto run = ShardedStore::Restore(set_, sdest);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->failed, 1);
    EXPECT_TRUE(run->shard_status[0].ok()) << run->shard_status[0];
    EXPECT_TRUE(run->shard_status[1].IsCorruption()) << run->shard_status[1];
    auto reopened = ShardedStore::Open(sdest, o);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto restored = std::move(reopened).ValueOrDie();
    EXPECT_EQ(restored->down_shards(), 1);
    uint32_t served = 0;
    for (uint32_t i = 0; i < 80; ++i) {
      const PseudoKey key = KeyFor(i);
      if (restored->ShardOf(key) != 0) continue;
      auto r = restored->Get(key);
      ASSERT_TRUE(r.ok()) << "serial " << i << ": " << r.status();
      EXPECT_EQ(*r, PayloadFor(key));
      ++served;
    }
    EXPECT_GT(served, 0u);
  }
};

TEST_F(ShardedBadSchemaTest, SubSetWithTooWideAKeyFailsOnlyThatShard) {
  ExpectSubSetRefused("widths 40 3");
}

TEST_F(ShardedBadSchemaTest, SubSetWithAZeroWidthKeyFailsOnlyThatShard) {
  ExpectSubSetRefused("widths 0 31");
}

}  // namespace
}  // namespace bmeh
