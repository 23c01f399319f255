// Edge cases of the checkpoint/recovery machinery: double-open protection,
// checkpoint_every boundaries, fsync failures surfacing through
// Checkpoint(), crashed-checkpoint page reclamation, read-only inspection
// of a crashed file, and which paths read the checkpoint image.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <unordered_set>

#include "src/pagestore/fault_injecting_page_store.h"
#include "src/store/bmeh_store.h"
#include "src/store/scrub.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

class CheckpointEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/bmeh_ckpt_edge_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".db";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  StoreOptions Opts(uint64_t checkpoint_every = 0) {
    StoreOptions o;
    o.schema = KeySchema(2, 31);
    o.tree = TreeOptions::Make(2, 8);
    o.checkpoint_every = checkpoint_every;
    o.wal_sync_every = 64;  // process-level crash tests don't need fsync
    return o;
  }

  std::unique_ptr<BmehStore> MustOpen(const StoreOptions& options) {
    auto r = BmehStore::Open(path_, options);
    BMEH_CHECK(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  /// `n` distinct records with keys inside the 2-D, 31-bit schema.
  static std::vector<Record> Records(uint32_t n) {
    std::vector<Record> recs;
    for (uint32_t i = 0; i < n; ++i) {
      recs.push_back({PseudoKey({(i * 2654435761u) & 0x7fffffffu, i}), i});
    }
    return recs;
  }

  /// Pages of the store's published image, from a backup snapshot.
  static std::vector<PageId> ImagePages(BmehStore* store) {
    auto snap = store->BeginBackup();
    BMEH_CHECK(snap.ok()) << snap.status();
    store->EndBackup();
    return snap->image_pages;
  }

  /// Flips one byte of `page` on disk through a descriptor of its own.
  void FlipPageByte(PageId page, int byte) {
    const int fd = ::open(path_.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t off =
        static_cast<off_t>(page) *
            (kDefaultPageSize + FilePageStore::kPageTrailerSize) +
        byte;
    uint8_t b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, off), 1);
    b ^= 0xff;
    ASSERT_EQ(::pwrite(fd, &b, 1, off), 1);
    ::close(fd);
  }

  std::vector<uint8_t> FileBytes() {
    std::vector<uint8_t> bytes;
    BMEH_CHECK(ReadWholeFile(path_, &bytes).ok());
    return bytes;
  }

  /// Expects every page in `pages` to read back verified and all zero
  /// through a fresh open of the closed file.
  void ExpectErased(const std::vector<PageId>& pages) {
    auto file = FilePageStore::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status();
    std::vector<uint8_t> buf(kDefaultPageSize);
    for (PageId id : pages) {
      ASSERT_TRUE((*file)->Read(id, buf).ok()) << "page " << id;
      EXPECT_EQ(buf, std::vector<uint8_t>(kDefaultPageSize, 0))
          << "page " << id;
    }
  }

  uint64_t FileSize() {
    struct stat st {};
    BMEH_CHECK(::stat(path_.c_str(), &st) == 0);
    return static_cast<uint64_t>(st.st_size);
  }

  std::string path_;
};

TEST_F(CheckpointEdgeTest, DoubleOpenOfSameFileIsRejected) {
  auto store = MustOpen(Opts());
  ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());

  auto second = BmehStore::Open(path_, Opts());
  ASSERT_TRUE(second.status().IsIoError()) << second.status();
  EXPECT_NE(second.status().ToString().find("already open"),
            std::string::npos)
      << second.status();

  // Inspect also needs the file and must refuse while it is held.
  EXPECT_TRUE(BmehStore::Inspect(path_).status().IsIoError());

  store.reset();  // clean close releases the lock
  auto third = BmehStore::Open(path_, Opts());
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE((*third)->Get(PseudoKey({1u, 1u})).ok());
}

TEST_F(CheckpointEdgeTest, CheckpointEveryOneCheckpointsEachMutation) {
  auto store = MustOpen(Opts(/*checkpoint_every=*/1));
  for (uint32_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store->Put(PseudoKey({i, i}), i).ok());
    EXPECT_EQ(store->generation(), i);
    EXPECT_EQ(store->dirty_ops(), 0u);
    EXPECT_EQ(store->wal_records(), 0u)
        << "each checkpoint truncates the log";
  }
  ASSERT_TRUE(store->Delete(PseudoKey({1u, 1u})).ok());
  EXPECT_EQ(store->generation(), 5u);
}

TEST_F(CheckpointEdgeTest, CrashExactlyAtCheckpointBoundary) {
  {
    auto store = MustOpen(Opts(/*checkpoint_every=*/5));
    for (uint32_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(store->Put(PseudoKey({i, i}), i).ok());
    }
    EXPECT_EQ(store->generation(), 2u);
    EXPECT_EQ(store->dirty_ops(), 0u) << "boundary: nothing volatile";
    store->SimulateCrashForTesting();
  }
  auto store = MustOpen(Opts(/*checkpoint_every=*/5));
  EXPECT_EQ(store->generation(), 2u);
  EXPECT_EQ(store->dirty_ops(), 0u) << "no WAL records to replay";
  EXPECT_EQ(store->tree().Stats().records, 10u);
  ASSERT_TRUE(store->tree().Validate().ok());
}

TEST_F(CheckpointEdgeTest, ManualModeNeverCheckpointsAutomatically) {
  auto store = MustOpen(Opts(/*checkpoint_every=*/0));
  for (uint32_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(store->Put(PseudoKey({i, i}), i).ok());
  }
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_EQ(store->dirty_ops(), 100u);
  EXPECT_EQ(store->wal_records(), 100u);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->generation(), 1u);
  EXPECT_EQ(store->wal_records(), 0u);
}

TEST_F(CheckpointEdgeTest, FailedPublishSyncSurfacesAndPoisons) {
  auto inner = std::make_unique<InMemoryPageStore>();
  auto injector = std::make_unique<FaultInjectingPageStore>(std::move(inner));
  FaultInjectingPageStore* raw = injector.get();
  StoreOptions opts = Opts();
  opts.wal_sync_every = 0;  // syncs happen at publishes only
  auto opened = BmehStore::Open(std::move(injector), opts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());
  ASSERT_TRUE(store->Put(PseudoKey({2u, 2u}), 2).ok());

  // The next sync is the checkpoint's publish fsync: Checkpoint() must
  // report the failure instead of pretending the flip was durable.
  raw->FailNthSync(raw->syncs_issued());
  Status st = store->Checkpoint();
  ASSERT_TRUE(st.IsIoError()) << st;

  // The store is poisoned: memory and disk may disagree, so mutations and
  // further checkpoints are refused with the original error.
  raw->Heal();
  EXPECT_TRUE(store->Put(PseudoKey({3u, 3u}), 3).IsIoError());
  EXPECT_TRUE(store->Checkpoint().IsIoError());
  // Reads still work: the in-memory tree is intact.
  EXPECT_TRUE(store->Get(PseudoKey({1u, 1u})).ok());
  store->SimulateCrashForTesting();
}

TEST_F(CheckpointEdgeTest, DirtyOpsCountsEveryLoggedRecord) {
  // A duplicate insert and an absent delete are logged like any record,
  // so they count as dirty before a crash exactly as replay counts them
  // after it.
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());
    EXPECT_TRUE(store->Put(PseudoKey({1u, 1u}), 2).IsAlreadyExists());
    EXPECT_TRUE(store->Delete(PseudoKey({2u, 2u})).IsKeyError());
    EXPECT_EQ(store->wal_records(), 3u);
    EXPECT_EQ(store->dirty_ops(), 3u);
    store->SimulateCrashForTesting();
  }
  auto store = MustOpen(Opts());
  EXPECT_EQ(store->wal_records(), 3u);
  EXPECT_EQ(store->dirty_ops(), 3u);
  auto got = store->Get(PseudoKey({1u, 1u}));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 1u);
}

TEST_F(CheckpointEdgeTest, FailedAutoCheckpointFailsTheWriteThatTriggeredIt) {
  StoreOptions opts = Opts(/*checkpoint_every=*/3);
  opts.wal_sync_every = 1;
  auto open_faulty = [&](FaultInjectingPageStore** raw) {
    auto injector = std::make_unique<FaultInjectingPageStore>(
        std::make_unique<InMemoryPageStore>());
    *raw = injector.get();
    auto opened = BmehStore::Open(std::move(injector), opts);
    BMEH_CHECK(opened.ok()) << opened.status();
    return std::move(opened).ValueOrDie();
  };

  // The third Put's own fsync succeeds; the auto-checkpoint's publish
  // fsync after it fails.  The record is durable, but the store is
  // poisoned, and the Put reports the checkpoint's error rather than OK.
  FaultInjectingPageStore* raw = nullptr;
  auto store = open_faulty(&raw);
  ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());
  ASSERT_TRUE(store->Put(PseudoKey({2u, 2u}), 2).ok());
  raw->FailNthSync(raw->syncs_issued() + 1);
  EXPECT_TRUE(store->Put(PseudoKey({3u, 3u}), 3).IsIoError());
  EXPECT_EQ(store->generation(), 0u);
  raw->Heal();
  EXPECT_TRUE(store->Put(PseudoKey({4u, 4u}), 4).IsIoError());
  EXPECT_TRUE(store->Get(PseudoKey({3u, 3u})).ok());
  store->SimulateCrashForTesting();

  // A batch that triggers the failing checkpoint returns its error too,
  // while per_record keeps each record's own outcome.
  store = open_faulty(&raw);
  ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());
  raw->FailNthSync(raw->syncs_issued() + 1);
  WriteBatch batch;
  batch.Put(PseudoKey({2u, 2u}), 2);
  batch.Put(PseudoKey({1u, 1u}), 9);  // duplicate
  std::vector<Status> per_record;
  EXPECT_TRUE(store->Write(batch, &per_record).IsIoError());
  ASSERT_EQ(per_record.size(), 2u);
  EXPECT_TRUE(per_record[0].ok()) << per_record[0];
  EXPECT_TRUE(per_record[1].IsAlreadyExists()) << per_record[1];
  store->SimulateCrashForTesting();
}

TEST_F(CheckpointEdgeTest, CrashedCheckpointPagesAreReclaimedOnReopen) {
  // Each cycle writes a full image that is never published, then crashes.
  // Without reachability-based reclamation those pages would leak and the
  // file would grow by one orphaned image per cycle.
  {
    auto store = MustOpen(Opts());
    for (uint32_t k = 1; k <= 300; ++k) {
      ASSERT_TRUE(store->Put(PseudoKey({k, k}), k).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  uint64_t size_after_first_cycle = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->tree().Validate().ok());
    EXPECT_EQ(store->tree().Stats().records, 300u + cycle);
    ASSERT_TRUE(store->Put(PseudoKey({1000u + cycle, 1u}), cycle).ok());
    store->SimulateCrashBeforePublishForTesting();
    ASSERT_TRUE(store->Checkpoint().ok());  // image written, never published
    store->SimulateCrashForTesting();
    store.reset();
    if (cycle == 0) size_after_first_cycle = FileSize();
  }
  const uint64_t final_size = FileSize();
  EXPECT_LE(final_size, size_after_first_cycle + size_after_first_cycle / 10)
      << "orphaned checkpoint images must be reclaimed, not leaked";
}

TEST_F(CheckpointEdgeTest, InspectReportsDurableStateWithoutMutating) {
  {
    auto store = MustOpen(Opts());
    for (uint32_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(store->Put(PseudoKey({i, i}), i).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Put(PseudoKey({4u, 4u}), 4).ok());
    ASSERT_TRUE(store->Delete(PseudoKey({1u, 1u})).ok());
    store->SimulateCrashForTesting();
  }
  auto info = BmehStore::Inspect(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->generation, 1u);
  EXPECT_NE(info->image_head, kInvalidPageId);
  EXPECT_NE(info->wal_head, kInvalidPageId);
  EXPECT_EQ(info->wal_records, 2u);
  EXPECT_EQ(info->records, 3u) << "3 checkpointed + 1 insert - 1 delete";
  EXPECT_GE(info->page_count, info->live_pages);
  EXPECT_EQ(info->page_size, kDefaultPageSize);

  // Inspection is read-only: a second pass sees the identical state, and a
  // real open still recovers normally afterwards.
  auto again = BmehStore::Inspect(path_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->wal_records, info->wal_records);
  EXPECT_EQ(again->records, info->records);

  auto store = MustOpen(Opts());
  EXPECT_EQ(store->tree().Stats().records, 3u);
  EXPECT_TRUE(store->Get(PseudoKey({1u, 1u})).status().IsKeyError());
  EXPECT_TRUE(store->Get(PseudoKey({4u, 4u})).ok());
  ASSERT_TRUE(store->tree().Validate().ok());
}

TEST_F(CheckpointEdgeTest, InspectAndScrubLeaveTheFileByteIdentical) {
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->InsertBatch(Records(3000)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  const std::vector<uint8_t> before = FileBytes();
  ASSERT_TRUE(BmehStore::Inspect(path_).ok());
  EXPECT_TRUE(FileBytes() == before) << "storeinfo must not write the store";
  ScrubReport report;
  ASSERT_TRUE(ScrubStore(path_, &report).ok());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(FileBytes() == before) << "scrub must not write the store";
}

TEST_F(CheckpointEdgeTest, ASingleRecordCommitWritesOnePage) {
  // A durable commit that does not seal its WAL page rewrites the tail
  // page and fsyncs; nothing else reaches the file.
  StoreOptions options = Opts();
  options.wal_sync_every = 1;
  auto store = MustOpen(options);
  dynamic_cast<FilePageStore*>(store->mutable_page_store())
      ->DisableFsyncForTesting();
  ASSERT_TRUE(store->Put(PseudoKey({1u, 1u}), 1).ok());  // starts the WAL
  const int64_t before = testing::WrittenBytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/io is unreadable";
  ASSERT_TRUE(store->Put(PseudoKey({2u, 2u}), 2).ok());
  EXPECT_EQ(testing::WrittenBytes() - before,
            kDefaultPageSize + FilePageStore::kPageTrailerSize);
}

TEST_F(CheckpointEdgeTest, ReleasedAndAdoptedPagesAreErased) {
  // A checkpoint's release erases the image it replaces, and an open
  // erases every page it finds unreachable (here, an image whose
  // checkpoint crashed before its publish).
  std::vector<PageId> first, second;
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->InsertBatch(Records(2000)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    first = ImagePages(store.get());
    ASSERT_TRUE(store->Put(PseudoKey({1u, 1u << 30}), 1).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    second = ImagePages(store.get());
    store->SimulateCrashForTesting();
  }
  ExpectErased(first);
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->Put(PseudoKey({2u, 1u << 30}), 2).ok());
    store->SimulateCrashBeforePublishForTesting();
    ASSERT_TRUE(store->Checkpoint().ok());  // image written, never published
    store->SimulateCrashForTesting();
  }
  {
    auto store = MustOpen(Opts());
    ASSERT_EQ(ImagePages(store.get()), second);
    store->SimulateCrashForTesting();
  }
  auto info = BmehStore::Inspect(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->wal_pages, 1u);
  std::unordered_set<PageId> live(second.begin(), second.end());
  live.insert(info->wal_head);
  std::vector<PageId> unreachable;
  const uint64_t pages = FileSize() / (kDefaultPageSize +
                                       FilePageStore::kPageTrailerSize);
  for (PageId id = 2; id < pages; ++id) {
    if (live.count(id) == 0) unreachable.push_back(id);
  }
  ASSERT_FALSE(unreachable.empty());
  ExpectErased(unreachable);
}

TEST_F(CheckpointEdgeTest, OnlyALoadReadsTheImage) {
  // The store keeps the page list of the image it wrote or loaded, so a
  // load is the one path that reads an image, once; a checkpoint frees
  // the image it replaces and a backup lists the one it copies from that
  // list.
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->InsertBatch(Records(20000)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put(PseudoKey({i, 1u << 30}), i).ok());
    }
    store->SimulateCrashForTesting();  // leave the WAL for the reopen
  }
  auto info = BmehStore::Inspect(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->wal_pages, 1u);
  const uint64_t image_pages = info->live_pages - 1 - info->wal_pages;
  ASSERT_GT(image_pages, 1u);
  EXPECT_EQ(info->page_reads, 1 + image_pages + info->wal_pages)
      << "Inspect reads the superblock, the image once and the WAL";

  auto store = MustOpen(Opts());
  const PageStore& device = store->page_store();
  EXPECT_EQ(device.stats().reads, 1 + image_pages + info->wal_pages)
      << "reopening reads the superblock, the image once and the WAL";

  uint64_t before = device.stats().reads;
  std::vector<PageId> listed = ImagePages(store.get());
  EXPECT_EQ(listed.size(), image_pages);
  EXPECT_EQ(device.stats().reads - before, info->wal_pages)
      << "a backup snapshot reads the WAL records, none of the image";

  before = device.stats().reads;
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(device.stats().reads - before, 0u)
      << "a checkpoint reads none of the image it replaces";

  before = device.stats().reads;
  listed = ImagePages(store.get());
  EXPECT_EQ(device.stats().reads - before, 0u);
  EXPECT_EQ(device.live_page_count(), 1 + listed.size())
      << "the old image and the old WAL went back to the free list";
}

TEST_F(CheckpointEdgeTest, CorruptionInTheDiscardedImageCannotFailACheckpoint) {
  // The checkpoint publishes a new image, then releases the old one.  A
  // page of the old image rotting on disk is no reason to fail: the
  // records are durable and the release reads nothing.
  auto store = MustOpen(Opts(/*checkpoint_every=*/100));
  ASSERT_TRUE(store->InsertBatch(Records(20000)).ok());
  ASSERT_EQ(store->generation(), 1u);
  FlipPageByte(ImagePages(store.get()).at(1), 100);

  for (uint32_t i = 0; i < 99; ++i) {
    ASSERT_TRUE(store->Put(PseudoKey({i, 1u << 30}), i).ok()) << i;
  }
  ASSERT_EQ(store->generation(), 1u);
  const Status last = store->Put(PseudoKey({99u, 1u << 30}), 99);
  EXPECT_TRUE(last.ok()) << "the auto-checkpoint of the 100th Put: " << last;
  EXPECT_TRUE(store->Get(PseudoKey({99u, 1u << 30})).ok());
  EXPECT_EQ(store->generation(), 2u);
  EXPECT_EQ(store->dirty_ops(), 0u);
  EXPECT_EQ(store->wal_records(), 0u)
      << "the checkpointed records left the live log";
  EXPECT_EQ(store->page_store().live_page_count(),
            1 + ImagePages(store.get()).size())
      << "live pages are the superblock and the new image";
}

TEST_F(CheckpointEdgeTest, OpenRefusesAnImageChainThatNeverEnds) {
  // A link from the image's last page back to its head passes every page
  // check, and the load has every byte of the image by then, but the walk
  // never reached the terminator: the open cannot tell which pages are
  // the image's, so it refuses to rebuild the free list from them.
  std::vector<PageId> image;
  {
    auto store = MustOpen(Opts());
    ASSERT_TRUE(store->InsertBatch(Records(2000)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    image = ImagePages(store.get());
  }
  ASSERT_GT(image.size(), 1u);
  {
    auto file = FilePageStore::Open(path_);
    ASSERT_TRUE(file.ok()) << file.status();
    std::vector<uint8_t> buf(kDefaultPageSize);
    ASSERT_TRUE((*file)->Read(image.back(), buf).ok());
    PutU32(buf.data(), image.front());
    ASSERT_TRUE((*file)->Write(image.back(), buf).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto reopened = BmehStore::Open(path_, Opts());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

}  // namespace
}  // namespace bmeh
