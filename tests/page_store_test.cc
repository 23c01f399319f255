#include "src/pagestore/page_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/common/bytes.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

std::vector<uint8_t> Pattern(int size, uint8_t seed) {
  std::vector<uint8_t> buf(size);
  for (int i = 0; i < size; ++i) {
    buf[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return buf;
}

class PageStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      // The process id keeps concurrent test processes apart: a heap
      // address alone can repeat from one process to the next.
      path_ = ::testing::TempDir() + "/bmeh_store_" +
              std::to_string(::getpid()) + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".db";
      auto r = FilePageStore::Create(path_, 256);
      ASSERT_TRUE(r.ok()) << r.status();
      store_ = std::move(r).ValueOrDie();
    } else {
      store_ = std::make_unique<InMemoryPageStore>(256);
    }
  }

  void TearDown() override {
    store_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::unique_ptr<PageStore> store_;
  std::string path_;
};

INSTANTIATE_TEST_SUITE_P(Backends, PageStoreTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "File" : "InMemory";
                         });

TEST_P(PageStoreTest, AllocateWriteReadRoundTrip) {
  auto r = store_->Allocate();
  ASSERT_TRUE(r.ok());
  const PageId id = *r;
  auto data = Pattern(256, 3);
  ASSERT_TRUE(store_->Write(id, data).ok());
  std::vector<uint8_t> back(256);
  ASSERT_TRUE(store_->Read(id, back).ok());
  EXPECT_EQ(back, data);
}

TEST_P(PageStoreTest, FreshPagesAreZeroed) {
  auto r = store_->Allocate();
  ASSERT_TRUE(r.ok());
  std::vector<uint8_t> back(256, 0xff);
  ASSERT_TRUE(store_->Read(*r, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0));
}

TEST_P(PageStoreTest, DistinctPagesDoNotAlias) {
  auto a = store_->Allocate();
  auto b = store_->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(*a, *b);
  ASSERT_TRUE(store_->Write(*a, Pattern(256, 1)).ok());
  ASSERT_TRUE(store_->Write(*b, Pattern(256, 2)).ok());
  std::vector<uint8_t> back(256);
  ASSERT_TRUE(store_->Read(*a, back).ok());
  EXPECT_EQ(back, Pattern(256, 1));
}

TEST_P(PageStoreTest, FreeAndRecycle) {
  auto a = store_->Allocate();
  ASSERT_TRUE(a.ok());
  const uint64_t live_before = store_->live_page_count();
  ASSERT_TRUE(store_->Free(*a).ok());
  EXPECT_EQ(store_->live_page_count(), live_before - 1);
  auto b = store_->Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a) << "freed page should be recycled";
}

TEST_P(PageStoreTest, RecycledPageIsZeroed) {
  auto a = store_->Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store_->Write(*a, Pattern(256, 9)).ok());
  ASSERT_TRUE(store_->Free(*a).ok());
  auto b = store_->Allocate();
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> back(256, 0xff);
  ASSERT_TRUE(store_->Read(*b, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0));
}

TEST_P(PageStoreTest, SizeMismatchRejected) {
  auto a = store_->Allocate();
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> small(100);
  EXPECT_TRUE(store_->Read(*a, small).IsInvalid());
  EXPECT_TRUE(store_->Write(*a, small).IsInvalid());
}

TEST_P(PageStoreTest, DoubleFreeRejected) {
  auto a = store_->Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store_->Free(*a).ok());
  EXPECT_FALSE(store_->Free(*a).ok());
}

TEST_P(PageStoreTest, StatsCount) {
  store_->ResetStats();
  auto a = store_->Allocate();
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(store_->Write(*a, buf).ok());
  ASSERT_TRUE(store_->Read(*a, buf).ok());
  ASSERT_TRUE(store_->Free(*a).ok());
  EXPECT_EQ(store_->stats().allocs, 1u);
  EXPECT_EQ(store_->stats().writes, 1u);
  EXPECT_EQ(store_->stats().reads, 1u);
  EXPECT_EQ(store_->stats().frees, 1u);
}

TEST_P(PageStoreTest, QuotaRefusesAllocationBeyondMax) {
  const uint64_t base = store_->total_page_count();
  store_->SetMaxPages(base + 2);
  auto a = store_->Allocate();
  auto b = store_->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  store_->ResetStats();
  auto c = store_->Allocate();
  ASSERT_TRUE(c.status().IsResourceExhausted()) << c.status();
  EXPECT_TRUE(c.status().IsTransient());
  EXPECT_EQ(store_->stats().alloc_failures, 1u);
  // The refusal left the store fully usable: freed pages stay allocatable
  // under the cap, and raising the cap unblocks growth.
  ASSERT_TRUE(store_->Free(*a).ok());
  EXPECT_TRUE(store_->Allocate().ok()) << "freed page must recycle at cap";
  store_->SetMaxPages(base + 3);
  EXPECT_TRUE(store_->Allocate().ok());
}

TEST_P(PageStoreTest, ReserveSetsPagesAsideAndAllocateConsumesThem) {
  const uint64_t base = store_->total_page_count();
  store_->SetMaxPages(base + 3);
  ASSERT_TRUE(store_->Reserve(2).ok());
  EXPECT_EQ(store_->reserved_pages(), 2u);
  // The reservation counts against headroom: only one unreserved slot is
  // left, so a second 2-page reservation must fail up front.
  Status st = store_->Reserve(2);
  EXPECT_TRUE(st.IsResourceExhausted()) << st;
  // Allocations drain the reservation first.
  ASSERT_TRUE(store_->Allocate().ok());
  EXPECT_EQ(store_->reserved_pages(), 1u);
  ASSERT_TRUE(store_->Allocate().ok());
  EXPECT_EQ(store_->reserved_pages(), 0u);
  // Beyond the reservation, plain headroom still applies.
  ASSERT_TRUE(store_->Allocate().ok());
  EXPECT_TRUE(store_->Allocate().status().IsResourceExhausted());
}

TEST_P(PageStoreTest, ReleaseReservationReturnsHeadroom) {
  const uint64_t base = store_->total_page_count();
  store_->SetMaxPages(base + 2);
  ASSERT_TRUE(store_->Reserve(2).ok());
  EXPECT_TRUE(store_->Allocate().status().ok());  // consumes one slot
  store_->ReleaseReservation(1);
  EXPECT_EQ(store_->reserved_pages(), 0u);
  EXPECT_TRUE(store_->Allocate().ok());
  EXPECT_TRUE(store_->Allocate().status().IsResourceExhausted());
}

TEST_P(PageStoreTest, UnlimitedStoreReservesFreely) {
  ASSERT_TRUE(store_->Reserve(1000).ok());
  store_->ReleaseReservation(1000);
  EXPECT_EQ(store_->reserved_pages(), 0u);
  EXPECT_TRUE(store_->Allocate().ok());
}

TEST_P(PageStoreTest, HighWaterMarkTracksPeakLivePages) {
  auto a = store_->Allocate();
  auto b = store_->Allocate();
  auto c = store_->Allocate();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint64_t peak = store_->live_page_count();
  ASSERT_TRUE(store_->Free(*b).ok());
  ASSERT_TRUE(store_->Free(*c).ok());
  EXPECT_EQ(store_->stats().high_water_pages, peak)
      << "high-water mark must survive frees";
}

TEST(FilePageStoreTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/bmeh_reopen.db";
  PageId id;
  auto data = Pattern(512, 5);
  {
    auto r = FilePageStore::Create(path, 512);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    ASSERT_TRUE(a.ok());
    id = *a;
    ASSERT_TRUE(store->Write(id, data).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  {
    auto r = FilePageStore::Open(path);
    ASSERT_TRUE(r.ok()) << r.status();
    auto store = std::move(r).ValueOrDie();
    EXPECT_EQ(store->page_size(), 512);
    EXPECT_EQ(store->live_page_count(), 1u);
    std::vector<uint8_t> back(512);
    ASSERT_TRUE(store->Read(id, back).ok());
    EXPECT_EQ(back, data);
  }
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, FreeListPersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/bmeh_freelist.db";
  PageId freed;
  {
    auto r = FilePageStore::Create(path, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    auto b = store->Allocate();
    ASSERT_TRUE(a.ok() && b.ok());
    freed = *a;
    ASSERT_TRUE(store->Free(freed).ok());
  }
  {
    auto r = FilePageStore::Open(path);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    // The free list lives in memory; every store open hands it back.
    ASSERT_TRUE(store->AdoptFreeList({freed}).ok());
    auto c = store->Allocate();
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*c, freed) << "the adopted free list hands back the page";
    std::vector<uint8_t> back(128, 0xff);
    ASSERT_TRUE(store->Read(*c, back).ok());
    EXPECT_EQ(back, std::vector<uint8_t>(128, 0));
  }
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, OpenRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bmeh_garbage.db";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[128] = "this is not a bmeh store";
    fwrite(junk, 1, sizeof(junk), f);
    fclose(f);
  }
  auto r = FilePageStore::Open(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status();
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, OpenMissingFileFails) {
  auto r = FilePageStore::Open("/nonexistent/dir/store.db");
  EXPECT_TRUE(r.status().IsIoError());
}

// XORs the byte at `off` in `path` with `mask` — disk bit rot in one line.
void FlipByteAt(const std::string& path, long off, uint8_t mask = 0xff) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint8_t b = 0;
  ASSERT_EQ(fseek(f, off, SEEK_SET), 0);
  ASSERT_EQ(fread(&b, 1, 1, f), 1u);
  b ^= mask;
  ASSERT_EQ(fseek(f, off, SEEK_SET), 0);
  ASSERT_EQ(fwrite(&b, 1, 1, f), 1u);
  fclose(f);
}

constexpr long kPhysical128 = 128 + FilePageStore::kPageTrailerSize;

TEST(FilePageStoreTest, V2PagesCarryVerifiableTrailers) {
  const std::string path = ::testing::TempDir() + "/bmeh_v2_trailer.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  EXPECT_EQ(store->format_version(), 2);
  auto a = store->Allocate();
  auto b = store->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(store->Write(*a, Pattern(128, 1)).ok());
  ASSERT_TRUE(store->Write(*b, Pattern(128, 2)).ok());
  ASSERT_TRUE(store->Free(*b).ok());
  ASSERT_TRUE(store->Sync().ok());

  // Header, live and free pages all verify — the scrubber's contract.
  for (PageId id = 0; id < store->page_count(); ++id) {
    EXPECT_TRUE(store->VerifyPage(id).ok()) << "page " << id;
  }
  // Physical layout: payload plus trailer per page, nothing more.
  EXPECT_EQ(std::filesystem::file_size(path),
            store->page_count() * static_cast<uint64_t>(kPhysical128));
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, FreedPageHoldsZerosUnderAValidTrailer) {
  // No chain links the free pages: Free erases the page, so nothing that
  // reaches it later finds the bytes it held.
  const std::string path = ::testing::TempDir() + "/bmeh_erased.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  auto b = store->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(store->Write(*a, Pattern(128, 1)).ok());
  ASSERT_TRUE(store->Write(*b, Pattern(128, 2)).ok());
  ASSERT_TRUE(store->Free(*a).ok());
  std::vector<uint8_t> file;
  ASSERT_TRUE(ReadWholeFile(path, &file).ok());
  const auto page = file.begin() + *a * kPhysical128;
  EXPECT_EQ(std::vector<uint8_t>(page, page + 128),
            std::vector<uint8_t>(128, 0));
  EXPECT_TRUE(store->VerifyPage(*a).ok());
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, TrailerCrcMatchesTheFormat) {
  // Recompute the header's, a written page's and an erased page's trailer
  // from the file as docs/FORMATS.md section 1 defines it, with a bitwise
  // CRC32 rather than the store's own: whatever computes the checksum, the
  // bytes on disk must stay the format every other version reads.
  const std::string path = ::testing::TempDir() + "/bmeh_trailer_format.db";
  PageId written = 0;
  PageId erased = 0;
  {
    auto r = FilePageStore::Create(path, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    auto b = store->Allocate();
    ASSERT_TRUE(a.ok() && b.ok());
    written = *a;
    erased = *b;
    ASSERT_TRUE(store->Write(written, Pattern(128, 5)).ok());
    ASSERT_TRUE(store->Write(erased, Pattern(128, 6)).ok());
    ASSERT_TRUE(store->Free(erased).ok());
  }
  std::vector<uint8_t> file;
  ASSERT_TRUE(ReadWholeFile(path, &file).ok());
  ASSERT_GE(file.size(), (std::max(written, erased) + 1) *
                             static_cast<size_t>(kPhysical128));
  ASSERT_EQ(GetU32(file.data()), 0x32484d42u);  // BMH2
  const uint32_t epoch = GetU32(file.data() + 28);
  for (PageId id : {PageId{0}, written, erased}) {
    const uint8_t* page = file.data() + id * kPhysical128;
    const uint8_t* t = page + 128;
    EXPECT_EQ(t[0], 2) << "page " << id;
    EXPECT_EQ(t[1] | t[2] | t[3], 0) << "page " << id;
    EXPECT_EQ(GetU32(t + 4), id);
    EXPECT_EQ(GetU32(t + 8), epoch) << "page " << id;
    EXPECT_EQ(GetU32(t + 12),
              testing::BitwiseCrc32(page, 128 + 12,
                                    (id * 2654435761u) ^ epoch))
        << "page " << id;
  }
  const uint8_t* erased_page = file.data() + erased * kPhysical128;
  EXPECT_EQ(std::vector<uint8_t>(erased_page, erased_page + 128),
            std::vector<uint8_t>(128, 0));
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, SyncOfAHealthyFileWritesNothing) {
  const std::string path = ::testing::TempDir() + "/bmeh_sync_writes.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  store->DisableFsyncForTesting();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store->Write(*a, Pattern(128, 3)).ok());
  const int64_t before = testing::WrittenBytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/io is unreadable";
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(testing::WrittenBytes() - before, 0)
      << "the header is written by Create, not by Sync";
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, OnlyGrowingTheFileWritesAtAllocate) {
  const std::string path = ::testing::TempDir() + "/bmeh_alloc_writes.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store->Write(*a, Pattern(128, 4)).ok());
  ASSERT_TRUE(store->Free(*a).ok());
  int64_t before = testing::WrittenBytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/io is unreadable";
  auto recycled = store->Allocate();
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(testing::WrittenBytes() - before, 0)
      << "Free erased the page already";
  EXPECT_EQ(*recycled, *a);
  std::vector<uint8_t> back(128, 0xff);
  ASSERT_TRUE(store->Read(*recycled, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(128, 0));

  before = testing::WrittenBytes();
  ASSERT_TRUE(store->Allocate().ok());
  EXPECT_EQ(testing::WrittenBytes() - before, kPhysical128)
      << "a page that grows the file is written once, as zeros";
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, BitRotSurfacesDataLossAfterRetries) {
  const std::string path = ::testing::TempDir() + "/bmeh_bitrot.db";
  PageId id;
  {
    auto r = FilePageStore::Create(path, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    ASSERT_TRUE(a.ok());
    id = *a;
    ASSERT_TRUE(store->Write(id, Pattern(128, 7)).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  FlipByteAt(path, static_cast<long>(id) * kPhysical128 + 10);

  auto r = FilePageStore::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  store->ResetStats();
  std::vector<uint8_t> buf(128);
  Status st = store->Read(id, buf);
  EXPECT_TRUE(st.IsDataLoss()) << st;
  EXPECT_EQ(store->stats().read_retries, 3u);
  EXPECT_EQ(store->stats().checksum_failures, 4u)
      << "every attempt saw the same rotten bytes";
  EXPECT_TRUE(store->VerifyPage(id).IsDataLoss());
  EXPECT_TRUE(store->VerifyPage(0).ok()) << "damage is confined to one page";
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, TransientReadErrorsAreAbsorbedByRetry) {
  const std::string path = ::testing::TempDir() + "/bmeh_transient.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok());
  const auto data = Pattern(128, 4);
  ASSERT_TRUE(store->Write(*a, data).ok());

  store->InjectTransientReadErrorsForTesting(2);
  store->ResetStats();
  std::vector<uint8_t> buf(128);
  ASSERT_TRUE(store->Read(*a, buf).ok());
  EXPECT_EQ(buf, data);
  EXPECT_EQ(store->stats().read_retries, 2u);
  EXPECT_EQ(store->stats().checksum_failures, 0u);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, RetryBudgetExhaustionIsIoError) {
  const std::string path = ::testing::TempDir() + "/bmeh_exhaust.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok());
  const auto data = Pattern(128, 6);
  ASSERT_TRUE(store->Write(*a, data).ok());

  store->InjectTransientReadErrorsForTesting(100);
  std::vector<uint8_t> buf(128);
  Status st = store->Read(*a, buf);
  EXPECT_TRUE(st.IsIoError()) << "transient exhaustion is IoError, "
                                 "not DataLoss: " << st;
  store->InjectTransientReadErrorsForTesting(0);
  ASSERT_TRUE(store->Read(*a, buf).ok());
  EXPECT_EQ(buf, data);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, InFlightCorruptReadIsHealedByReRead) {
  const std::string path = ::testing::TempDir() + "/bmeh_torn_read.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok());
  const auto data = Pattern(128, 8);
  ASSERT_TRUE(store->Write(*a, data).ok());

  store->CorruptNextReadsForTesting(1);
  store->ResetStats();
  std::vector<uint8_t> buf(128);
  ASSERT_TRUE(store->Read(*a, buf).ok())
      << "a one-off bad transfer is absorbed, not surfaced";
  EXPECT_EQ(buf, data);
  EXPECT_EQ(store->stats().checksum_failures, 1u);
  EXPECT_EQ(store->stats().read_retries, 1u);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, MisdirectedWriteIsDetectedByIdBinding) {
  const std::string path = ::testing::TempDir() + "/bmeh_misdirect.db";
  PageId a, b;
  {
    auto r = FilePageStore::Create(path, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto ra = store->Allocate();
    auto rb = store->Allocate();
    ASSERT_TRUE(ra.ok() && rb.ok());
    a = *ra;
    b = *rb;
    ASSERT_TRUE(store->Write(a, Pattern(128, 1)).ok());
    ASSERT_TRUE(store->Write(b, Pattern(128, 2)).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  // Land page a's (internally consistent!) physical bytes at b's offset —
  // what a firmware bug that misdirects a write does.
  std::vector<uint8_t> phys(kPhysical128);
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, static_cast<long>(a) * kPhysical128, SEEK_SET), 0);
    ASSERT_EQ(fread(phys.data(), 1, phys.size(), f), phys.size());
    ASSERT_EQ(fseek(f, static_cast<long>(b) * kPhysical128, SEEK_SET), 0);
    ASSERT_EQ(fwrite(phys.data(), 1, phys.size(), f), phys.size());
    fclose(f);
  }
  auto r = FilePageStore::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  std::vector<uint8_t> buf(128);
  Status st = store->Read(b, buf);
  EXPECT_TRUE(st.IsDataLoss()) << st;
  ASSERT_TRUE(store->Read(a, buf).ok());
  EXPECT_EQ(buf, Pattern(128, 1));
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, ForeignStorePageIsRejectedByEpoch) {
  const std::string path1 = ::testing::TempDir() + "/bmeh_epoch1.db";
  const std::string path2 = ::testing::TempDir() + "/bmeh_epoch2.db";
  PageId id;
  for (const auto& p : {path1, path2}) {
    auto r = FilePageStore::Create(p, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    ASSERT_TRUE(a.ok());
    id = *a;
    ASSERT_TRUE(store->Write(id, Pattern(128, 3)).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  // Same page id, same payload, valid trailer — but written for another
  // store file.  Only the epoch seed can tell the difference.
  std::vector<uint8_t> phys(kPhysical128);
  {
    FILE* f1 = fopen(path1.c_str(), "rb");
    FILE* f2 = fopen(path2.c_str(), "r+b");
    ASSERT_NE(f1, nullptr);
    ASSERT_NE(f2, nullptr);
    ASSERT_EQ(fseek(f1, static_cast<long>(id) * kPhysical128, SEEK_SET), 0);
    ASSERT_EQ(fread(phys.data(), 1, phys.size(), f1), phys.size());
    ASSERT_EQ(fseek(f2, static_cast<long>(id) * kPhysical128, SEEK_SET), 0);
    ASSERT_EQ(fwrite(phys.data(), 1, phys.size(), f2), phys.size());
    fclose(f1);
    fclose(f2);
  }
  auto r = FilePageStore::Open(path2);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  std::vector<uint8_t> buf(128);
  EXPECT_TRUE(store->Read(id, buf).IsDataLoss());
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(FilePageStoreTest, CorruptHeaderFailsStrictOpenButNotRecovery) {
  const std::string path = ::testing::TempDir() + "/bmeh_badheader.db";
  PageId id;
  {
    auto r = FilePageStore::Create(path, 128);
    ASSERT_TRUE(r.ok());
    auto store = std::move(r).ValueOrDie();
    auto a = store->Allocate();
    ASSERT_TRUE(a.ok());
    id = *a;
    ASSERT_TRUE(store->Write(id, Pattern(128, 5)).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  // Damage a header byte the open itself does not parse (past the fixed
  // fields), so only the trailer check can notice.
  FlipByteAt(path, 60);

  auto r = FilePageStore::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  EXPECT_TRUE(store->header_damaged());
  std::vector<uint8_t> buf(128);
  ASSERT_TRUE(store->Read(id, buf).ok()) << "data pages are unaffected";
  EXPECT_EQ(buf, Pattern(128, 5));
  // Sync rewrites (and heals) the header.
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_FALSE(store->header_damaged());
  EXPECT_TRUE(store->VerifyPage(0).ok());
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, LegacyV1StoreOpensWithoutVerification) {
  const std::string path = ::testing::TempDir() + "/bmeh_legacy.db";
  // Hand-craft a v1 file: 128-byte pages, no trailers, header + one live
  // page.  This is the layout the pre-checksum format wrote.
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> header(128, 0);
    const uint32_t magic = 0x424d4548;  // "BMEH"
    const uint32_t page_size = 128;
    const uint64_t page_count = 2, live = 1;
    const uint32_t free_head = kInvalidPageId;
    memcpy(header.data(), &magic, 4);
    memcpy(header.data() + 4, &page_size, 4);
    memcpy(header.data() + 8, &page_count, 8);
    memcpy(header.data() + 16, &live, 8);
    memcpy(header.data() + 24, &free_head, 4);
    ASSERT_EQ(fwrite(header.data(), 1, header.size(), f), header.size());
    const auto payload = Pattern(128, 9);
    ASSERT_EQ(fwrite(payload.data(), 1, payload.size(), f), payload.size());
    fclose(f);
  }
  auto r = FilePageStore::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  EXPECT_EQ(store->format_version(), 1);
  EXPECT_EQ(store->epoch(), 0u);
  std::vector<uint8_t> buf(128);
  ASSERT_TRUE(store->Read(1, buf).ok());
  EXPECT_EQ(buf, Pattern(128, 9));
  EXPECT_TRUE(store->VerifyPage(1).ok()) << "v1 pages verify vacuously";
  // Round-trip a write and a reopen: the file must stay v1 (there is no
  // room for trailers at v1 offsets).
  ASSERT_TRUE(store->Write(1, Pattern(128, 10)).ok());
  store.reset();
  r = FilePageStore::Open(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->format_version(), 1);
  ASSERT_TRUE((*r)->Read(1, buf).ok());
  EXPECT_EQ(buf, Pattern(128, 10));
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, HeaderPageIsProtected) {
  const std::string path = ::testing::TempDir() + "/bmeh_header.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).ValueOrDie();
  std::vector<uint8_t> buf(128);
  EXPECT_FALSE(store->Read(0, buf).ok());
  EXPECT_FALSE(store->Write(0, buf).ok());
  EXPECT_FALSE(store->Free(0).ok());
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, EintrIsAbsorbedAtEverySyscallSite) {
  // A signal delivery can interrupt any slow syscall.  Slide a burst of
  // injected EINTRs across every intercepted open/pread/pwrite of a fixed
  // create → write → sync → reopen → read scenario: wherever the burst
  // lands, the retry loops must absorb it with no surfaced error.
  const std::string path = ::testing::TempDir() + "/bmeh_eintr.db";
  const uint64_t absorbed_before = internal::EintrRetriesForTesting();
  const auto data = Pattern(256, 9);
  for (uint64_t nth = 0; nth < 48; ++nth) {
    std::remove(path.c_str());
    internal::InjectEintrForTesting(nth, 3);
    PageId id;
    {
      auto r = FilePageStore::Create(path, 256);
      ASSERT_TRUE(r.ok()) << "nth=" << nth << ": " << r.status();
      auto store = std::move(r).ValueOrDie();
      auto a = store->Allocate();
      ASSERT_TRUE(a.ok()) << "nth=" << nth << ": " << a.status();
      id = *a;
      ASSERT_TRUE(store->Write(id, data).ok()) << "nth=" << nth;
      ASSERT_TRUE(store->Sync().ok()) << "nth=" << nth;
    }
    {
      auto r = FilePageStore::Open(path);
      ASSERT_TRUE(r.ok()) << "nth=" << nth << ": " << r.status();
      auto store = std::move(r).ValueOrDie();
      std::vector<uint8_t> back(256);
      ASSERT_TRUE(store->Read(id, back).ok()) << "nth=" << nth;
      EXPECT_EQ(back, data) << "nth=" << nth;
    }
  }
  internal::InjectEintrForTesting(UINT64_MAX, 0);  // disarm
  // The sweep must actually have exercised the retry paths.
  EXPECT_GT(internal::EintrRetriesForTesting(), absorbed_before);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, SyncAbsorbsEintr) {
  // The store's own fsync is a syscall site like any other: an interrupted
  // fsync is a signal delivery, not lost durability, so it must neither
  // fail the Sync nor leave a sticky error behind.
  const std::string path = ::testing::TempDir() + "/bmeh_sync_eintr.db";
  auto r = FilePageStore::Create(path, 128);
  ASSERT_TRUE(r.ok()) << r.status();
  auto store = std::move(r).ValueOrDie();
  auto a = store->Allocate();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(store->Write(*a, Pattern(128, 4)).ok());
  const uint64_t absorbed_before = internal::EintrRetriesForTesting();
  internal::InjectEintrForTesting(0, 2);
  const Status st = store->Sync();
  internal::InjectEintrForTesting(UINT64_MAX, 0);  // disarm
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(internal::EintrRetriesForTesting() - absorbed_before, 2u);
  EXPECT_TRUE(store->Sync().ok());
  store.reset();
  std::remove(path.c_str());
}

TEST(SyncDirectoryTest, FailuresAreStickyPerDirectory) {
  // Once a directory fsync has failed, the kernel may already have
  // dropped the dirty entries, so a later fsync that "succeeds" proves
  // nothing about the earlier renames.  The failure must therefore stay
  // pinned to the path until the process gives up on it — the directory
  // half of the PostgreSQL fsync-gate lesson.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/bmeh_dirsync_victim";
  const std::string sibling = ::testing::TempDir() + "/bmeh_dirsync_sibling";
  fs::create_directory(dir);
  fs::create_directory(sibling);
  internal::ResetStickyDirSyncErrorsForTesting();

  ASSERT_TRUE(SyncDirectory(dir).ok());  // healthy baseline

  internal::InjectDirSyncErrorsForTesting(1);
  const Status first = SyncDirectory(dir);
  ASSERT_TRUE(first.IsIoError()) << first;

  // The injection budget is spent with that one failure; the next call
  // would reach the real (healthy) fsync.  It must still refuse.
  const Status second = SyncDirectory(dir);
  EXPECT_TRUE(second.IsIoError()) << "dir-fsync failure was not sticky";
  EXPECT_NE(second.message().find("sticky"), std::string::npos) << second;

  // Stickiness is a property of the path, not the process: a sibling
  // directory still syncs fine.
  EXPECT_TRUE(SyncDirectory(sibling).ok());

  internal::ResetStickyDirSyncErrorsForTesting();
  EXPECT_TRUE(SyncDirectory(dir).ok());
  fs::remove_all(dir);
  fs::remove_all(sibling);
}

}  // namespace
}  // namespace bmeh
