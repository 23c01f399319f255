// Unit tests for the write-ahead log: append/replay round trips, torn-tail
// detection via the offset-seeded CRC, tail sanitization, and fsync
// batching (observed through the fault injector's sync counter).

#include "src/store/wal.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/pagestore/fault_injecting_page_store.h"
#include "src/pagestore/page_store.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

Wal::LogRecord Insert(uint32_t a, uint32_t b, uint64_t payload) {
  return {Wal::kOpInsert, PseudoKey({a, b}), payload};
}

Wal::LogRecord Delete(uint32_t a, uint32_t b) {
  return {Wal::kOpDelete, PseudoKey({a, b}), 0};
}

bool SameRecord(const Wal::LogRecord& x, const Wal::LogRecord& y) {
  return x.op == y.op && x.key == y.key &&
         (x.op != Wal::kOpInsert || x.payload == y.payload);
}

std::vector<Wal::LogRecord> ReplayAll(Wal* wal, PageId head,
                                      bool sanitize_tail = true) {
  std::vector<Wal::LogRecord> out;
  Status st = wal->Replay(
      head,
      [&](const Wal::LogRecord& rec) {
        out.push_back(rec);
        return Status::OK();
      },
      sanitize_tail);
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

std::vector<uint8_t> PageBytes(PageStore* store, PageId id) {
  std::vector<uint8_t> buf(store->page_size());
  EXPECT_TRUE(store->Read(id, buf).ok()) << "page " << id;
  return buf;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The standard CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, SeedChangesValue) {
  const char data[] = "same bytes";
  EXPECT_NE(Crc32(data, sizeof(data), 8), Crc32(data, sizeof(data), 32));
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next64());
  return out;
}

// Two physical 4 KiB pages (payload plus trailer), so every length a page
// trailer checksums is covered with room on both sides.
constexpr size_t kMaxCrcLength = 2 * (4096 + 16);

TEST(Crc32Test, EqualsBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length from 0 up, from each of 8 start offsets (so the 8-byte
  // loads land at every alignment), under a random seed per offset.  The
  // reference advances one byte per length instead of redoing the prefix.
  Rng rng(23);
  const auto buf = RandomBytes(&rng, kMaxCrcLength + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = buf.data() + offset;
    const uint32_t seed = static_cast<uint32_t>(rng.Next64());
    uint32_t want = seed;  // the reference CRC of the first `n` bytes
    for (size_t n = 0; n <= kMaxCrcLength; ++n) {
      ASSERT_EQ(Crc32(data, n, seed), want)
          << "offset " << offset << " length " << n << " seed " << seed;
      // Seeding with a CRC continues it (docs/FORMATS.md).
      want = testing::BitwiseCrc32(data + n, 1, want);
    }
  }
}

TEST(Crc32Test, SeedingWithACrcContinuesIt) {
  // Crc32(b, Crc32(a, s)) == Crc32(a ‖ b, s): a checksum may be computed
  // in pieces, as the golden image test chains it across pages.
  Rng rng(2301);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t total = rng.Uniform(kMaxCrcLength + 1);
    const size_t split = rng.Uniform(total + 1);
    const auto bytes = RandomBytes(&rng, total);
    const uint32_t seed = static_cast<uint32_t>(rng.Next64());
    const uint32_t whole = Crc32(bytes.data(), total, seed);
    EXPECT_EQ(Crc32(bytes.data() + split, total - split,
                    Crc32(bytes.data(), split, seed)),
              whole)
        << "total " << total << " split " << split;
    EXPECT_EQ(testing::BitwiseCrc32(bytes.data(), total, seed), whole)
        << "total " << total;
  }
}

TEST(WalTest, AppendReplayRoundTrip) {
  // 64-byte pages hold two insert records each, so nine records span
  // several pages.
  InMemoryPageStore store(64);
  Wal wal(&store, /*sync_every=*/1);
  std::vector<Wal::LogRecord> written;
  for (uint32_t i = 0; i < 9; ++i) {
    Wal::LogRecord rec =
        (i % 3 == 2) ? Delete(i, i * 7) : Insert(i, i * 7, 1000 + i);
    ASSERT_TRUE(wal.Append(rec).ok());
    written.push_back(rec);
  }
  EXPECT_EQ(wal.record_count(), 9u);
  EXPECT_GE(wal.pages().size(), 3u);

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_TRUE(SameRecord(replayed[i], written[i])) << "record " << i;
  }
  EXPECT_EQ(reader.record_count(), 9u);
  EXPECT_EQ(reader.pages(), wal.pages());
}

TEST(WalTest, ReplayOfEmptyLogIsEmpty) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  auto replayed = ReplayAll(&wal, kInvalidPageId);
  EXPECT_TRUE(replayed.empty());
  EXPECT_TRUE(wal.empty());
  EXPECT_EQ(wal.record_count(), 0u);
}

TEST(WalTest, TornRecordIsDiscardedAndPrefixKept) {
  // One 256-byte page: records at offsets 8, 32, 56 (each 24 bytes).
  InMemoryPageStore store(256);
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  const PageId head = wal.head();
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(store.Read(head, buf).ok());
  buf[58] ^= 0xff;  // flip a byte inside the third record's body
  ASSERT_TRUE(store.Write(head, buf).ok());

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, head);
  ASSERT_EQ(replayed.size(), 2u) << "torn third record must be dropped";
  EXPECT_TRUE(SameRecord(replayed[0], Insert(0, 0, 0)));
  EXPECT_TRUE(SameRecord(replayed[1], Insert(1, 1, 1)));
}

TEST(WalTest, AppendAfterTruncatedReplayDoesNotResurrectGarbage) {
  InMemoryPageStore store(256);
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  const PageId head = wal.head();
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(store.Read(head, buf).ok());
  buf[58] ^= 0xff;
  ASSERT_TRUE(store.Write(head, buf).ok());

  // Recover (sanitizing the tail), then keep appending.
  Wal recovered(&store, 1);
  ASSERT_EQ(ReplayAll(&recovered, head).size(), 2u);
  ASSERT_TRUE(recovered.Append(Insert(9, 9, 9)).ok());

  // A fresh replay must see exactly prefix + new record: the torn record's
  // bytes may not reappear even though they were valid-length.
  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, head);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_TRUE(SameRecord(replayed[2], Insert(9, 9, 9)));
}

TEST(WalTest, GarbageHeadMeansEmptyLog) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(1, 2, 3)).ok());
  const PageId head = wal.head();
  std::vector<uint8_t> garbage(64, 0xab);
  ASSERT_TRUE(store.Write(head, garbage).ok());

  Wal reader(&store, 1);
  EXPECT_TRUE(ReplayAll(&reader, head).empty());
  EXPECT_TRUE(reader.empty()) << "a log with no valid record is empty";
}

TEST(WalTest, StaleNextLinkIsClearedOnRecovery) {
  // Build a two-page chain, then corrupt the second page: replay keeps the
  // first page's records and must sever the dangling link so later appends
  // chain to a fresh page instead of the corpse.
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  ASSERT_EQ(wal.pages().size(), 2u);
  const PageId head = wal.head();
  const PageId second = wal.pages()[1];
  std::vector<uint8_t> garbage(64, 0xcd);
  ASSERT_TRUE(store.Write(second, garbage).ok());

  Wal recovered(&store, 1);
  ASSERT_EQ(ReplayAll(&recovered, head).size(), 2u);
  EXPECT_EQ(recovered.pages().size(), 1u);
  ASSERT_TRUE(recovered.Append(Insert(9, 9, 9)).ok());
  ASSERT_TRUE(recovered.Append(Insert(10, 10, 10)).ok());  // seals page 1

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, head);
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_TRUE(SameRecord(replayed[2], Insert(9, 9, 9)));
  EXPECT_TRUE(SameRecord(replayed[3], Insert(10, 10, 10)));
}

TEST(WalTest, TruncateReturnsPagesToTheStore) {
  InMemoryPageStore store(64);
  const uint64_t before = store.live_page_count();
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  EXPECT_GT(store.live_page_count(), before);
  for (PageId id : wal.TruncateDeferred()) ASSERT_TRUE(store.Free(id).ok());
  EXPECT_EQ(store.live_page_count(), before);
  EXPECT_TRUE(wal.empty());
  EXPECT_EQ(wal.record_count(), 0u);

  // The log is reusable after truncation.
  ASSERT_TRUE(wal.Append(Insert(1, 1, 1)).ok());
  Wal reader(&store, 1);
  EXPECT_EQ(ReplayAll(&reader, wal.head()).size(), 1u);
}

TEST(WalTest, LogBytesDoNotChange) {
  // Every store file with a live log holds these bytes, so they must not
  // move.  kCrc chains the CRC of every chain page, in chain order, taken
  // just before a truncation and again at the end of the script; it was
  // recorded from the writer that kept a lone record and a batch on two
  // separate paths.
  constexpr uint32_t kCrc = 0xac77734d;
  constexpr size_t kPages = 18;
  InMemoryPageStore store(64);
  Wal wal(&store, /*sync_every=*/0);
  // Record i: 1 to 4 dimensions in turn, every third one a delete.
  auto rec = [](uint32_t i) -> Wal::LogRecord {
    std::array<uint32_t, 4> comps{};
    for (uint32_t d = 0; d < comps.size(); ++d) comps[d] = i * 31 + d;
    return {i % 3 == 2 ? Wal::kOpDelete : Wal::kOpInsert,
            PseudoKey(std::span<const uint32_t>(comps.data(), 1 + i % 4)),
            1000 + i};
  };
  auto batch = [&](uint32_t first, uint32_t count) {
    std::vector<Wal::LogRecord> recs;
    for (uint32_t i = first; i < first + count; ++i) recs.push_back(rec(i));
    return wal.AppendBatch(recs);
  };
  uint32_t crc = 0;
  size_t pages = 0;
  auto chain_crc = [&] {
    for (PageId id : wal.pages()) {
      const std::vector<uint8_t> buf = PageBytes(&store, id);
      crc = Crc32(buf.data(), buf.size(), crc);
      ++pages;
    }
  };

  ASSERT_TRUE(batch(0, 5).ok());  // starts the empty log
  for (uint32_t i = 5; i < 10; ++i) ASSERT_TRUE(wal.Append(rec(i)).ok());
  ASSERT_TRUE(batch(10, 1).ok());  // a batch of one is a lone record
  ASSERT_TRUE(batch(11, 8).ok());
  ASSERT_TRUE(batch(19, 2).ok());
  ASSERT_EQ(wal.record_count(), 21u);
  chain_crc();
  for (PageId id : wal.TruncateDeferred()) ASSERT_TRUE(store.Free(id).ok());
  ASSERT_TRUE(wal.Append(rec(21)).ok());
  ASSERT_TRUE(batch(22, 6).ok());
  for (uint32_t i = 28; i < 31; ++i) ASSERT_TRUE(wal.Append(rec(i)).ok());
  ASSERT_EQ(wal.record_count(), 10u);
  chain_crc();
  EXPECT_EQ(pages, kPages);
  EXPECT_EQ(crc, kCrc);
}

TEST(WalTest, OversizedRecordIsRefusedBeforeAnyAllocation) {
  // 32-byte pages hold 24 bytes of records; a 3-D insert takes 28.
  FaultInjectingPageStore store(std::make_unique<InMemoryPageStore>(32));
  const uint64_t live_before = store.live_page_count();
  Wal wal(&store, 1);
  const Wal::LogRecord big = {Wal::kOpInsert, PseudoKey({1, 2, 3}), 4};
  EXPECT_TRUE(wal.Append(big).IsInvalid());
  const std::vector<Wal::LogRecord> batch = {Delete(1, 2), big};
  EXPECT_TRUE(wal.AppendBatch(batch).IsInvalid())
      << "one oversized member refuses the whole batch";
  EXPECT_TRUE(wal.empty());
  EXPECT_EQ(wal.record_count(), 0u);
  EXPECT_EQ(store.allocs_issued(), 0u);
  EXPECT_EQ(store.writes_issued(), 0u);
  EXPECT_EQ(store.live_page_count(), live_before);
}

TEST(WalBatchTest, AppendBatchReplayRoundTrip) {
  // 64-byte pages force the framed batch across several pages.
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(100, 100, 100)).ok());  // pre-batch single
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 8; ++i) {
    batch.push_back((i % 4 == 3) ? Delete(i, i) : Insert(i, i, 2000 + i));
  }
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  EXPECT_EQ(wal.record_count(), 9u) << "markers are not records";
  ASSERT_TRUE(wal.Append(Insert(200, 200, 200)).ok());  // appendable after

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 10u);
  EXPECT_TRUE(SameRecord(replayed[0], Insert(100, 100, 100)));
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameRecord(replayed[1 + i], batch[i])) << "member " << i;
  }
  EXPECT_TRUE(SameRecord(replayed[9], Insert(200, 200, 200)));
  EXPECT_FALSE(reader.replay_truncated());
  EXPECT_EQ(reader.pages(), wal.pages())
      << "replay must adopt every page of a committed batch's chain";
}

TEST(WalBatchTest, EmptyAndSingletonBatchesDegenerate) {
  InMemoryPageStore store(256);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.AppendBatch({}).ok());
  EXPECT_TRUE(wal.empty());
  const std::vector<Wal::LogRecord> one = {Insert(1, 2, 3)};
  ASSERT_TRUE(wal.AppendBatch(one).ok());
  EXPECT_EQ(wal.record_count(), 1u);
  // A singleton batch is an unframed Append: a pre-batch reader replays it.
  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(SameRecord(replayed[0], Insert(1, 2, 3)));
}

TEST(WalBatchTest, PagesNeededForMatchesActualAllocation) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(0, 0, 0)).ok());
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 12; ++i) batch.push_back(Insert(i, i, i));
  const uint64_t predicted = wal.PagesNeededFor(batch);
  const size_t before = wal.pages().size();
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  EXPECT_EQ(wal.pages().size() - before, predicted);
}

TEST(WalBatchTest, BatchMissingItsTailIsDiscardedWhole) {
  // Commit a batch spanning multiple pages, then zero the page holding
  // the commit marker — the state a crash leaves when the final page
  // write never reached the disk.  Every buffered member must vanish.
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(100, 100, 100)).ok());
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 8; ++i) batch.push_back(Insert(i, i, i));
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  ASSERT_GE(wal.pages().size(), 3u);
  const PageId last = wal.pages().back();
  std::vector<uint8_t> zeros(64, 0);
  ASSERT_TRUE(store.Write(last, zeros).ok());

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 1u) << "open batch must be discarded whole";
  EXPECT_TRUE(SameRecord(replayed[0], Insert(100, 100, 100)));
  EXPECT_TRUE(reader.replay_truncated());

  // Appends after recovery must not resurrect any discarded member.
  ASSERT_TRUE(reader.Append(Insert(300, 300, 300)).ok());
  Wal reread(&store, 1);
  auto again = ReplayAll(&reread, wal.head());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_TRUE(SameRecord(again[1], Insert(300, 300, 300)));
}

TEST(WalBatchTest, TornMemberDiscardsTheWholeBatch) {
  // Unlike a torn standalone record (prefix kept), a torn *member* voids
  // the batch: flip one byte inside a middle member and not even the
  // members before it may replay.
  InMemoryPageStore store(512);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(100, 100, 100)).ok());
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 5; ++i) batch.push_back(Insert(i, i, i));
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  ASSERT_EQ(wal.pages().size(), 1u) << "batch must fit one page here";
  const PageId head = wal.head();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(store.Read(head, buf).ok());
  // Record layout on the page: header 8, single insert 24, begin marker
  // 12, then 24-byte members — flip a byte in the third member's body.
  buf[8 + 24 + 12 + 2 * 24 + 4] ^= 0xff;
  ASSERT_TRUE(store.Write(head, buf).ok());

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, head);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(SameRecord(replayed[0], Insert(100, 100, 100)));
  EXPECT_TRUE(reader.replay_truncated());
}

TEST(WalBatchTest, ExhaustionRefusesTheWholeBatchRetryably) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(0, 0, 0)).ok());
  const uint64_t before_pages = store.live_page_count();
  const uint64_t before_records = wal.record_count();
  store.SetMaxPages(store.total_page_count());  // no growth allowed

  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 10; ++i) batch.push_back(Insert(i, i, i));
  Status st = wal.AppendBatch(batch);
  ASSERT_TRUE(st.IsResourceExhausted()) << st;
  EXPECT_EQ(store.live_page_count(), before_pages) << "nothing allocated";
  EXPECT_EQ(wal.record_count(), before_records) << "nothing appended";

  // Same batch succeeds once the quota clears, and replays intact.
  store.SetMaxPages(0);
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  Wal reader(&store, 1);
  EXPECT_EQ(ReplayAll(&reader, wal.head()).size(), 11u);
}

TEST(WalBatchTest, AllocationFailureMidBatchRestoresTheTail) {
  // The batch's pages are reserved, yet its second fresh allocation fails
  // (a quota blip).  The append must undo every effect, a seal of the old
  // tail already on disk included, and a retry must write the same bytes
  // as a twin log that never failed.
  FaultInjectingPageStore store(std::make_unique<InMemoryPageStore>(64));
  InMemoryPageStore twin_store(64);
  Wal wal(&store, 1);
  Wal twin(&twin_store, 1);
  ASSERT_TRUE(wal.Append(Insert(100, 100, 100)).ok());
  ASSERT_TRUE(twin.Append(Insert(100, 100, 100)).ok());
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 6; ++i) batch.push_back(Insert(i, i, i));
  ASSERT_GE(wal.PagesNeededFor(batch), 2u);

  const std::vector<PageId> pages_before = wal.pages();
  const std::vector<uint8_t> tail_before =
      PageBytes(&store, pages_before.back());
  const uint64_t live_before = store.live_page_count();
  store.FailNthAllocation(store.allocs_issued() + 1);
  const Status st = wal.AppendBatch(batch);
  ASSERT_TRUE(st.IsResourceExhausted()) << st;
  EXPECT_EQ(PageBytes(&store, pages_before.back()), tail_before);
  EXPECT_EQ(wal.pages(), pages_before);
  EXPECT_EQ(wal.record_count(), 1u);
  EXPECT_EQ(store.live_page_count(), live_before);
  EXPECT_EQ(store.reserved_pages(), 0u);

  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  ASSERT_TRUE(twin.AppendBatch(batch).ok());
  EXPECT_EQ(wal.record_count(), twin.record_count());
  ASSERT_EQ(wal.pages(), twin.pages());
  for (PageId id : wal.pages()) {
    EXPECT_EQ(PageBytes(&store, id), PageBytes(&twin_store, id))
        << "page " << id;
  }
}

TEST(WalBatchTest, BatchRejectsBadOpsAndOversizedRecords) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  std::vector<Wal::LogRecord> bad_op = {Insert(1, 1, 1),
                                        {Wal::kOpBatchBegin, PseudoKey({1, 2}), 0}};
  EXPECT_TRUE(wal.AppendBatch(bad_op).IsInvalid())
      << "marker ops cannot be smuggled in as members";
  EXPECT_TRUE(wal.empty());
}

// ---------------------------------------------------------------------------
// LSN discipline.  Every committed mutation owns exactly one LSN; the
// sequence is contiguous from base_lsn() and monotonic across
// checkpoints (Truncate advances the base), crash replay (LSNs are
// ordinal positions, so recovery re-derives them), and batches (markers
// consume nothing).  The backup/restore machinery leans on all of this.

TEST(WalLsnTest, LsnsAreContiguousFromBase) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  EXPECT_EQ(wal.base_lsn(), 1u) << "a fresh log starts at LSN 1";
  EXPECT_EQ(wal.next_lsn(), 1u);
  for (uint32_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
    EXPECT_EQ(wal.next_lsn(), 2u + i) << "one LSN per committed record";
  }
  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 9u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, 1u + i) << "record " << i;
  }
}

TEST(WalLsnTest, TruncateAdvancesBaseMonotonically) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  ASSERT_EQ(wal.next_lsn(), 6u);
  for (PageId id : wal.TruncateDeferred()) ASSERT_TRUE(store.Free(id).ok());
  EXPECT_EQ(wal.base_lsn(), 6u)
      << "the discarded records keep their LSNs forever";
  EXPECT_EQ(wal.next_lsn(), 6u) << "truncation never reuses an LSN";
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(Insert(100 + i, i, i)).ok());
  }
  Wal reader(&store, 1);
  reader.SetBaseLsn(6);  // what the owner's superblock would restore
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 3u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, 6u + i);
  }
}

TEST(WalLsnTest, CrashReplayRederivesTheSameLsns) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  wal.SetBaseLsn(100);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  // "Crash": a fresh Wal over the same pages, base restored as open does.
  Wal recovered(&store, 1);
  recovered.SetBaseLsn(100);
  auto replayed = ReplayAll(&recovered, wal.head());
  ASSERT_EQ(replayed.size(), 4u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, 100u + i);
  }
  EXPECT_EQ(recovered.next_lsn(), 104u)
      << "post-recovery appends continue the sequence, no gap, no reuse";
}

TEST(WalLsnTest, BatchMembersConsumeOneLsnEachAndMarkersNone) {
  InMemoryPageStore store(64);
  Wal wal(&store, 1);
  ASSERT_TRUE(wal.Append(Insert(100, 100, 100)).ok());  // LSN 1
  std::vector<Wal::LogRecord> batch;
  for (uint32_t i = 0; i < 8; ++i) batch.push_back(Insert(i, i, i));
  ASSERT_TRUE(wal.AppendBatch(batch).ok());
  EXPECT_EQ(wal.next_lsn(), 10u)
      << "8 members = 8 LSNs; begin/commit markers consume none";
  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, wal.head());
  ASSERT_EQ(replayed.size(), 9u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, 1u + i);
  }
}

TEST(WalLsnTest, TornTailFreesItsLsnForTheNextCommit) {
  // A torn record never committed, so its would-be LSN is reassigned to
  // the next durable record — the sequence of *committed* LSNs stays
  // contiguous with no phantom holes.
  InMemoryPageStore store(256);
  Wal wal(&store, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
  }
  const PageId head = wal.head();
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(store.Read(head, buf).ok());
  buf[58] ^= 0xff;  // tear the third record
  ASSERT_TRUE(store.Write(head, buf).ok());

  Wal recovered(&store, 1);
  ASSERT_EQ(ReplayAll(&recovered, head).size(), 2u);
  EXPECT_EQ(recovered.next_lsn(), 3u);
  ASSERT_TRUE(recovered.Append(Insert(9, 9, 9)).ok());

  Wal reader(&store, 1);
  auto replayed = ReplayAll(&reader, head);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[2].lsn, 3u);
}

TEST(WalLsnTest, ArchiveSegmentRoundTripPreservesLsns) {
  InMemoryPageStore store(256);
  Wal wal(&store, 1);
  wal.SetBaseLsn(500);
  std::vector<Wal::LogRecord> recs;
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, 7000 + i)).ok());
    recs.push_back(Insert(i, i, 7000 + i));
  }
  const auto image = Wal::EncodeArchiveSegment(recs, 500);
  std::vector<Wal::LogRecord> out;
  uint64_t lo = 0, count = 0;
  ASSERT_TRUE(Wal::DecodeArchiveSegment(image, &out, &lo, &count).ok());
  EXPECT_EQ(lo, 500u);
  ASSERT_EQ(count, 6u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].lsn, 500u + i);
    EXPECT_TRUE(SameRecord(out[i], recs[i]));
  }
}

TEST(WalTest, SyncBatchingHonorsSyncEvery) {
  auto inner = std::make_unique<InMemoryPageStore>(64);
  FaultInjectingPageStore store(std::move(inner));
  Wal wal(&store, /*sync_every=*/3);
  for (uint32_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(wal.Append(Insert(i, i, i)).ok());
    ASSERT_TRUE(wal.MaybeSync().ok());
  }
  EXPECT_EQ(store.syncs_issued(), 2u) << "7 records / sync_every 3";

  Wal never(&store, /*sync_every=*/0);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(never.Append(Insert(100 + i, i, i)).ok());
    ASSERT_TRUE(never.MaybeSync().ok());
  }
  EXPECT_EQ(store.syncs_issued(), 2u) << "sync_every 0 never syncs";
  ASSERT_TRUE(never.Sync().ok());
  EXPECT_EQ(store.syncs_issued(), 3u) << "explicit Sync always flushes";
}

}  // namespace
}  // namespace bmeh
