// Exhaustive bit-rot matrix: build a store file with a checkpoint image
// and a live WAL, then for EVERY physical page flip one byte on disk and
// verify the corruption-defense contract end to end:
//
//  1. the scrubber detects the flip (no flip is ever invisible),
//  2. a tolerant open never returns a silently wrong answer — every query
//     yields the true value, an explicit DataLoss, or (for absent keys) a
//     KeyError, and a byte-exact store is required whenever the open
//     reports no degradation at all,
//  3. SalvageStore always produces a fresh, clean, Validate()-passing
//     store whose records are a payload-correct subset of the history —
//     and the exact final state when the source was not degraded.
//
// Complemented by targeted sub-tests for the structurally interesting
// pages: the superblock, the WAL head, and an image chain tail page.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/store/bmeh_store.h"
#include "src/store/scrub.h"

namespace bmeh {
namespace {

struct Op {
  bool insert;
  PseudoKey key;
  uint64_t payload;
};

// Deterministic script: ~3/4 inserts of unique serial keys, ~1/4 deletes
// of live keys.  Keys are never reused, so each key has exactly one
// payload in the whole history — which is what lets the matrix call any
// other returned payload a fabrication.
std::vector<Op> MakeScript(int n) {
  std::vector<Op> script;
  Rng rng(99);
  std::vector<PseudoKey> live;
  uint32_t serial = 1;
  for (int i = 0; i < n; ++i) {
    if (!live.empty() && rng.NextBool(0.25)) {
      const size_t pos = rng.Uniform(live.size());
      script.push_back({false, live[pos], 0});
      live[pos] = live.back();
      live.pop_back();
    } else {
      const PseudoKey key({(serial * 2654435761u) & 0x7fffffffu, serial});
      ++serial;
      script.push_back({true, key, 20000u + static_cast<uint64_t>(i)});
      live.push_back(key);
    }
  }
  return script;
}

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

class CorruptionMatrixTest : public ::testing::Test {
 protected:
  static constexpr int kPageSize = 512;
  static constexpr long kPhysical =
      kPageSize + FilePageStore::kPageTrailerSize;
  static constexpr int kOps = 320;
  static constexpr int kCheckpointAt1 = 120;
  static constexpr int kCheckpointAt2 = 240;  // ops beyond stay in the WAL

  void SetUp() override {
    const std::string stem =
        ::testing::TempDir() + "/bmeh_cmx_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    base_ = stem + "_base.db";
    work_ = stem + "_work.db";
    salvaged_ = stem + "_salvaged.db";
    for (const auto& p : {base_, work_, salvaged_}) std::remove(p.c_str());

    script_ = MakeScript(kOps);
    for (const Op& op : script_) {
      if (op.insert) {
        ever_.emplace(op.key, op.payload);
        expected_.emplace(op.key, op.payload);
      } else {
        expected_.erase(op.key);
      }
    }
    BuildBaseStore();
  }

  void TearDown() override {
    for (const auto& p : {base_, work_, salvaged_}) std::remove(p.c_str());
  }

  StoreOptions Opts(bool tolerate = true) {
    StoreOptions o;
    o.schema = KeySchema(2, 31);
    o.tree = TreeOptions::Make(2, 8);
    o.page_size = kPageSize;
    o.checkpoint_every = 0;  // checkpoints are explicit in the build
    o.wal_sync_every = 0;
    o.tolerate_corruption = tolerate;
    return o;
  }

  // Builds base_: two checkpoints inside the workload, the last 80 ops
  // left in the WAL (the close skips its checkpoint, as a crash would).
  void BuildBaseStore() {
    auto created = FilePageStore::Create(base_, kPageSize);
    ASSERT_TRUE(created.ok()) << created.status();
    auto file = std::move(created).ValueOrDie();
    file->DisableFsyncForTesting();  // no real crash happens in this test
    auto opened = BmehStore::Open(std::move(file), Opts());
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto store = std::move(opened).ValueOrDie();
    for (int i = 0; i < kOps; ++i) {
      if (i == kCheckpointAt1 || i == kCheckpointAt2) {
        ASSERT_TRUE(store->Checkpoint().ok());
      }
      const Op& op = script_[i];
      Status st = op.insert ? store->Put(op.key, op.payload)
                            : store->Delete(op.key);
      ASSERT_TRUE(st.ok()) << "op " << i << ": " << st;
    }
    ASSERT_GT(store->wal_records(), 0u) << "the fixture needs a live WAL";
    store->SimulateCrashForTesting();  // keep the WAL across the close
  }

  // The never-silently-wrong contract, for a store opened from a possibly
  // corrupted file.
  void CheckAnswers(BmehStore* store) {
    const bool degraded = store->degraded();
    ASSERT_TRUE(store->tree().Validate().ok())
        << "a recovered tree must always validate";
    for (const auto& [key, payload] : ever_) {
      auto r = store->Get(key);
      const auto want = expected_.find(key);
      if (!degraded) {
        if (want != expected_.end()) {
          ASSERT_TRUE(r.ok()) << r.status();
          EXPECT_EQ(*r, payload);
        } else {
          EXPECT_TRUE(r.status().IsKeyError()) << r.status();
        }
        continue;
      }
      if (want != expected_.end()) {
        // A present key may be unanswerable, but never wrong.
        if (r.ok()) {
          EXPECT_EQ(*r, payload) << "fabricated payload for a live key";
        } else {
          EXPECT_TRUE(r.status().IsDataLoss()) << r.status();
        }
      } else {
        // A deleted key may resurface when the deleting op was lost with
        // the WAL suffix — but only ever with its one true payload.
        if (r.ok()) {
          EXPECT_EQ(*r, payload) << "fabricated payload for a deleted key";
        } else {
          EXPECT_TRUE(r.status().IsKeyError() || r.status().IsDataLoss())
              << r.status();
        }
      }
    }
    // Range scans: partial results must say so, and every record returned
    // must be genuine.
    RangePredicate pred(store->schema());
    std::vector<Record> out;
    Status st = store->Range(pred, &out);
    if (!degraded) {
      ASSERT_TRUE(st.ok()) << st;
      EXPECT_EQ(out.size(), expected_.size());
    } else {
      EXPECT_TRUE(st.ok() || st.IsDataLoss()) << st;
    }
    for (const Record& rec : out) {
      auto it = ever_.find(rec.key);
      ASSERT_NE(it, ever_.end()) << "range invented a key";
      EXPECT_EQ(rec.payload, it->second) << "range invented a payload";
    }
  }

  // Salvage must always yield a clean store with payload-correct records;
  // a non-degraded source must salvage byte-exactly.
  void CheckSalvage() {
    SalvageReport rep;
    Status st = SalvageStore(work_, salvaged_, Opts(false), &rep);
    ASSERT_TRUE(st.ok()) << st;
    ScrubReport sr;
    ASSERT_TRUE(ScrubStore(salvaged_, &sr).ok());
    EXPECT_TRUE(sr.clean()) << "salvage output must scrub clean";

    auto opened = BmehStore::Open(salvaged_, Opts(false));
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto store = std::move(opened).ValueOrDie();
    EXPECT_FALSE(store->degraded());
    ASSERT_TRUE(store->tree().Validate().ok());
    EXPECT_EQ(store->tree().Stats().records, rep.records_recovered);
    uint64_t present = 0;
    for (const auto& [key, payload] : ever_) {
      auto r = store->Get(key);
      if (r.ok()) {
        EXPECT_EQ(*r, payload) << "salvage fabricated a payload";
        ++present;
      } else {
        EXPECT_TRUE(r.status().IsKeyError()) << r.status();
      }
    }
    EXPECT_EQ(present, rep.records_recovered)
        << "salvage reported records outside the history";
    if (!rep.source_degraded) {
      EXPECT_EQ(present, expected_.size())
          << "an undamaged source must salvage exactly";
      for (const auto& [key, payload] : expected_) {
        auto r = store->Get(key);
        EXPECT_TRUE(r.ok() && *r == payload);
      }
    }
  }

  void CopyBaseToWork() {
    std::filesystem::copy_file(
        base_, work_, std::filesystem::copy_options::overwrite_existing);
  }

  std::string base_, work_, salvaged_;
  std::vector<Op> script_;
  std::map<PseudoKey, uint64_t> ever_;      // every key's one true payload
  std::map<PseudoKey, uint64_t> expected_;  // state after the full script
};

TEST_F(CorruptionMatrixTest, EveryPageFlipIsDetectedAndNeverSilent) {
  uint64_t page_count = 0;
  {
    auto f = FilePageStore::Open(base_);
    ASSERT_TRUE(f.ok()) << f.status();
    page_count = (*f)->page_count();
  }
  ASSERT_GT(page_count, 10u) << "the fixture is implausibly small";

  for (PageId id = 0; id < page_count; ++id) {
    SCOPED_TRACE("flip in page " + std::to_string(id));
    CopyBaseToWork();
    // Vary the byte with the page so payload, pad, id, epoch and CRC
    // trailer bytes all get hit across the matrix.
    FlipByteAt(work_, static_cast<long>(id) * kPhysical +
                          (7 + 53 * static_cast<long>(id)) % kPhysical);

    ScrubReport sr;
    ASSERT_TRUE(ScrubStore(work_, &sr).ok());
    EXPECT_FALSE(sr.clean()) << "the flip went undetected";

    {
      auto opened = BmehStore::Open(work_, Opts());
      if (opened.ok()) {
        auto store = std::move(opened).ValueOrDie();
        CheckAnswers(store.get());
        store->SimulateCrashForTesting();  // write-free close
      } else {
        // Only a destroyed header page (bad magic / implausible page
        // size) may make the open refuse — and the refusal must be an
        // explicit corruption verdict, never a silent misread.
        EXPECT_EQ(id, 0u) << opened.status();
        EXPECT_TRUE(opened.status().IsDataLoss() ||
                    opened.status().IsCorruption())
            << opened.status();
      }
    }
    CheckSalvage();
  }
}

TEST_F(CorruptionMatrixTest, SuperblockLossDegradesToReadOnlyShell) {
  CopyBaseToWork();
  // The superblock lives in the first data page, right after the header.
  PageId super_page;
  {
    auto f = FilePageStore::Open(base_);
    ASSERT_TRUE(f.ok());
    super_page = (*f)->first_data_page();
  }
  FlipByteAt(work_, static_cast<long>(super_page) * kPhysical + 11);

  auto opened = BmehStore::Open(work_, Opts());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  EXPECT_TRUE(store->degraded());
  EXPECT_TRUE(store->recovery_report().superblock_lost);
  EXPECT_TRUE(store->recovery_report().image_lost);

  // Both chain heads are gone: nothing is answerable, nothing mutable,
  // and the damage cannot be laundered into a clean checkpoint.
  const PseudoKey probe = ever_.begin()->first;
  EXPECT_TRUE(store->Get(probe).status().IsDataLoss());
  EXPECT_FALSE(store->Put(PseudoKey({123u, 456u}), 1).ok());
  EXPECT_TRUE(store->Checkpoint().IsDataLoss());
  store->SimulateCrashForTesting();
  store.reset();

  // Salvage still reassembles the state by sweeping for the image and
  // WAL chains the superblock no longer points at.
  CheckSalvage();
}

TEST_F(CorruptionMatrixTest, WalHeadCorruptionKeepsTheCheckpointPrefix) {
  PageId wal_head;
  {
    auto info = BmehStore::Inspect(base_);
    ASSERT_TRUE(info.ok()) << info.status();
    wal_head = info->wal_head;
    ASSERT_NE(wal_head, kInvalidPageId);
  }
  CopyBaseToWork();
  FlipByteAt(work_, static_cast<long>(wal_head) * kPhysical + 200);

  auto opened = BmehStore::Open(work_, Opts());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  EXPECT_TRUE(store->degraded());
  EXPECT_TRUE(store->recovery_report().wal_data_loss);
  EXPECT_FALSE(store->recovery_report().image_lost);
  CheckAnswers(store.get());

  // Keys whose fate was sealed before the second checkpoint are intact;
  // keys that only ever lived in the WAL answer DataLoss, not "absent".
  std::map<PseudoKey, uint64_t> at_checkpoint;
  for (int i = 0; i < kCheckpointAt2; ++i) {
    if (script_[i].insert) {
      at_checkpoint.emplace(script_[i].key, script_[i].payload);
    } else {
      at_checkpoint.erase(script_[i].key);
    }
  }
  bool checked_old = false, checked_new = false;
  for (int i = kCheckpointAt2; i < kOps && !(checked_old && checked_new);
       ++i) {
    if (!script_[i].insert) continue;
    auto r = store->Get(script_[i].key);
    EXPECT_TRUE(r.status().IsDataLoss())
        << "WAL-only key must answer DataLoss, got " << r.status();
    checked_new = true;
  }
  for (const auto& [key, payload] : at_checkpoint) {
    if (expected_.count(key) == 0) continue;  // deleted in the lost suffix
    auto r = store->Get(key);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, payload);
    checked_old = true;
    break;
  }
  EXPECT_TRUE(checked_old && checked_new);
  store->SimulateCrashForTesting();
}

TEST_F(CorruptionMatrixTest, ImageTailCorruptionQuarantinesOnlyLostBuckets) {
  // Walk the image chain to its last page: that is deep in the serialized
  // pages section, so the directory survives and the loss is confined to
  // quarantined buckets.
  PageId victim = kInvalidPageId;
  {
    auto info = BmehStore::Inspect(base_);
    ASSERT_TRUE(info.ok()) << info.status();
    auto f = FilePageStore::Open(base_);
    ASSERT_TRUE(f.ok()) << f.status();
    std::vector<uint8_t> buf(kPageSize);
    PageId id = info->image_head;
    while (id != kInvalidPageId) {
      victim = id;
      ASSERT_TRUE((*f)->Read(id, buf).ok());
      memcpy(&id, buf.data(), 4);
    }
  }
  ASSERT_NE(victim, kInvalidPageId);
  CopyBaseToWork();
  FlipByteAt(work_, static_cast<long>(victim) * kPhysical + 77);

  auto opened = BmehStore::Open(work_, Opts());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();
  EXPECT_TRUE(store->degraded());
  EXPECT_TRUE(store->recovery_report().image_data_loss);
  EXPECT_FALSE(store->recovery_report().image_lost);
  EXPECT_GT(store->recovery_report().quarantined_buckets, 0u);
  EXPECT_GT(store->page_store().stats().pages_quarantined, 0u);
  CheckAnswers(store.get());

  // The healthy part of the tree stays fully serviceable: a key that
  // still answers correctly can be deleted and re-inserted...
  PseudoKey healthy({0u, 0u});
  PseudoKey lost({0u, 0u});
  bool found_healthy = false, found_lost = false;
  for (const auto& [key, payload] : expected_) {
    auto r = store->Get(key);
    if (r.ok() && !found_healthy) {
      healthy = key;
      found_healthy = true;
    } else if (r.status().IsDataLoss() && !found_lost) {
      lost = key;
      found_lost = true;
    }
    if (found_healthy && found_lost) break;
  }
  ASSERT_TRUE(found_healthy) << "some buckets must have survived";
  ASSERT_TRUE(found_lost) << "some buckets must have been lost";
  ASSERT_TRUE(store->Delete(healthy).ok());
  EXPECT_TRUE(store->Get(healthy).status().IsKeyError())
      << "absence is trustworthy when image and WAL both replayed";
  ASSERT_TRUE(store->Put(healthy, ever_.at(healthy)).ok());
  // ...while the quarantined region refuses instead of lying.
  EXPECT_TRUE(store->Put(lost, 42).IsDataLoss());
  EXPECT_TRUE(store->Delete(lost).IsDataLoss());
  EXPECT_TRUE(store->Checkpoint().IsDataLoss())
      << "a degraded store must not checkpoint the loss away";
  store->SimulateCrashForTesting();
  store.reset();
  CheckSalvage();
}

TEST_F(CorruptionMatrixTest, ScrubReportsWhereTheImageChainIsCut) {
  // A verified-corrupt second image page cuts the chain after the head:
  // scrub names the cut and counts only the pages before it reachable.
  ScrubReport clean;
  ASSERT_TRUE(ScrubStore(base_, &clean).ok());
  ASSERT_TRUE(clean.clean());
  auto info = BmehStore::Inspect(base_);
  ASSERT_TRUE(info.ok()) << info.status();
  const uint64_t image_pages = info->live_pages - 1 - info->wal_pages;
  ASSERT_GT(image_pages, 2u);
  PageId second = kInvalidPageId;
  {
    auto f = FilePageStore::Open(base_);
    ASSERT_TRUE(f.ok()) << f.status();
    std::vector<uint8_t> buf(kPageSize);
    ASSERT_TRUE((*f)->Read(info->image_head, buf).ok());
    memcpy(&second, buf.data(), 4);
  }
  ASSERT_NE(second, kInvalidPageId);
  CopyBaseToWork();
  FlipByteAt(work_, static_cast<long>(second) * kPhysical + 77);

  ScrubReport sr;
  ASSERT_TRUE(ScrubStore(work_, &sr).ok());
  EXPECT_TRUE(sr.structure_damaged);
  EXPECT_EQ(sr.corrupt_pages, std::vector<PageId>{second});
  EXPECT_EQ(sr.pages_reachable, clean.pages_reachable - (image_pages - 1));
  bool noted = false;
  for (const std::string& note : sr.notes) {
    noted |= note == "checkpoint image chain cut after 1 page(s)";
  }
  EXPECT_TRUE(noted);
}

}  // namespace
}  // namespace bmeh
