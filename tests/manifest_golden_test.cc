// The bytes of the three sealed text manifests: a sharded store's
// MANIFEST, a sharded backup's SHARDBACKUP and a backup set's BACKUPSET.
// Every sharded directory and every backup set holds them, and a store or
// set written by one build must open under another, so they must not move.
// The expected texts were recorded from the writers that built each
// manifest body by hand.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/crc32.h"
#include "src/store/backup.h"
#include "src/store/sharded_store.h"

namespace bmeh {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The seal WriteSealedText appends: the CRC32 of the body.
std::string Sealed(const std::string& body) {
  char seal[32];
  std::snprintf(seal, sizeof(seal), "crc %08x\n",
                Crc32(body.data(), body.size()));
  return body + seal;
}

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
      if (name != "." && name != "..") RemoveTree(path + "/" + name);
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

class ManifestGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/bmeh_manifest_golden_" +
            std::to_string(::getpid());
    RemoveTree(root_);
    ASSERT_EQ(::mkdir(root_.c_str(), 0755), 0) << root_;
  }
  void TearDown() override { RemoveTree(root_); }

  std::string root_;
};

TEST_F(ManifestGoldenTest, ShardManifestBytesDoNotChange) {
  const std::vector<int> widths = {31, 7, 32};
  ShardManifest m;
  m.shards = 8;
  m.shard_bits = 3;
  m.page_size = 4096;
  m.schema = KeySchema(std::span<const int>(widths));
  ASSERT_TRUE(ShardedStore::WriteManifest(root_, m).ok());
  EXPECT_EQ(ReadFile(root_ + "/MANIFEST"),
            "BMEH-SHARD v1\n"
            "shards 8\n"
            "shard_bits 3\n"
            "page_size 4096\n"
            "dims 3\n"
            "widths 31 7 32\n"
            "crc bd9cc304\n");
}

// A 2-shard store on in-memory devices with a fixed history: a
// checkpointed image, a live WAL tail with deletes in it, a full backup,
// more writes, and an incremental backup over the full one.
TEST_F(ManifestGoldenTest, BackupManifestBytesDoNotChange) {
  const std::string full = root_ + "/full";
  const std::string inc = root_ + "/inc";
  {
    ShardedStoreOptions o;
    o.store.schema = KeySchema(2, 16);
    o.store.tree = TreeOptions::Make(2, 4);
    o.store.page_size = 256;
    std::vector<std::unique_ptr<PageStore>> devices;
    for (int s = 0; s < 2; ++s) {
      devices.push_back(std::make_unique<InMemoryPageStore>(256));
    }
    auto opened = ShardedStore::Open(std::move(devices), o);
    ASSERT_TRUE(opened.ok()) << opened.status();
    std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
    auto key = [](uint32_t i) {
      return PseudoKey({(i * 40503u) & 0xffffu, (i * 7919u + 13u) & 0xffffu});
    };
    for (uint32_t i = 0; i < 60; ++i) ASSERT_TRUE(store->Put(key(i), i).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    for (uint32_t i = 60; i < 75; ++i) ASSERT_TRUE(store->Put(key(i), i).ok());
    for (uint32_t i = 0; i < 9; i += 3) ASSERT_TRUE(store->Delete(key(i)).ok());
    auto run = store->Backup(full);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_EQ(run->failed, 0);
    for (uint32_t i = 75; i < 90; ++i) ASSERT_TRUE(store->Put(key(i), i).ok());
    BackupOptions incremental;
    incremental.base_set = full;
    run = store->Backup(inc, incremental);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_EQ(run->failed, 0);
  }
  EXPECT_EQ(ReadFile(full + "/SHARDBACKUP"),
            "BMEH-SHARD-BACKUP v1\n"
            "shards 2\n"
            "shard_bits 1\n"
            "page_size 256\n"
            "dims 2\n"
            "widths 16 16\n"
            "shard 0 ok 39 shard-0000\n"
            "shard 1 ok 39 shard-0001\n"
            "crc fb9a57e6\n");
  EXPECT_EQ(ReadFile(full + "/shard-0000/BACKUPSET"),
            "BMEH-BACKUP v1\n"
            "kind full\n"
            "page_size 256\n"
            "dims 2\n"
            "widths 16 16\n"
            "generation 1\n"
            "image_head 4\n"
            "file checkpoint.pages 1072 d30e74d6\n"
            "file wal-000000000000001f.seg 232 377d3a81\n"
            "base_lsn 31\n"
            "watermark 39\n"
            "crc 4c528c49\n");
  EXPECT_EQ(ReadFile(full + "/shard-0001/BACKUPSET"),
            "BMEH-BACKUP v1\n"
            "kind full\n"
            "page_size 256\n"
            "dims 2\n"
            "widths 16 16\n"
            "generation 1\n"
            "image_head 4\n"
            "file checkpoint.pages 1336 d2102ec9\n"
            "file wal-000000000000001f.seg 224 8bf1547c\n"
            "base_lsn 31\n"
            "watermark 39\n"
            "crc d7dcbe85\n");
  EXPECT_EQ(ReadFile(inc + "/SHARDBACKUP"),
            "BMEH-SHARD-BACKUP v1\n"
            "shards 2\n"
            "shard_bits 1\n"
            "page_size 256\n"
            "dims 2\n"
            "widths 16 16\n"
            "shard 0 ok 47 shard-0000\n"
            "shard 1 ok 46 shard-0001\n"
            "crc a758e655\n");
  // The incremental sets name their base by the path given, so their
  // seal is taken over the expected body here.
  EXPECT_EQ(ReadFile(inc + "/shard-0001/BACKUPSET"),
            Sealed("BMEH-BACKUP v1\n"
                   "kind incremental\n"
                   "page_size 256\n"
                   "dims 2\n"
                   "widths 16 16\n"
                   "generation 1\n"
                   "image_head 4\n"
                   "file wal-0000000000000028.seg 192 5d091dc7\n"
                   "base_lsn 40\n"
                   "watermark 46\n"
                   "prev " + full + "/shard-0001\n"));
}

}  // namespace
}  // namespace bmeh
