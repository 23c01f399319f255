// The sealed-manifest codec (src/store/sealed_manifest.h) and the three
// manifests read through it: a field that is missing or garbled under a
// valid seal is Corruption naming the file and the field.

#include "src/store/sealed_manifest.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "src/pagestore/page_store.h"
#include "src/store/backup.h"
#include "src/store/sharded_store.h"

namespace bmeh {
namespace {

class SealedManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bmeh_sealed_manifest_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveFiles();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0) << dir_;
  }
  void TearDown() override {
    RemoveFiles();
    ::rmdir(dir_.c_str());
  }
  void RemoveFiles() {
    for (const char* name : {"M", "MANIFEST", "SHARDBACKUP", "BACKUPSET"}) {
      std::remove((dir_ + "/" + name).c_str());
    }
  }

  // Seals `body` as dir_/M and opens it as a "test manifest".
  Result<ManifestReader> Reopen(const std::string& body) {
    BMEH_CHECK_OK(WriteSealedText(dir_, "M", body));
    return ManifestReader::Open(dir_ + "/M", "test manifest", "MAGIC v1");
  }

  // Expects Corruption whose message names the file and `field`.
  void ExpectNames(const Status& st, const std::string& file,
                   const std::string& field) {
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find(dir_ + "/" + file), std::string::npos) << st;
    EXPECT_NE(st.message().find(": " + field + ":"), std::string::npos) << st;
  }

  std::string dir_;
};

TEST_F(SealedManifestTest, RoundTripsTypedFields) {
  ManifestWriter w("MAGIC v1");
  w.Add("count", "42");
  w.Add("big", std::to_string(UINT64_MAX));
  w.Add("item", "a 1 00c0ffee");
  w.Add("note", "several words\nover lines");
  w.Add("item", "b 2 ffffffff");
  w.AddSchema(KeySchema(std::vector<int>{31, 7, 32}));
  ASSERT_TRUE(w.Seal(dir_, "M").ok());
  auto text = ReadSealedText(dir_ + "/M", "test manifest");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "MAGIC v1\ncount 42\nbig 18446744073709551615\nitem a 1 00c0ffee\n"
            "note several words over lines\nitem b 2 ffffffff\ndims 3\n"
            "widths 31 7 32\n");

  auto r = ManifestReader::Open(dir_ + "/M", "test manifest", "MAGIC v1");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r->Number<int>("count"), 42);
  EXPECT_EQ(*r->Number("big"), UINT64_MAX);
  EXPECT_EQ(*r->Text("note"), "several words over lines");
  EXPECT_TRUE(*r->Schema() == KeySchema(std::vector<int>{31, 7, 32}));
  std::vector<ManifestLine> items = r->All("item");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(*items[0].Word(), "a");
  EXPECT_EQ(*items[0].Number(), 1u);
  EXPECT_EQ(*items[0].Number(0, UINT32_MAX, 16), 0xc0ffeeu);
  EXPECT_TRUE(items[0].End().ok());
  EXPECT_EQ(*items[1].Word(), "b");
  EXPECT_EQ(items[1].Rest(), "2 ffffffff");
  EXPECT_TRUE(r->All("absent").empty());
}

TEST_F(SealedManifestTest, SkipsUnknownKeys) {
  auto r = Reopen("MAGIC v1\nfuture stuff a newer writer added\ncount 7\n"
                  "\nfuture 9\n");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r->Number("count"), 7u);
}

TEST_F(SealedManifestTest, NumbersAreStrictDecimals) {
  for (const char* value : {"", "+5", "-1", " 5", "5 ", "5x", "0x10", "1e3",
                            "18446744073709551616", "5 6", "\t5"}) {
    auto r = Reopen(std::string("MAGIC v1\ncount ") + value + "\n");
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectNames(r->Number("count").status(), "M", "count");
  }
  auto r = Reopen("MAGIC v1\ncount 2147483648\nfloor 0\n");
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectNames(r->Number<int>("count").status(), "M", "count");
  EXPECT_EQ(*r->Number("count"), 2147483648u);
  ExpectNames(r->Number<int>("floor", 1).status(), "M", "floor");
}

TEST_F(SealedManifestTest, MissingRepeatedOrEmptyFieldsAreCorruption) {
  auto r = Reopen("MAGIC v1\ncount 1\ncount 2\nnote\n");
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectNames(r->Number("absent").status(), "M", "absent");
  ExpectNames(r->Number("count").status(), "M", "count");
  ExpectNames(r->Text("note").status(), "M", "note");
}

TEST_F(SealedManifestTest, MagicAndSealAreChecked) {
  ExpectNames(Reopen("MAGIC v2\ncount 1\n").status(), "M", "magic");
  ExpectNames(Reopen("").status(), "M", "magic");
  ASSERT_TRUE(Reopen("MAGIC v1\ncount 1\n").ok());
  std::FILE* f = std::fopen((dir_ + "/M").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fputc('X', f);
  std::fclose(f);
  const Status st =
      ManifestReader::Open(dir_ + "/M", "test manifest", "MAGIC v1").status();
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST_F(SealedManifestTest, SchemaGoesThroughTheFactory) {
  for (const char* lines :
       {"dims 2\nwidths 40 3\n", "dims 2\nwidths 0 31\n", "dims 2\nwidths 31\n",
        "dims 9\nwidths 1 1 1 1 1 1 1 1 1\n", "dims 0\nwidths\n",
        "dims 1\nwidths -3\n", "dims 1\nwidths x\n"}) {
    auto r = Reopen(std::string("MAGIC v1\n") + lines);
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectNames(r->Schema().status(), "M", "widths");
  }
  auto r = Reopen("MAGIC v1\nwidths 31 31\n");
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectNames(r->Schema().status(), "M", "dims");
}

// Each manifest, written as its writer writes it, then re-sealed once per
// field with that field dropped and four times with its value garbled.
struct ManifestCase {
  const char* file;
  std::string body;
  std::vector<std::string> required;
};

TEST_F(SealedManifestTest, EveryManifestFieldIsChecked) {
  const std::vector<ManifestCase> cases = {
      {"MANIFEST",
       "BMEH-SHARD v1\nshards 2\nshard_bits 1\npage_size 256\ndims 2\n"
       "widths 16 16\n",
       {"shards", "shard_bits", "page_size", "dims", "widths"}},
      {"SHARDBACKUP",
       "BMEH-SHARD-BACKUP v1\nshards 2\nshard_bits 1\npage_size 256\ndims 2\n"
       "widths 16 16\nshard 0 ok 39 shard-0000\nshard 1 err shard 1 is down\n",
       {"shards", "shard_bits", "page_size", "dims", "widths", "shard"}},
      {"BACKUPSET",
       "BMEH-BACKUP v1\nkind incremental\npage_size 256\ndims 2\n"
       "widths 16 16\ngeneration 1\nimage_head 4\n"
       "file wal-0000000000000028.seg 192 5d091dc7\nbase_lsn 40\n"
       "watermark 46\nprev ../full/shard-0001\n",
       {"kind", "page_size", "dims", "widths", "generation", "image_head",
        "base_lsn", "watermark", "prev", "file"}},
  };
  auto read = [&](const std::string& file) -> Status {
    if (file == "MANIFEST") return ShardedStore::ReadManifest(dir_).status();
    if (file == "SHARDBACKUP") {
      return ShardedStore::ReadBackupManifest(dir_).status();
    }
    return BackupStore::ReadManifest(dir_).status();
  };
  for (const ManifestCase& c : cases) {
    ASSERT_TRUE(WriteSealedText(dir_, c.file, c.body).ok());
    ASSERT_TRUE(read(c.file).ok()) << read(c.file);
    for (const std::string& field : c.required) {
      const size_t at = c.body.find("\n" + field + " ") + 1;
      ASSERT_NE(at, 0u) << field;
      const size_t end = c.body.find('\n', at) + 1;
      // A file line that is gone leaves a valid set; a shard line that is
      // gone does not.
      if (field != "file") {
        std::string dropped = c.body;
        dropped.erase(at, end - at);
        ASSERT_TRUE(WriteSealedText(dir_, c.file, dropped).ok());
        ExpectNames(read(c.file), c.file, field);
      }
      for (const char* value : {"", " ", " x/y", " 1 2 3 4 5"}) {
        // Any prev that is not empty names a path.
        if (field == "prev" && value[0] != '\0') continue;
        std::string garbled = c.body;
        garbled.replace(at, end - at, field + value + "\n");
        ASSERT_TRUE(WriteSealedText(dir_, c.file, garbled).ok());
        ExpectNames(read(c.file), c.file, field);
      }
    }
  }
}

TEST_F(SealedManifestTest, ShardBackupLinesAreCheckedInOrder) {
  const std::string shape =
      "BMEH-SHARD-BACKUP v1\nshards 2\nshard_bits 1\npage_size 256\ndims 2\n"
      "widths 16 16\n";
  for (const char* lines :
       {"shard 1 ok 3 shard-0001\nshard 0 ok 3 shard-0000\n",
        "shard 0 ok 3 shard-0000\nshard 1 gone\n",
        "shard 0 ok 3 ../x\nshard 1 ok 3 shard-0001\n",
        "shard 0 ok 3 a/b\nshard 1 ok 3 shard-0001\n",
        "shard 0 ok 3 shard-0000 extra\nshard 1 ok 3 shard-0001\n",
        "shard 0 ok 3\nshard 1 ok 3 shard-0001\n"}) {
    ASSERT_TRUE(WriteSealedText(dir_, "SHARDBACKUP", shape + lines).ok());
    ExpectNames(ShardedStore::ReadBackupManifest(dir_).status(), "SHARDBACKUP",
                "shard");
  }
  ASSERT_TRUE(WriteSealedText(dir_, "SHARDBACKUP",
                              shape + "shard 0 ok 3 shard-0000\nshard 1 err\n")
                  .ok());
  auto set = ShardedStore::ReadBackupManifest(dir_);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->shard[0].ok);
  EXPECT_EQ(set->shard[0].watermark, 3u);
  EXPECT_EQ(set->shard[0].subdir, "shard-0000");
  EXPECT_FALSE(set->shard[1].ok);
  EXPECT_EQ(set->shard[1].error, "");
}

}  // namespace
}  // namespace bmeh
