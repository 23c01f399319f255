// Shared helpers for the structure tests: a reference oracle and a fuzz
// driver that runs randomized insert/search/delete workloads against any
// MultiKeyIndex, cross-checking every result and validating structural
// invariants periodically.  Also a page store whose fsync can be held,
// for the commit-path tests, a counter of the bytes a call writes, and a
// bitwise CRC32 reference for the checksum tests.

#ifndef BMEH_TESTS_TEST_UTIL_H_
#define BMEH_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/random.h"
#include "src/hashdir/multikey_index.h"
#include "src/pagestore/page_store.h"
#include "src/workload/distributions.h"

namespace bmeh {
namespace testing {

/// \brief Ground truth: an ordered map over pseudo-keys.
class Oracle {
 public:
  bool Insert(const PseudoKey& key, uint64_t payload) {
    return map_.emplace(key, payload).second;
  }
  bool Erase(const PseudoKey& key) { return map_.erase(key) > 0; }
  const uint64_t* Find(const PseudoKey& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  size_t size() const { return map_.size(); }

  /// Records matching a range predicate, sorted by key.
  std::vector<Record> Range(const RangePredicate& pred) const {
    std::vector<Record> out;
    for (const auto& [key, payload] : map_) {
      if (pred.Matches(key)) out.push_back({key, payload});
    }
    return out;
  }

  const std::map<PseudoKey, uint64_t>& map() const { return map_; }

 private:
  std::map<PseudoKey, uint64_t> map_;
};

/// \brief Runs `ops` random operations (inserts, deletes, point lookups of
/// present and absent keys) against `index`, checking every outcome
/// against the oracle and calling Validate() every `validate_every` ops.
inline void FuzzAgainstOracle(MultiKeyIndex* index,
                              const workload::WorkloadSpec& spec, int ops,
                              int validate_every, double delete_fraction,
                              uint64_t seed) {
  workload::KeyGenerator gen(spec);
  Oracle oracle;
  std::vector<PseudoKey> live;
  Rng rng(seed);
  uint64_t next_payload = 1;
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.NextDouble();
    if (roll < delete_fraction && !live.empty()) {
      // Delete a random live key.
      const size_t pos = rng.Uniform(live.size());
      const PseudoKey victim = live[pos];
      live[pos] = live.back();
      live.pop_back();
      ASSERT_TRUE(oracle.Erase(victim));
      Status st = index->Delete(victim);
      ASSERT_TRUE(st.ok()) << st << " deleting " << victim.ToString();
      auto gone = index->Search(victim);
      ASSERT_TRUE(gone.status().IsKeyError())
          << "deleted key still found: " << victim.ToString();
    } else {
      const PseudoKey key = gen.Next();
      const uint64_t payload = next_payload++;
      ASSERT_TRUE(oracle.Insert(key, payload));
      Status st = index->Insert(key, payload);
      ASSERT_TRUE(st.ok()) << st << " inserting " << key.ToString();
      live.push_back(key);
      // Duplicate insert must be rejected.
      Status dup = index->Insert(key, payload + 1);
      ASSERT_TRUE(dup.IsAlreadyExists()) << dup;
    }
    // Point checks: one present, one absent.
    if (!live.empty()) {
      const PseudoKey& probe = live[rng.Uniform(live.size())];
      auto r = index->Search(probe);
      ASSERT_TRUE(r.ok()) << r.status() << " for " << probe.ToString();
      ASSERT_EQ(*r, *oracle.Find(probe));
    }
    if (op % validate_every == validate_every - 1) {
      Status st = index->Validate();
      ASSERT_TRUE(st.ok()) << "validation failed after op " << op << ": "
                           << st;
      ASSERT_EQ(index->Stats().records, oracle.size());
    }
  }
  Status st = index->Validate();
  ASSERT_TRUE(st.ok()) << st;
  // Final sweep: every oracle key must be present with the right payload.
  for (const auto& [key, payload] : oracle.map()) {
    auto r = index->Search(key);
    ASSERT_TRUE(r.ok()) << "missing " << key.ToString();
    ASSERT_EQ(*r, payload);
  }
}

/// \brief Deletes every key in `keys` from `index`, validating
/// periodically, and expects an empty structure at the end.
inline void DrainAndCheckEmpty(MultiKeyIndex* index,
                               std::vector<PseudoKey> keys, uint64_t seed) {
  Rng rng(seed);
  // Shuffle deletion order.
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Status st = index->Delete(keys[i]);
    ASSERT_TRUE(st.ok()) << st << " deleting " << keys[i].ToString();
    if (i % 256 == 255) {
      Status v = index->Validate();
      ASSERT_TRUE(v.ok()) << v;
    }
  }
  ASSERT_TRUE(index->Validate().ok());
  const IndexStructureStats stats = index->Stats();
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.data_pages, 0u);
}

/// \brief An in-memory device that counts Sync() calls and, while held,
/// blocks each one until released — a deterministic stand-in for a hung
/// fsync, and a way to freeze a commit leader mid-commit.
class LatchedSyncPageStore : public InMemoryPageStore {
 public:
  using InMemoryPageStore::InMemoryPageStore;

  Status Sync() override {
    std::unique_lock<std::mutex> lock(mu_);
    ++syncs_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !held_; });
    return Status::OK();
  }

  void Hold(bool held) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = held;
    }
    cv_.notify_all();
  }

  uint64_t syncs() {
    std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }

  /// Blocks until at least `n` Sync() calls have started.
  void AwaitSyncs(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return syncs_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  uint64_t syncs_ = 0;
};

/// \brief Bytes this process has handed to write-family syscalls so far
/// (`wchar` in /proc/self/io, Linux), or -1 when that is unreadable.  The
/// difference across a call counts the physical bytes the call wrote.
/// Read with stdio: under UBSan the first iostream read of the file
/// writes bytes of its own, which would land inside the window.
inline int64_t WrittenBytes() {
  FILE* io = std::fopen("/proc/self/io", "r");
  if (io == nullptr) return -1;
  char key[32];
  long long value = 0;
  int64_t written = -1;
  while (std::fscanf(io, "%31s %lld", key, &value) == 2) {
    if (std::strcmp(key, "wchar:") == 0) {
      written = value;
      break;
    }
  }
  std::fclose(io);
  return written;
}

/// \brief CRC32 as docs/FORMATS.md defines it, one bit at a time with no
/// table: the reference `Crc32` and every on-disk checksum must equal.
inline uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ ((c & 1u) != 0 ? 0xedb88320u : 0u);
    }
  }
  return c ^ 0xffffffffu;
}

}  // namespace testing
}  // namespace bmeh

#endif  // BMEH_TESTS_TEST_UTIL_H_
