// Write-path throughput: single-record appends vs batched WriteBatch
// appends vs concurrent writers sharing commits through the writer queue.
//
// Every mode loads the same number of fresh records into a BmehStore over
// an in-memory page store (so the comparison isolates the write path's CPU
// and page traffic: WAL chain encoding, tail-page rewrites, lock round
// trips — not device fsync, which a real deployment amortizes even
// harder).  The batched path's advantage is structural: a size-k batch
// writes each WAL page once instead of rewriting the tail page k times,
// acquires the store's writer lock once, and publishes once.
//
// Artifact: BENCH_group_commit.json with ops/sec per mode and the batched
// speedup over single-record — CI smoke-checks it, the full run is the
// evidence for the ">= 3x at batch >= 64" claim.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/metrics.h"
#include "src/store/bmeh_store.h"

namespace bmeh {
namespace {

StoreOptions BaseOptions() {
  StoreOptions o;
  o.schema = KeySchema(2, 31);
  o.tree = TreeOptions::Make(2, 32);
  // A log-block-sized page: every single-record append rewrites the WAL
  // tail page whole (guarded, so it is copied twice), which is exactly
  // the amplification batching removes — at 32 KiB it dominates the
  // fixed tree-apply cost the way device I/O would on a real log.
  o.page_size = 32768;
  o.wal_sync_every = 1;
  o.checkpoint_every = 0;  // measure the WAL path, not checkpoint cadence
  return o;
}

// Unique keys: component 1 is a serial number, so no mode ever sees an
// AlreadyExists and every run inserts exactly n records.
PseudoKey KeyFor(uint32_t serial) {
  return PseudoKey({(serial * 2654435761u) & 0x7fffffffu, serial});
}

std::unique_ptr<BmehStore> FreshStore(const StoreOptions& opts) {
  auto opened = BmehStore::Open(
      std::make_unique<InMemoryPageStore>(opts.page_size), opts);
  BMEH_CHECK_OK(opened.status());
  return std::move(opened).ValueOrDie();
}

double OpsPerSec(uint64_t n, std::chrono::steady_clock::duration elapsed) {
  const double secs =
      std::chrono::duration<double>(elapsed).count();
  return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

double RunSingle(uint64_t n) {
  auto store = FreshStore(BaseOptions());
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(store->Put(KeyFor(i), i));
  }
  return OpsPerSec(n, std::chrono::steady_clock::now() - start);
}

double RunBatched(uint64_t n, uint64_t batch_size) {
  auto store = FreshStore(BaseOptions());
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < n;) {
    const uint64_t take = std::min(batch_size, n - i);
    WriteBatch batch;
    for (uint64_t j = i; j < i + take; ++j) {
      batch.Put(KeyFor(static_cast<uint32_t>(j)), j);
    }
    BMEH_CHECK_OK(store->Write(batch));
    i += take;
  }
  return OpsPerSec(n, std::chrono::steady_clock::now() - start);
}

double RunGroupCommit(uint64_t n, int writers) {
  auto store = FreshStore(BaseOptions());
  const uint64_t per_writer = n / writers;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      const uint32_t base = static_cast<uint32_t>(t) *
                            static_cast<uint32_t>(per_writer);
      for (uint32_t i = 0; i < per_writer; ++i) {
        BMEH_CHECK_OK(store->Put(KeyFor(base + i), base + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  return OpsPerSec(per_writer * writers,
                   std::chrono::steady_clock::now() - start);
}

}  // namespace
}  // namespace bmeh

int main() {
  using namespace bmeh;
  const bool smoke = bench::SmokeMode();
  const uint64_t n = smoke ? 4000 : 50000;
  constexpr uint64_t kBatchSizes[] = {8, 64, 256};
  constexpr int kGroupWriters = 4;

  std::printf("\n================================================================================\n");
  std::printf("Write-path throughput: single vs batched vs group commit "
              "(in-memory, N = %llu)%s\n",
              static_cast<unsigned long long>(n), smoke ? " [smoke]" : "");
  std::printf("================================================================================\n");

  obs::MetricsRegistry registry;
  const double single = RunSingle(n);
  std::printf("  %-28s %12.0f ops/sec\n", "single-record Put", single);
  registry.GetGauge("single_put_ops_per_sec")
      ->Set(static_cast<int64_t>(single));

  for (const uint64_t bs : kBatchSizes) {
    const double batched = RunBatched(n, bs);
    const double speedup = single > 0 ? batched / single : 0.0;
    std::printf("  WriteBatch size %-12llu %12.0f ops/sec   (%.1fx single)\n",
                static_cast<unsigned long long>(bs), batched, speedup);
    const std::string tag = "batch_" + std::to_string(bs);
    registry.GetGauge(tag + "_ops_per_sec")
        ->Set(static_cast<int64_t>(batched));
    registry.GetGauge(tag + "_speedup_pct")
        ->Set(static_cast<int64_t>(speedup * 100.0));
  }

  const double grouped = RunGroupCommit(n, kGroupWriters);
  std::printf("  %d-writer group commit       %12.0f ops/sec   (%.1fx single)\n",
              kGroupWriters, grouped, single > 0 ? grouped / single : 0.0);
  std::printf("  (writers that find a commit in flight ride the next one,\n"
              "   one fsync per group; an in-memory device has no fsync to\n"
              "   amortize, so only the coordination cost shows.)\n");
  registry.GetGauge("group_commit_ops_per_sec")
      ->Set(static_cast<int64_t>(grouped));
  registry.GetGauge("group_commit_writers")->Set(kGroupWriters);
  registry.GetGauge("records_per_mode")->Set(static_cast<int64_t>(n));

  bench::WriteBenchJson(bench::BenchOutPath("BENCH_group_commit.json"),
                        registry);
  return 0;
}
