// Google-benchmark microbenchmarks: CPU cost of the mapping functions and
// of the three schemes' core operations (logical-I/O counts are covered by
// the table benches; these measure wall-clock throughput of the in-memory
// implementation).

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/bmeh_tree.h"
#include "src/exhash/extendible_hash.h"
#include "src/extarray/theorem1.h"
#include "src/metrics/experiment.h"

namespace bmeh {
namespace {

void BM_Theorem1Map(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<uint32_t> idx(d);
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) {
      idx[j] = static_cast<uint32_t>(rng.Uniform(1u << 16));
    }
    benchmark::DoNotOptimize(
        extarray::Theorem1Map(std::span<const uint32_t>(idx.data(), d)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Theorem1Map)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_GrowthHistoryMap(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  extarray::GrowthHistory hist(d);
  // Non-cyclic schedule of 16 events.
  Rng seed_rng(2);
  for (int e = 0; e < 16; ++e) {
    hist.Double(static_cast<int>(seed_rng.Uniform(d)));
  }
  Rng rng(3);
  std::vector<uint32_t> idx(d);
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) {
      idx[j] = static_cast<uint32_t>(
          rng.Uniform(uint64_t{1} << hist.depth(j)));
    }
    benchmark::DoNotOptimize(
        hist.Map(std::span<const uint32_t>(idx.data(), d)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GrowthHistoryMap)->Arg(2)->Arg(4);

std::vector<PseudoKey> BenchKeys(uint64_t n, int dims = 2) {
  workload::WorkloadSpec spec;
  spec.dims = dims;
  spec.seed = 42;
  return workload::GenerateKeys(spec, n);
}

void BM_Build(benchmark::State& state, metrics::Method method) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  for (auto _ : state) {
    auto index = metrics::MakeIndex(method, schema, /*page_capacity=*/16);
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(index->Insert(keys[i], i));
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_Build, MDEH, metrics::Method::kMdeh)->Arg(10000);
BENCHMARK_CAPTURE(BM_Build, MEHTree, metrics::Method::kMehTree)->Arg(10000);
BENCHMARK_CAPTURE(BM_Build, BMEHTree, metrics::Method::kBmehTree)
    ->Arg(10000);

void BM_Search(benchmark::State& state, metrics::Method method) {
  const uint64_t n = 40000;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(method, schema, /*page_capacity=*/16);
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(index->Insert(keys[i], i));
  }
  Rng rng(4);
  for (auto _ : state) {
    const PseudoKey& key = keys[rng.Uniform(n)];
    benchmark::DoNotOptimize(index->Search(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Search, MDEH, metrics::Method::kMdeh);
BENCHMARK_CAPTURE(BM_Search, MEHTree, metrics::Method::kMehTree);
BENCHMARK_CAPTURE(BM_Search, BMEHTree, metrics::Method::kBmehTree);

void BM_BmehRangeQuery(benchmark::State& state) {
  const uint64_t n = 40000;
  const double side = state.range(0) / 1000.0;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 16));
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(tree.Insert(keys[i], i));
  }
  const uint64_t domain = uint64_t{1} << 31;
  const uint32_t extent = static_cast<uint32_t>(side * domain);
  Rng rng(5);
  uint64_t results = 0;
  for (auto _ : state) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      uint32_t lo = static_cast<uint32_t>(rng.Uniform(domain - extent));
      pred.Constrain(j, lo, lo + extent);
    }
    std::vector<Record> out;
    BMEH_CHECK_OK(tree.RangeSearch(pred, &out));
    results += out.size();
  }
  state.SetItemsProcessed(results);
}
BENCHMARK(BM_BmehRangeQuery)->Arg(5)->Arg(20)->Arg(100);

void BM_BmehBulkLoad(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const auto keys = BenchKeys(n);
  std::vector<Record> records;
  for (uint64_t i = 0; i < n; ++i) records.push_back({keys[i], i});
  KeySchema schema(2, 31);
  for (auto _ : state) {
    BmehTree tree(schema, TreeOptions::Make(2, 16));
    BMEH_CHECK_OK(tree.BulkLoad(records));
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BmehBulkLoad)->Arg(10000);

void BM_BmehDelete(benchmark::State& state) {
  const uint64_t n = 20000;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BmehTree tree(schema, TreeOptions::Make(2, 16));
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(tree.Insert(keys[i], i));
    }
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(tree.Delete(keys[i]));
    }
    ops += n;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BmehDelete)->Unit(benchmark::kMillisecond);

void BM_ExtendibleHash1D(benchmark::State& state) {
  ExtendibleHashOptions opts;
  opts.page_capacity = 16;
  Rng key_rng(6);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(static_cast<uint32_t>(key_rng.Uniform(1u << 31)));
  }
  ExtendibleHash eh(opts);
  for (uint32_t key : keys) {
    Status st = eh.Insert(key, 0);
    BMEH_CHECK(st.ok() || st.IsAlreadyExists());
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eh.Search(keys[rng.Uniform(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtendibleHash1D);

}  // namespace
}  // namespace bmeh
