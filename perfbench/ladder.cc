// Layer-ladder rungs (see ladder.h).  Every rung replays fresh draws of
// the workload's own streams, so each sees the cache state the workload
// sees.  A layer's own cost is the median over blocks (or rounds) of the
// gap between its rung and the one below, each block running every rung
// back to back, so the host's drift cancels out of the difference.

#include "perfbench/ladder.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>

namespace perfbench {
namespace {

using bmeh::PseudoKey;
using bmeh::Status;

/// One-thread rungs run in kBlocks blocks of kBlock lookups, every rung
/// once per block index in rotating order.
constexpr uint64_t kBlock = 1024;
constexpr size_t kBlocks = 96;
/// The 2-thread/1-thread ratios run in rounds of this many lookups per
/// thread and rung.
constexpr int kScaleRounds = 5;
constexpr uint64_t kScaleGets = 32000;
/// Lookups per epoch guard on the bare-tree rung, so that rung carries
/// (almost) no guard cost and the guard rung's difference is the guard.
constexpr uint64_t kGuardBlock = 256;
constexpr uint64_t kLambdaHits = 100000;
constexpr uint64_t kLambdaMisses = 20000;
constexpr int kRangeRounds = 5;
constexpr uint64_t kQueriesPerRound = 120;  ///< Boxes and slabs alternating.
constexpr uint64_t kUpdatePairs = 10000;
constexpr uint64_t kWalAppends = 20000;
constexpr uint64_t kWalBatches = 200;
constexpr size_t kWalBatchRecords = 256;
constexpr int kSaves = 3;
/// Replica fill batch (in-memory devices, so only the apply cost matters).
constexpr size_t kFillBatch = 4096;
/// Stream ids of the ladder's own draws (the measured phase uses 0..1).
constexpr uint64_t kGetStreams = 100;
constexpr uint64_t kScaleStreams = 200;
constexpr uint64_t kObsStream = 400;
constexpr uint64_t kLambdaStream = 600;
constexpr uint64_t kWalStream = 700;

struct Probe {
  PseudoKey key;
  uint64_t serial = 0;
  int shard = 0;
};

uint64_t Records(const LadderInput& in) { return in.packed->size(); }

/// `count` keys drawn by `next` (the workload's point reads or its
/// updates) from stream `stream`; `shard` >= 0 keeps only the keys that
/// route to that shard.
std::vector<Probe> Draw(const LadderInput& in,
                        uint64_t (Draws::*next)(Rng&) const, uint64_t stream,
                        uint64_t count, int shard = -1) {
  Rng rng = Stream(in.seed, stream);
  std::vector<Probe> probes;
  probes.reserve(count);
  while (probes.size() < count) {
    Probe p;
    p.serial = (in.draws->*next)(rng);
    p.key = in.keys->Key(p.serial);
    p.shard = in.store->ShardOf(p.key);
    if (shard < 0 || p.shard == shard) probes.push_back(p);
  }
  return probes;
}

std::vector<Probe> DrawReads(const LadderInput& in, uint64_t stream,
                             uint64_t count, int shard = -1) {
  return Draw(in, &Draws::Read, stream, count, shard);
}

/// True when a lookup of `serial` answered as it must on a quiet store.
bool Answered(const bmeh::Result<uint64_t>& r, uint64_t serial,
              uint64_t records) {
  if (serial < records) return r.ok() && r.ValueOrDie() == serial;
  return !r.ok() && r.status().IsKeyError();
}

enum Rung { kTree, kGuard, kStore, kFacade, kRungs };

/// Replays `probes` on one rung; returns the wrong answers.
uint64_t Replay(const LadderInput& in, Rung rung,
                std::span<const Probe> probes) {
  bmeh::ShardedStore* store = in.store;
  bmeh::epoch::EpochManager* epoch = bmeh::epoch::EpochManager::Global();
  const uint64_t n = Records(in);
  uint64_t wrong = 0;
  auto tree_search = [&](const Probe& p) {
    bool conflict = false;
    auto r = store->shard(p.shard)->mutable_tree()->SearchOptimistic(
        p.key, &conflict);
    wrong += conflict || !Answered(r, p.serial, n);
  };
  switch (rung) {
    case kTree:
      for (size_t i = 0; i < probes.size(); i += kGuardBlock) {
        bmeh::epoch::Guard guard(epoch);
        const size_t end = std::min(probes.size(), i + kGuardBlock);
        for (size_t j = i; j < end; ++j) tree_search(probes[j]);
      }
      break;
    case kGuard:
      for (const Probe& p : probes) {
        bmeh::epoch::Guard guard(epoch);
        tree_search(p);
      }
      break;
    case kStore:
      for (const Probe& p : probes) {
        wrong += !Answered(store->shard(p.shard)->Get(p.key), p.serial, n);
      }
      break;
    case kFacade:
      for (const Probe& p : probes) {
        wrong += !Answered(store->Get(p.key), p.serial, n);
      }
      break;
    case kRungs:
      break;
  }
  return wrong;
}

/// Runs `fn(t)` on `threads` threads released together and returns the
/// wall time from the first start to the last end, in ns.
template <typename Fn>
uint64_t Parallel(int threads, Fn fn) {
  std::atomic<int> ready{0};
  std::vector<uint64_t> start(threads), end(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      start[t] = NowNs();
      fn(t);
      end[t] = NowNs();
    });
  }
  for (std::thread& th : pool) th.join();
  return *std::max_element(end.begin(), end.end()) -
         *std::min_element(start.begin(), start.end());
}

/// Times `replay(i, rung, block)` for every block index and rung, the
/// rung order rotating with the block; returns ns per op, [rung][block].
template <typename ReplayFn>
std::vector<std::vector<double>> Interleaved(int rungs, ReplayFn replay) {
  std::vector<std::vector<double>> ns(rungs);
  for (size_t b = 0; b < kBlocks; ++b) {
    for (int k = 0; k < rungs; ++k) {
      const int rung = static_cast<int>((b + k) % rungs);
      const uint64_t t0 = NowNs();
      replay(rung, b);
      ns[rung].push_back(static_cast<double>(NowNs() - t0) / kBlock);
    }
  }
  return ns;
}

/// Median over blocks (or rounds) of the per-op time gap between two
/// rungs.
double Gap(const std::vector<double>& upper,
           const std::vector<double>& lower) {
  std::vector<double> d;
  for (size_t b = 0; b < upper.size(); ++b) d.push_back(upper[b] - lower[b]);
  return Median(d);
}

/// Get path: tree -> guard -> store -> facade, at 1 and 2 threads.
void GetRungs(const LadderInput& in, LadderResult* out) {
  // Each rung reads its own keys: rungs share the trees, so replaying one
  // rung's keys on the next would find them in cache.
  std::vector<Probe> probes[kRungs];
  for (int r = 0; r < kRungs; ++r) {
    probes[r] = DrawReads(in, kGetStreams + r, kBlock * kBlocks);
  }
  const std::vector<std::vector<double>> ns =
      Interleaved(kRungs, [&](int r, size_t b) {
        out->failed += Replay(in, static_cast<Rung>(r),
                              std::span<const Probe>(probes[r]).subspan(
                                  b * kBlock, kBlock));
        out->attempted += kBlock;
      });

  // Two-thread over one-thread throughput, round by round.
  std::vector<double> scaling[kRungs];
  for (int round = 0; round < kScaleRounds; ++round) {
    for (int r = 0; r < kRungs; ++r) {
      const Rung rung = static_cast<Rung>(r);
      const uint64_t streams = kScaleStreams + 3 * (round * kRungs + r);
      const std::vector<Probe> one = DrawReads(in, streams, kScaleGets);
      const std::vector<Probe> two[2] = {
          DrawReads(in, streams + 1, kScaleGets),
          DrawReads(in, streams + 2, kScaleGets)};
      uint64_t wrong[2] = {0, 0};
      const uint64_t wall1 =
          Parallel(1, [&](int) { wrong[0] = Replay(in, rung, one); });
      out->failed += wrong[0];
      const uint64_t wall2 =
          Parallel(2, [&](int t) { wrong[t] = Replay(in, rung, two[t]); });
      out->failed += wrong[0] + wrong[1];
      out->attempted += 3 * kScaleGets;
      scaling[r].push_back(2.0 * static_cast<double>(wall1) /
                           static_cast<double>(wall2));
    }
  }
  out->metrics.push_back({"tree.get_ns", Median(ns[kTree]), "ns"});
  out->metrics.push_back(
      {"tree.get_scaling_2t", Median(scaling[kTree]), "ratio"});
  out->metrics.push_back({"epoch.guard_ns", Gap(ns[kGuard], ns[kTree]), "ns"});
  out->metrics.push_back(
      {"bmeh_store.get_self_ns", Gap(ns[kStore], ns[kGuard]), "ns"});
  out->metrics.push_back(
      {"bmeh_store.get_scaling_2t", Median(scaling[kStore]), "ratio"});
  out->metrics.push_back(
      {"sharded_store.get_self_ns", Gap(ns[kFacade], ns[kStore]), "ns"});
  out->metrics.push_back(
      {"sharded_store.get_scaling_2t", Median(scaling[kFacade]), "ratio"});
}

bmeh::IoStats TreeIo(bmeh::ShardedStore* store) {
  bmeh::IoStats sum;
  for (int s = 0; s < store->shards(); ++s) {
    const bmeh::IoStats io = store->shard(s)->mutable_tree()->io()->stats();
    sum.dir_reads += io.dir_reads;
    sum.data_reads += io.data_reads;
  }
  return sum;
}

/// λ and λ′: directory and data page reads per lookup from the trees'
/// own I/O counters (the root is pinned and not charged), plus height.
void Lambda(const LadderInput& in, LadderResult* out) {
  const uint64_t n = Records(in);
  std::vector<Probe> hits;
  for (const Probe& p : DrawReads(in, kLambdaStream, kLambdaHits)) {
    if (p.serial < n) hits.push_back(p);
  }
  std::vector<Probe> misses;
  for (uint64_t j = 0; j < kLambdaMisses; ++j) {
    Probe p;
    p.serial = n + j;
    p.key = in.keys->Key(p.serial);
    p.shard = in.store->ShardOf(p.key);
    misses.push_back(p);
  }
  auto count = [&](const std::vector<Probe>& probes) {
    const bmeh::IoStats before = TreeIo(in.store);
    out->failed += Replay(in, kGuard, probes);
    out->attempted += probes.size();
    return TreeIo(in.store) - before;
  };
  const bmeh::IoStats hit = count(hits);
  const bmeh::IoStats miss = count(misses);
  const double h = static_cast<double>(hits.size());
  int height = 0;
  for (int s = 0; s < in.store->shards(); ++s) {
    height = std::max(height, in.store->shard(s)->tree().height());
  }
  out->metrics.push_back({"tree.dir_reads_per_hit",
                          static_cast<double>(hit.dir_reads) / h, "count"});
  out->metrics.push_back({"tree.data_reads_per_hit",
                          static_cast<double>(hit.data_reads) / h, "count"});
  out->metrics.push_back({"tree.dir_reads_per_miss",
                          static_cast<double>(miss.dir_reads) / kLambdaMisses,
                          "count"});
  out->metrics.push_back(
      {"tree.height", static_cast<double>(height), "count"});
}

/// Range path: per-shard tree walk -> per-shard store -> facade.  Each
/// rung runs over a round's whole query list before the next starts, so
/// no rung reads pages the previous rung just brought into cache.
void RangeRungs(const LadderInput& in, LadderResult* out) {
  bmeh::ShardedStore* store = in.store;
  const int shards = store->shards();
  const bmeh::KeySchema& schema = store->schema();
  // kind 0 = box, 1 = slab; rung 0 = walk, 1 = store, 2 = facade.
  std::vector<double> per_query_us[2][3];
  uint64_t results[2] = {0, 0};
  uint64_t data_reads[2] = {0, 0};
  // The range workload's own query stream (stream 0), round by round.
  Rng rng = Stream(in.seed, 0);
  uint64_t index = 0;
  for (int round = 0; round < kRangeRounds; ++round) {
    std::vector<Query> queries;
    for (uint64_t i = 0; i < kQueriesPerRound; ++i) {
      queries.push_back(MakeQuery(rng, schema, index++));
    }
    std::vector<uint64_t> counts[3];
    uint64_t ns[2][3] = {};
    uint64_t issued[2] = {0, 0};
    std::vector<bmeh::Record> buf;
    for (int rung = 0; rung < 3; ++rung) {
      for (const Query& q : queries) {
        const int kind = q.box ? 0 : 1;
        const bmeh::IoStats io0 = TreeIo(store);
        uint64_t count = 0;
        bool ok = true;
        const uint64_t t0 = NowNs();
        if (rung == 0) {
          for (int s = 0; s < shards; ++s) {
            bmeh::epoch::Guard guard(bmeh::epoch::EpochManager::Global());
            bool conflict = false;
            buf.clear();
            const Status st =
                store->shard(s)->mutable_tree()->RangeSearchOptimistic(
                    q.pred, &buf, &conflict);
            ok = ok && st.ok() && !conflict;
            count += buf.size();
          }
        } else if (rung == 1) {
          for (int s = 0; s < shards; ++s) {
            buf.clear();
            ok = ok && store->shard(s)->Range(q.pred, &buf).ok();
            count += buf.size();
          }
        } else {
          ok = store->Range(q.pred, &buf).ok();
          count = buf.size();
        }
        ns[kind][rung] += NowNs() - t0;
        if (rung == 0) {
          ++issued[kind];
          results[kind] += count;
          data_reads[kind] += (TreeIo(store) - io0).data_reads;
        }
        counts[rung].push_back(count);
        ++out->attempted;
        out->failed += !ok;
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ++out->attempted;
      out->failed +=
          counts[1][i] != counts[0][i] || counts[2][i] != counts[0][i];
    }
    for (int kind = 0; kind < 2; ++kind) {
      for (int rung = 0; rung < 3; ++rung) {
        per_query_us[kind][rung].push_back(
            Ratio(static_cast<double>(ns[kind][rung]) / 1e3, issued[kind]));
      }
    }
  }
  const char* names[2] = {"box", "slab"};
  for (int kind = 0; kind < 2; ++kind) {
    const std::vector<double>* us = per_query_us[kind];
    const std::string k = names[kind];
    out->metrics.push_back({"tree." + k + "_walk_us", Median(us[0]), "us"});
    out->metrics.push_back({"tree.pages_per_" + k + "_result",
                            Ratio(data_reads[kind], results[kind]), "count"});
    out->metrics.push_back(
        {"bmeh_store." + k + "_self_us", Gap(us[1], us[0]), "us"});
    out->metrics.push_back(
        {"sharded_store." + k + "_self_us", Gap(us[2], us[1]), "us"});
  }
}

/// The loaded records that route to `shard`, in serial order.
std::vector<bmeh::Record> ShardRecords(const LadderInput& in, int shard) {
  std::vector<bmeh::Record> recs;
  for (uint64_t i = 0; i < Records(in); ++i) {
    const PseudoKey key = KeySpace::Unpack((*in.packed)[i]);
    if (in.store->ShardOf(key) == shard) recs.push_back({key, i});
  }
  return recs;
}

/// obs: the store rung on two replicas of shard 0, one with a registry
/// attached and one without.
void ObsRung(const LadderInput& in, LadderResult* out) {
  bmeh::obs::MetricsRegistry registry;
  std::unique_ptr<bmeh::BmehStore> replicas[2];  // [0] bare, [1] registry
  for (int with = 0; with < 2; ++with) {
    bmeh::StoreOptions options;
    options.wal_sync_every = 1;
    options.metrics = with == 1 ? &registry : nullptr;
    auto opened = bmeh::BmehStore::Open(
        std::make_unique<bmeh::InMemoryPageStore>(), options);
    ++out->attempted;
    if (!opened.ok()) {
      ++out->failed;
      return;
    }
    replicas[with] = std::move(opened).ValueOrDie();
  }
  // Filled batch by batch in turn, so neither replica gets the better
  // placement in memory.
  const std::vector<bmeh::Record> recs = ShardRecords(in, 0);
  for (size_t i = 0; i < recs.size(); i += kFillBatch) {
    const std::span<const bmeh::Record> batch(
        recs.data() + i, std::min(kFillBatch, recs.size() - i));
    for (const auto& replica : replicas) {
      ++out->attempted;
      out->failed += !replica->InsertBatch(batch).ok();
    }
  }
  for (const auto& replica : replicas) {
    ++out->attempted;
    out->failed += !replica->Checkpoint().ok();
  }
  // Both replicas read the same keys: they share no memory, so neither
  // warms the other's cache.
  const uint64_t n = Records(in);
  const std::vector<Probe> probes =
      DrawReads(in, kObsStream, kBlock * kBlocks, /*shard=*/0);
  const std::vector<std::vector<double>> ns =
      Interleaved(2, [&](int with, size_t b) {
        for (uint64_t i = b * kBlock; i < (b + 1) * kBlock; ++i) {
          const Probe& p = probes[i];
          out->failed += !Answered(replicas[with]->Get(p.key), p.serial, n);
        }
        out->attempted += kBlock;
      });
  out->metrics.push_back({"obs.get_ns", Gap(ns[1], ns[0]), "ns"});
}

/// Write path: a bare replica of shard 0's tree (concurrent reads on)
/// under the Delete/Put stream, a standalone Wal, and SaveTo of shard 0.
void WriteRungs(const LadderInput& in, LadderResult* out) {
  bmeh::ShardedStore* store = in.store;
  {
    auto tree = std::make_unique<bmeh::BmehTree>(
        store->schema(), store->shard(0)->tree().options());
    ++out->attempted;
    out->failed += !tree->BulkLoad(ShardRecords(in, 0)).ok();
    tree->EnableConcurrentReads(bmeh::epoch::EpochManager::Global());
    // The workload's Delete/Put keys (its writer draws from stream 0).
    const std::vector<Probe> pairs =
        Draw(in, &Draws::Update, 0, kUpdatePairs, /*shard=*/0);
    uint64_t wrong = 0;
    const uint64_t t0 = NowNs();
    for (const Probe& p : pairs) {
      wrong += !tree->Delete(p.key).ok();
      wrong += !tree->Insert(p.key, p.serial).ok();
    }
    const uint64_t t1 = NowNs();
    out->attempted += 2 * kUpdatePairs;
    out->failed += wrong;
    out->metrics.push_back({"tree.update_ns",
                            static_cast<double>(t1 - t0) / (2 * kUpdatePairs),
                            "ns"});
  }
  bmeh::epoch::EpochManager::Global()->Drain();

  const std::string wal_path = in.scratch_dir + "/wal-rung.bmeh";
  {
    auto created = bmeh::FilePageStore::Create(wal_path);
    ++out->attempted;
    if (!created.ok()) {
      ++out->failed;
      return;
    }
    const std::unique_ptr<bmeh::FilePageStore> device =
        std::move(created).ValueOrDie();
    if (in.skip_fsync) device->DisableFsyncForTesting();
    bmeh::Wal wal(device.get(), /*sync_every=*/1);
    Rng rng = Stream(in.seed, kWalStream);
    auto record = [&] {
      const uint64_t serial = in.draws->Update(rng);
      return bmeh::Wal::LogRecord{bmeh::Wal::kOpInsert, in.keys->Key(serial),
                                  serial, 0};
    };
    std::vector<bmeh::Wal::LogRecord> singles(kWalAppends);
    for (auto& rec : singles) rec = record();
    uint64_t wrong = 0;
    uint64_t t0 = NowNs();
    for (const auto& rec : singles) {
      wrong += !wal.Append(rec).ok();
      wrong += !wal.MaybeSync().ok();
    }
    const double append_ns = static_cast<double>(NowNs() - t0) / kWalAppends;
    std::vector<std::vector<bmeh::Wal::LogRecord>> batches(kWalBatches);
    for (auto& batch : batches) {
      for (size_t i = 0; i < kWalBatchRecords; ++i) batch.push_back(record());
    }
    t0 = NowNs();
    for (const auto& batch : batches) {
      wrong += !wal.AppendBatch(batch).ok();
      wrong += !wal.Sync().ok();
    }
    const double batch_ns = static_cast<double>(NowNs() - t0) / kWalBatches;
    out->attempted += 2 * (kWalAppends + kWalBatches);
    out->failed += wrong;
    out->metrics.push_back({"wal.append_us", append_ns / 1e3, "us"});
    out->metrics.push_back({"wal.batch_append_us", batch_ns / 1e3, "us"});
  }
  std::error_code ignored;
  std::filesystem::remove(wal_path, ignored);

  std::vector<double> save_ms;
  for (int i = 0; i < kSaves; ++i) {
    bmeh::InMemoryPageStore scratch;
    const uint64_t t0 = NowNs();
    const bool ok = store->shard(0)->mutable_tree()->SaveTo(&scratch).ok();
    save_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    ++out->attempted;
    out->failed += !ok;
  }
  out->metrics.push_back({"tree.save_ms", Median(save_ms), "ms"});
}

}  // namespace

LadderResult RunLadder(const LadderInput& in) {
  LadderResult out;
  GetRungs(in, &out);
  Lambda(in, &out);
  ObsRung(in, &out);
  RangeRungs(in, &out);
  WriteRungs(in, &out);
  return out;
}

}  // namespace perfbench
