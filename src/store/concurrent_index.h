// ConcurrentIndex: a thread-safe facade over any MultiKeyIndex.
//
// The 1986 structures are single-writer by design; this wrapper makes
// them usable from threaded services.  Writers always serialize on an
// exclusive lock.  How readers synchronize depends on the index:
//  * over a BMEH-tree (degraded trees from LoadFromTolerant included),
//    Search and RangeSearch are optimistic and lock-free: they descend
//    the published structure validating slot version words (even =
//    stable, odd = write in progress), retry on conflict with bounded
//    backoff, and fall back to the shared lock if contention persists.
//    Replaced nodes are retired through epoch-based reclamation, so
//    readers never touch freed memory.  See arena.h / bmeh_olc_read.cc
//    for the protocol and DESIGN.md §13 for the proof sketch;
//  * over MDEH and the MEH-tree, which have no optimistic path, they
//    take the shared lock.
// Both, and the write-preferring gate on the lock, come from the
// ReadPlane that BmehStore uses too (src/store/read_plane.h).
//
// Observability: construct with a MetricsRegistry to get per-operation
// counters (`index_*_total`, plus `index_read_retries_total` and
// `index_read_fallbacks_total` for the optimistic path) and latency
// histograms (`search_latency_ns`, `insert_latency_ns`,
// `delete_latency_ns`, `range_latency_ns`, and the retried-read splits
// `search_retried_latency_ns` / `range_retried_latency_ns`) charged
// around every call, plus a sampled source for the structure stats and
// the logical I/O counters.  The source samples through the epoch guard
// with version validation — never through the writer-view accessors —
// so snapshots stay safe alongside lock-free readers and one writer.

#ifndef BMEH_STORE_CONCURRENT_INDEX_H_
#define BMEH_STORE_CONCURRENT_INDEX_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/epoch.h"
#include "src/core/bmeh_tree.h"
#include "src/hashdir/multikey_index.h"
#include "src/obs/metrics.h"
#include "src/store/read_plane.h"

namespace bmeh {

/// \brief Thread-safe wrapper around a MultiKeyIndex (see file comment).
class ConcurrentIndex {
 public:
  /// \brief Takes ownership of `index`.  `metrics` (optional) must
  /// outlive this object.
  explicit ConcurrentIndex(std::unique_ptr<MultiKeyIndex> index,
                           obs::MetricsRegistry* metrics = nullptr)
      : index_(std::move(index)) {
    BMEH_CHECK(index_ != nullptr);
    tree_olc_ = dynamic_cast<BmehTree*>(index_.get());
    if (tree_olc_ != nullptr) plane_.EnableOptimistic(tree_olc_);
    if (metrics != nullptr) {
      metrics_ = metrics;
      inserts_ = metrics->GetCounter("index_inserts_total");
      searches_ = metrics->GetCounter("index_searches_total");
      deletes_ = metrics->GetCounter("index_deletes_total");
      ranges_ = metrics->GetCounter("index_ranges_total");
      read_retries_ = metrics->GetCounter("index_read_retries_total");
      read_fallbacks_ = metrics->GetCounter("index_read_fallbacks_total");
      insert_latency_ = metrics->GetHistogram("insert_latency_ns");
      search_latency_ = metrics->GetHistogram("search_latency_ns");
      delete_latency_ = metrics->GetHistogram("delete_latency_ns");
      range_latency_ = metrics->GetHistogram("range_latency_ns");
      search_retried_latency_ =
          metrics->GetHistogram("search_retried_latency_ns");
      range_retried_latency_ =
          metrics->GetHistogram("range_retried_latency_ns");
      metrics_source_ = metrics->AddSource([this](obs::RegistrySnapshot* s) {
        IndexStructureStats stats;
        SampleStatsForMetrics(&stats);
        s->gauges["index_records"] = static_cast<int64_t>(stats.records);
        s->gauges["index_data_pages"] =
            static_cast<int64_t>(stats.data_pages);
        s->gauges["index_directory_nodes"] =
            static_cast<int64_t>(stats.directory_nodes);
        s->gauges["index_directory_entries"] =
            static_cast<int64_t>(stats.directory_entries);
        s->gauges["index_directory_levels"] =
            static_cast<int64_t>(stats.directory_levels);
        const IoStats io = index_->io()->stats();
        s->counters["logical_dir_reads_total"] = io.dir_reads;
        s->counters["logical_dir_writes_total"] = io.dir_writes;
        s->counters["logical_data_reads_total"] = io.data_reads;
        s->counters["logical_data_writes_total"] = io.data_writes;
      });
    }
  }

  ~ConcurrentIndex() {
    if (metrics_ != nullptr) metrics_->RemoveSource(metrics_source_);
  }

  ConcurrentIndex(const ConcurrentIndex&) = delete;
  ConcurrentIndex& operator=(const ConcurrentIndex&) = delete;

  Status Insert(const PseudoKey& key, uint64_t payload) {
    if (inserts_ != nullptr) inserts_->Inc();
    obs::ScopedLatency timer(insert_latency_);
    auto lock = plane_.LockExclusive();
    return index_->Insert(key, payload);
  }

  /// \brief Inserts every record under ONE exclusive-lock acquisition —
  /// the batched write path's answer to paying per-record lock traffic.
  /// Records are attempted in order and all of them are tried; the first
  /// non-OK status (e.g. AlreadyExists on a duplicate) is returned.  No
  /// rollback: like N consecutive Insert() calls, minus N-1 lock round
  /// trips and with no other writer interleaved inside the batch.
  Status InsertBatch(std::span<const Record> records) {
    if (inserts_ != nullptr) inserts_->Inc(records.size());
    obs::ScopedLatency timer(insert_latency_);
    auto lock = plane_.LockExclusive();
    Status first;
    for (const Record& rec : records) {
      Status st = index_->Insert(rec.key, rec.payload);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    return first;
  }

  Result<uint64_t> Search(const PseudoKey& key) {
    if (searches_ != nullptr) searches_->Inc();
    obs::ScopedLatency timer(search_latency_);
    return plane_.Read(
        [&](bool* conflict) {
          return tree_olc_->SearchOptimistic(key, conflict);
        },
        [&] { return index_->Search(key); }, read_retries_, read_fallbacks_,
        search_retried_latency_);
  }

  Status Delete(const PseudoKey& key) {
    if (deletes_ != nullptr) deletes_->Inc();
    obs::ScopedLatency timer(delete_latency_);
    auto lock = plane_.LockExclusive();
    return index_->Delete(key);
  }

  /// \brief Deletes every key under one exclusive-lock acquisition.  Same
  /// contract as InsertBatch: all keys attempted in order, first non-OK
  /// status (e.g. KeyError on a missing key) returned, no rollback.
  Status DeleteBatch(std::span<const PseudoKey> keys) {
    if (deletes_ != nullptr) deletes_->Inc(keys.size());
    obs::ScopedLatency timer(delete_latency_);
    auto lock = plane_.LockExclusive();
    Status first;
    for (const PseudoKey& key : keys) {
      Status st = index_->Delete(key);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    return first;
  }

  Status RangeSearch(const RangePredicate& pred, std::vector<Record>* out) {
    if (ranges_ != nullptr) ranges_->Inc();
    obs::ScopedLatency timer(range_latency_);
    return plane_.Read(
        [&](bool* conflict) {
          return tree_olc_->RangeSearchOptimistic(pred, out, conflict);
        },
        [&] { return index_->RangeSearch(pred, out); }, read_retries_,
        read_fallbacks_, range_retried_latency_);
  }

  IndexStructureStats Stats() const {
    auto lock = plane_.LockShared();
    return index_->Stats();
  }

  Status Validate() const {
    auto lock = plane_.LockShared();
    return index_->Validate();
  }

  const KeySchema& schema() const { return index_->schema(); }

  /// \brief True when reads go through the lock-free path (the index is
  /// a BmehTree).
  bool optimistic_reads_enabled() const { return tree_olc_ != nullptr; }

 private:
  /// Tree-shape sample for the metrics source.  With the lock-free path
  /// on, this must NOT use the writer-view accessors: a concurrent
  /// mutation's copy-on-write scope would race the sampler.  Sample the
  /// published (immutable) structure under the epoch guard and version
  /// validation, falling back to the locked Stats() if a commit keeps
  /// interleaving.
  void SampleStatsForMetrics(IndexStructureStats* out) const {
    if (tree_olc_ != nullptr) {
      epoch::Guard g(plane_.epoch());
      for (int attempt = 0;
           g.pinned() && attempt < ReadPlane::kOptimisticAttempts; ++attempt) {
        if (tree_olc_->SampleStatsOptimistic(out)) return;
      }
    }
    *out = Stats();
  }

  // Note: Search() mutates the underlying I/O counters, which is benign
  // from any thread because IoCounter is atomic; the registry source
  // above snapshots them likewise.
  ReadPlane plane_;
  std::unique_ptr<MultiKeyIndex> index_;
  BmehTree* tree_olc_ = nullptr;  // Non-null when the index is a BmehTree.
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_source_ = 0;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* searches_ = nullptr;
  obs::Counter* deletes_ = nullptr;
  obs::Counter* ranges_ = nullptr;
  obs::Counter* read_retries_ = nullptr;
  obs::Counter* read_fallbacks_ = nullptr;
  obs::Histogram* insert_latency_ = nullptr;
  obs::Histogram* search_latency_ = nullptr;
  obs::Histogram* delete_latency_ = nullptr;
  obs::Histogram* range_latency_ = nullptr;
  obs::Histogram* search_retried_latency_ = nullptr;
  obs::Histogram* range_retried_latency_ = nullptr;
};

}  // namespace bmeh

#endif  // BMEH_STORE_CONCURRENT_INDEX_H_
