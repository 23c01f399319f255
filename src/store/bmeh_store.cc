#include "src/store/bmeh_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/obs/stopwatch.h"

namespace bmeh {

namespace {

// Superblock layout (version 3, LSN-aware):
//   [0]  magic "BMS3"
//   [4]  image chain head (kInvalidPageId = no checkpoint yet)
//   [8]  checkpoint generation (u64)
//   [16] WAL chain head (kInvalidPageId = empty log)
//   [20] WAL base LSN (u64) — LSN of the first record in the log
//   [28] CRC32 of bytes [0, 28)
// The version-2 layout ("BMS2", no base LSN, CRC over [0, 20)) is still
// accepted on read — a v2 store simply reports base LSN 1, losing the
// pre-upgrade mutation count but never identity ordering — and upgraded
// to v3 on the first superblock write.
constexpr uint32_t kSuperMagicV2 = 0x424d5332;  // "BMS2"
constexpr uint32_t kSuperMagic = 0x424d5333;    // "BMS3"
constexpr size_t kSuperPayloadV2 = 20;
constexpr size_t kSuperPayload = 28;

}  // namespace

Status internal::ReadStoreSuperblock(PageStore* store, PageId page,
                                     PageId* head, uint64_t* generation,
                                     PageId* wal_head,
                                     uint64_t* wal_base_lsn) {
  std::vector<uint8_t> buf(store->page_size());
  BMEH_RETURN_NOT_OK(store->Read(page, buf));
  const uint32_t magic = GetU32(buf.data());
  if (magic != kSuperMagic && magic != kSuperMagicV2) {
    return Status::Corruption("bad superblock magic");
  }
  const size_t payload =
      magic == kSuperMagic ? kSuperPayload : kSuperPayloadV2;
  if (GetU32(buf.data() + payload) != Crc32(buf.data(), payload)) {
    return Status::Corruption("superblock checksum mismatch");
  }
  *head = GetU32(buf.data() + 4);
  *generation = GetU64(buf.data() + 8);
  *wal_head = GetU32(buf.data() + 16);
  if (wal_base_lsn != nullptr) {
    *wal_base_lsn = magic == kSuperMagic ? GetU64(buf.data() + 20) : 1;
  }
  return Status::OK();
}

Status internal::WriteStoreSuperblock(PageStore* store, PageId page,
                                      PageId head, uint64_t generation,
                                      PageId wal_head,
                                      uint64_t wal_base_lsn) {
  std::vector<uint8_t> buf(store->page_size(), 0);
  PutU32(buf.data(), kSuperMagic);
  PutU32(buf.data() + 4, head);
  PutU64(buf.data() + 8, generation);
  PutU32(buf.data() + 16, wal_head);
  PutU64(buf.data() + 20, wal_base_lsn);
  PutU32(buf.data() + kSuperPayload, Crc32(buf.data(), kSuperPayload));
  BMEH_RETURN_NOT_OK(store->Write(page, buf));
  return store->Sync();
}

namespace {

/// Deterministic logical outcomes of applying a mutation to the tree:
/// duplicate insert, delete of an absent key, a key outside the schema
/// domain, a structural capacity limit, or a landing on a quarantined
/// bucket of a degraded tree.  These were (or would have been) rejections
/// when the record was logged live and reject identically at replay, so
/// both the live batch path and recovery treat them as per-record no-ops
/// — anything else is a real IO/corruption failure.
bool IsToleratedApplyOutcome(const Status& st) {
  return st.IsAlreadyExists() || st.IsKeyError() || st.IsInvalid() ||
         st.IsCapacityError() || st.IsDataLoss();
}

/// Applies one replayed WAL record to the tree (see above for why logical
/// failures are swallowed; only real failures abort recovery).
Status ApplyReplayed(BmehTree* tree, const Wal::LogRecord& rec) {
  Status st = (rec.op == Wal::kOpInsert) ? tree->Insert(rec.key, rec.payload)
                                         : tree->Delete(rec.key);
  if (st.ok() || IsToleratedApplyOutcome(st)) return Status::OK();
  return st;
}

/// One public operation's telemetry, measured once: the same duration (and
/// the same freshly-minted trace_id) lands in the latency histogram, the
/// tracer span and the wide event, so all three views of one slow Put are
/// correlatable.  Destructor order inside an op body does the bookkeeping
/// after the op's last exit path has set the status.
class OpScope {
 public:
  OpScope(const char* op, obs::Histogram* hist, obs::Tracer* tracer,
          obs::OpLog* oplog, int shard,
          const std::atomic<uint64_t>* inject_delay_ns)
      : hist_(hist),
        oplog_(oplog),
        inject_delay_ns_(inject_delay_ns),
        start_ns_(obs::MonotonicNanos()),
        span_(tracer, op, "store") {
    ev_.op = op;
    ev_.shard = shard;
    if (oplog_ != nullptr || tracer != nullptr) {
      ev_.trace_id = obs::NextTraceId();
      span_.set_trace_id(ev_.trace_id);
    }
  }

  ~OpScope() {
    const uint64_t delay =
        inject_delay_ns_->load(std::memory_order_relaxed);
    if (delay > 0) {
      // Testing hook: spin out the op so the oplog's slow-op override has
      // something deterministic to flag.
      const uint64_t until = obs::MonotonicNanos() + delay;
      while (obs::MonotonicNanos() < until) {
      }
    }
    const uint64_t dur = obs::MonotonicNanos() - start_ns_;
    if (hist_ != nullptr) hist_->Record(dur);
    if (oplog_ != nullptr) {
      ev_.latency_ns = dur;
      oplog_->Record(ev_);
    }
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  void set_status(const Status& st) { ev_.status = StatusCodeName(st.code()); }
  void set_lsn(uint64_t lsn) { ev_.lsn = lsn; }
  void set_count(uint64_t n) { ev_.count = n; }

 private:
  obs::Histogram* hist_;
  obs::OpLog* oplog_;
  const std::atomic<uint64_t>* inject_delay_ns_;
  const uint64_t start_ns_;
  obs::TraceSpan span_;
  obs::WideEvent ev_;
};

}  // namespace

BmehStore::BmehStore(std::unique_ptr<PageStore> store,
                     std::unique_ptr<BmehTree> tree, PageId image_head,
                     uint64_t generation, const StoreOptions& options)
    : store_(std::move(store)),
      tree_(std::move(tree)),
      wal_(std::make_unique<Wal>(store_.get(), options.wal_sync_every)),
      super_page_(store_->first_data_page()),
      image_head_(image_head),
      generation_(generation),
      checkpoint_every_(options.checkpoint_every),
      wal_archive_dir_(options.wal_archive_dir) {
  AttachObservability(options);
}

void BmehStore::AttachObservability(const StoreOptions& options) {
  tracer_ = options.tracer;
  oplog_ = options.oplog;
  watchdog_ = options.watchdog;
  shard_index_ = options.shard_index;
  watchdog_deadline_ms_ = options.watchdog_deadline_ms;
  const std::string label = shard_index_ < 0 ? "" : MetricsLabel(shard_index_);
  if (watchdog_ != nullptr) {
    // Armed only around a leader's append+sync and around CheckpointLocked
    // (both are legally absent most of the time); the label keeps sibling
    // shards distinguishable.
    commit_hb_ = watchdog_->Register(label + "commit", watchdog_deadline_ms_);
    checkpoint_hb_ =
        watchdog_->Register(label + "checkpoint", watchdog_deadline_ms_);
  }
  if (options.metrics == nullptr) return;
  metrics_ = options.metrics;
  writes_total_ = metrics_->GetCounter("store_writes_total");
  puts_total_ = metrics_->GetCounter("store_puts_total");
  gets_total_ = metrics_->GetCounter("store_gets_total");
  deletes_total_ = metrics_->GetCounter("store_deletes_total");
  ranges_total_ = metrics_->GetCounter("store_ranges_total");
  checkpoints_total_ = metrics_->GetCounter("store_checkpoints_total");
  wal_appends_total_ = metrics_->GetCounter("wal_appends_total");
  wal_replayed_total_ = metrics_->GetCounter("wal_replayed_records_total");
  batch_writes_total_ = metrics_->GetCounter("store_batch_writes_total");
  batch_records_ = metrics_->GetHistogram("wal_batch_records");
  read_retries_total_ = metrics_->GetCounter("store_read_retries_total");
  read_fallbacks_total_ = metrics_->GetCounter("store_read_fallbacks_total");
  insert_latency_ = metrics_->GetHistogram("insert_latency_ns");
  search_latency_ = metrics_->GetHistogram("search_latency_ns");
  delete_latency_ = metrics_->GetHistogram("delete_latency_ns");
  range_latency_ = metrics_->GetHistogram("range_latency_ns");
  // Read-path latency split by retry count: ops that needed at least one
  // optimistic retry land here *in addition to* the total histograms.
  search_retried_latency_ = metrics_->GetHistogram("search_retried_latency_ns");
  range_retried_latency_ = metrics_->GetHistogram("range_retried_latency_ns");
  checkpoint_latency_ = metrics_->GetHistogram("checkpoint_latency_ns");
  wal_append_latency_ = metrics_->GetHistogram("wal_append_latency_ns");
  store_->AttachMetrics(metrics_, &plane_.mutex(), label);
  if (tree_ != nullptr) {
    tree_->set_split_latency_histogram(
        metrics_->GetHistogram("split_latency_ns"));
  }
  // Tree / WAL / logical-I/O state, sampled at Snapshot() time.  The
  // constructor runs before any replay or mutation, so by the time a
  // snapshot can observe this source tree_ is set (OpenExisting assigns
  // it before anything escapes).  The shared lock makes sampling safe
  // against a committing writer (and costs nothing uncontended).
  // Every sampled name carries the store's label (empty for a standalone
  // store) so sibling shards sharing the registry don't overwrite each
  // other at Snapshot() time.
  metrics_source_ =
      metrics_->AddSource([this, label](obs::RegistrySnapshot* s) {
        // Every tree mutation runs under LockExclusive, so the shared hold
        // keeps copy-on-write scopes closed while the writer-view walk
        // below counts the tree's shape.
        std::shared_lock<std::shared_mutex> lock(plane_.mutex());
        const IndexStructureStats ts = tree_->Stats();
        if (plane_.optimistic()) {
          const epoch::EpochStats es = plane_.epoch()->Stats();
          s->gauges[label + "epoch_deferred_frees"] =
              static_cast<int64_t>(es.deferred);
          s->counters[label + "epoch_retired_total"] = es.retired_total;
          s->counters[label + "epoch_reclaimed_total"] = es.reclaimed_total;
          s->counters[label + "epoch_advances_total"] = es.advances_total;
        }
        s->gauges[label + "tree_records"] = static_cast<int64_t>(ts.records);
        s->gauges[label + "tree_height"] = tree_->height();
        s->gauges[label + "tree_directory_nodes"] =
            static_cast<int64_t>(ts.directory_nodes);
        s->gauges[label + "tree_directory_entries"] =
            static_cast<int64_t>(ts.directory_entries);
        s->gauges[label + "tree_data_pages"] =
            static_cast<int64_t>(ts.data_pages);
        s->gauges[label + "store_generation"] =
            static_cast<int64_t>(generation_);
        s->gauges[label + "store_dirty_ops"] =
            static_cast<int64_t>(dirty_ops_);
        s->gauges[label + "wal_records"] =
            static_cast<int64_t>(wal_->record_count());
        s->gauges[label + "wal_pages"] =
            static_cast<int64_t>(wal_->pages().size());
        const BmehMutationStats& m = tree_->mutation_stats();
        s->counters[label + "tree_page_splits_total"] = m.page_splits;
        s->counters[label + "tree_node_doublings_total"] = m.node_doublings;
        s->counters[label + "tree_node_splits_total"] = m.node_splits;
        s->counters[label + "tree_forced_splits_total"] = m.forced_splits;
        s->counters[label + "tree_new_roots_total"] = m.new_roots;
        s->counters[label + "tree_page_merges_total"] = m.page_merges;
        s->counters[label + "tree_node_halvings_total"] = m.node_halvings;
        s->counters[label + "tree_node_merges_total"] = m.node_merges;
        s->counters[label + "tree_root_collapses_total"] = m.root_collapses;
        const IoStats io = tree_->io()->stats();
        s->counters[label + "logical_dir_reads_total"] = io.dir_reads;
        s->counters[label + "logical_dir_writes_total"] = io.dir_writes;
        s->counters[label + "logical_data_reads_total"] = io.data_reads;
        s->counters[label + "logical_data_writes_total"] = io.data_writes;
      });
}

BmehStore::SampledState BmehStore::SampleStateForMetrics() const {
  std::shared_lock<std::shared_mutex> lock(plane_.mutex());
  SampledState st;
  st.records = tree_->Stats().records;
  st.height = tree_->height();
  st.wal_records = wal_->record_count();
  st.dirty_ops = dirty_ops_;
  st.generation = generation_;
  st.wal_base_lsn = wal_->base_lsn();
  st.durable_lsn = wal_->next_lsn() - 1;
  return st;
}

BmehStore::~BmehStore() {
  if (dirty_ops_ > 0 && poisoned_.ok() && !degraded()) {
    Status st = Checkpoint();
    if (!st.ok()) {
      BMEH_LOG(Error) << "final checkpoint failed: " << st;
    }
  }
  if (metrics_ != nullptr) metrics_->RemoveSource(metrics_source_);
  if (watchdog_ != nullptr) {
    // After the final checkpoint above, so the commit path stays
    // monitored for the store's whole life.
    watchdog_->Unregister(commit_hb_);
    watchdog_->Unregister(checkpoint_hb_);
  }
  if (plane_.optimistic()) {
    // The tree (and everything it retired) dies with this store; drain
    // limbo now so the global manager does not hold dead stores' nodes.
    plane_.epoch()->Drain();
  }
}

Result<std::unique_ptr<BmehStore>> BmehStore::InitFresh(
    std::unique_ptr<PageStore> store, const StoreOptions& options) {
  BMEH_ASSIGN_OR_RETURN(PageId super, store->Allocate());
  if (super != store->first_data_page()) {
    return Status::Corruption("unexpected superblock page id " +
                              std::to_string(super));
  }
  auto tree = std::make_unique<BmehTree>(options.schema, options.tree);
  auto out = std::unique_ptr<BmehStore>(
      new BmehStore(std::move(store), std::move(tree), kInvalidPageId, 0,
                    options));
  BMEH_RETURN_NOT_OK(internal::WriteStoreSuperblock(
      out->store_.get(), out->super_page_, kInvalidPageId, /*generation=*/0,
      kInvalidPageId, /*wal_base_lsn=*/1));
  // Last step before the store escapes: no other thread can hold a
  // reference yet, so flipping the read path on is unobservable.
  out->plane_.EnableOptimistic(out->tree_.get());
  return out;
}

Result<std::unique_ptr<BmehStore>> BmehStore::OpenExisting(
    std::unique_ptr<PageStore> store, const StoreOptions& options,
    Status* image_chain) {
  auto out = std::unique_ptr<BmehStore>(
      new BmehStore(std::move(store), nullptr, kInvalidPageId, 0, options));
  PageId head = kInvalidPageId, wal_head = kInvalidPageId;
  uint64_t generation = 0, wal_base_lsn = 1;
  const Status super_st =
      internal::ReadStoreSuperblock(out->store_.get(), out->super_page_,
                                    &head, &generation, &wal_head,
                                    &wal_base_lsn);
  if (!super_st.ok()) {
    // A verified-corrupt superblock (DataLoss) on a tolerant open still
    // yields a store object — with both chain heads gone there is nothing
    // to serve, but the caller can see the diagnosis and run salvage.
    // Anything else (e.g. bad magic on an intact page: not a BmehStore
    // file) stays a hard failure.
    if (!options.tolerate_corruption || !super_st.IsDataLoss()) {
      return super_st;
    }
    out->report_.degraded = true;
    out->report_.superblock_lost = true;
    out->report_.image_lost = true;
    out->tree_ = std::make_unique<BmehTree>(options.schema, options.tree);
    out->poisoned_ = Status::DataLoss(
        "superblock lost to corruption; store is read-only degraded");
    out->plane_.EnableOptimistic(out->tree_.get());
    return out;
  }
  out->image_head_ = head;
  out->generation_ = generation;
  if (head == kInvalidPageId) {
    out->tree_ = std::make_unique<BmehTree>(options.schema, options.tree);
  } else if (!options.tolerate_corruption) {
    BMEH_ASSIGN_OR_RETURN(
        out->tree_,
        BmehTree::LoadFrom(out->store_.get(), head, &out->image_pages_));
  } else {
    TreeLoadReport image_report;
    auto loaded =
        BmehTree::LoadFromTolerant(out->store_.get(), head, &image_report);
    *image_chain = image_report.chain;
    if (loaded.ok()) {
      out->tree_ = std::move(loaded).ValueOrDie();
      out->image_pages_ = std::move(image_report.chain_pages);
      if (out->tree_->degraded()) {
        out->report_.degraded = true;
        out->report_.image_data_loss = image_report.chain.IsDataLoss();
        out->report_.quarantined_buckets = image_report.quarantined_pages;
        out->store_->NoteQuarantined(image_report.quarantined_pages);
      }
    } else if (image_report.directory_lost && !image_report.chain.ok()) {
      // The cut fell inside the directory itself: no bucket survives.
      // Keep the store openable for triage; WAL records still replay.
      out->report_.degraded = true;
      out->report_.image_lost = true;
      out->report_.image_data_loss = image_report.chain.IsDataLoss();
      out->tree_ = std::make_unique<BmehTree>(options.schema, options.tree);
    } else {
      // Intact chain but unparseable image: structural corruption, not
      // bit rot — nothing a degraded mode could honestly serve.
      return loaded.status();
    }
  }
  if (head != kInvalidPageId && !out->report_.image_lost &&
      !(out->tree_->schema() == options.schema)) {
    return Status::Invalid("schema mismatch: store has " +
                           out->tree_->schema().ToString() +
                           ", caller expects " + options.schema.ToString());
  }
  // Replay the log on top of the checkpoint.  A torn tail is discarded
  // (and zeroed) by the Wal; whatever replays is re-counted as dirty so
  // a clean shutdown folds it into the next checkpoint.
  BmehTree* tree = out->tree_.get();
  if (out->metrics_ != nullptr) {
    // The tree was built after the constructor attached observability;
    // wire it now so replay-induced splits are already charged.
    tree->set_split_latency_histogram(
        out->metrics_->GetHistogram("split_latency_ns"));
  }
  obs::Counter* replayed = out->wal_replayed_total_;
  out->wal_->SetBaseLsn(wal_base_lsn);
  BMEH_RETURN_NOT_OK(out->wal_->Replay(
      wal_head, [tree, replayed](const Wal::LogRecord& rec) {
        if (replayed != nullptr) replayed->Inc();
        return ApplyReplayed(tree, rec);
      }));
  out->dirty_ops_ = out->wal_->record_count();
  out->published_wal_head_ = wal_head;
  if (out->wal_->replay_hit_data_loss()) {
    // Not a benign torn tail: a verified-corrupt page swallowed a suffix
    // of acknowledged mutations.
    if (!options.tolerate_corruption) {
      return Status::DataLoss("WAL cut short by a corrupt page");
    }
    out->report_.degraded = true;
    out->report_.wal_data_loss = true;
    if (out->poisoned_.ok()) {
      // New appends would overwrite the surviving tail page and cut the
      // chain ahead of the corrupt page — after which nothing on disk
      // records that acknowledged mutations were lost.
      out->poisoned_ = Status::DataLoss(
          "WAL cut short by a corrupt page; store is read-only degraded");
    }
  }
  if (out->wal_->head() != wal_head && !out->report_.degraded) {
    // The whole log was unreadable garbage (e.g. the head page never hit
    // the disk).  Point the superblock away from it so the pages can be
    // safely reused.  (Skipped on a degraded store: the corrupt chain is
    // evidence fsck still wants to walk.)
    BMEH_RETURN_NOT_OK(internal::WriteStoreSuperblock(
        out->store_.get(), out->super_page_, out->image_head_,
        out->generation_, out->wal_->head(), out->wal_->base_lsn()));
    out->published_wal_head_ = out->wal_->head();
    out->wal_->NoteSynced();
  }
  if (out->report_.image_lost && out->poisoned_.ok()) {
    // Records that replayed from the WAL are genuine, but everything the
    // lost checkpoint held is gone; new mutations would only deepen the
    // split between the two histories.
    out->poisoned_ = Status::DataLoss(
        "checkpoint image lost to corruption; store is read-only degraded");
  }
  // Replay is done and the store has not escaped to any other thread yet,
  // so this is the quiescent point where concurrent reads may turn on.
  out->plane_.EnableOptimistic(out->tree_.get());
  return out;
}

Result<std::unique_ptr<BmehStore>> BmehStore::Open(
    std::unique_ptr<PageStore> store, const StoreOptions& options) {
  if (options.max_pages > 0) store->SetMaxPages(options.max_pages);
  if (store->live_page_count() == 0) {
    return InitFresh(std::move(store), options);
  }
  Status image_chain;
  return OpenExisting(std::move(store), options, &image_chain);
}

Result<std::unique_ptr<BmehStore>> BmehStore::Open(
    const std::string& path, const StoreOptions& options) {
  if (!PathExists(path)) {
    BMEH_ASSIGN_OR_RETURN(auto file,
                          FilePageStore::Create(path, options.page_size));
    if (options.max_pages > 0) file->SetMaxPages(options.max_pages);
    return InitFresh(std::move(file), options);
  }

  // Existing file: the page store keeps no free list on disk, so rebuild
  // it from reachability once the superblock, image and WAL told us which
  // pages are live.
  BMEH_ASSIGN_OR_RETURN(auto file, FilePageStore::Open(path));
  if (options.max_pages > 0) file->SetMaxPages(options.max_pages);
  FilePageStore* raw = file.get();
  Status image_chain;
  BMEH_ASSIGN_OR_RETURN(auto out,
                        OpenExisting(std::move(file), options, &image_chain));

  if (out->degraded()) {
    // With verified corruption in play, "unreachable" can no longer be
    // distinguished from "reachable through a page we failed to read".
    // Adopt nothing: leaked pages are only wasted space, and fsck can
    // reclaim them after salvage.  The store stays alloc-capable by
    // growing the file instead of recycling.
    return out;
  }
  // The load's walk listed the image's pages; one that stopped short of
  // the chain's terminator cannot say which pages are the image's.
  BMEH_RETURN_NOT_OK(image_chain);
  std::unordered_set<PageId> reachable(out->image_pages_.begin(),
                                       out->image_pages_.end());
  reachable.insert(out->super_page_);
  for (PageId id : out->wal_->pages()) reachable.insert(id);
  std::vector<PageId> free_pages;
  for (PageId id = 1; id < raw->page_count(); ++id) {
    if (reachable.count(id) == 0) free_pages.push_back(id);
  }
  BMEH_RETURN_NOT_OK(raw->AdoptFreeList(free_pages));
  return out;
}

Result<StoreInfo> BmehStore::Inspect(const std::string& path) {
  BMEH_ASSIGN_OR_RETURN(auto file, FilePageStore::Open(path));
  StoreInfo info;
  info.page_size = file->page_size();
  info.page_count = file->page_count();
  info.format_version = file->format_version();
  PageId head, wal_head;
  uint64_t generation, wal_base_lsn = 1;
  BMEH_RETURN_NOT_OK(internal::ReadStoreSuperblock(
      file.get(), file->first_data_page(), &head, &generation, &wal_head,
      &wal_base_lsn));
  info.generation = generation;
  info.image_head = head;
  info.wal_head = wal_head;
  info.wal_base_lsn = wal_base_lsn;

  std::unique_ptr<BmehTree> tree;
  std::vector<PageId> image_pages;
  if (head != kInvalidPageId) {
    BMEH_ASSIGN_OR_RETURN(tree,
                          BmehTree::LoadFrom(file.get(), head, &image_pages));
  }
  // Count the replayed state without mutating the file (no tail
  // sanitization, no superblock rewrite).
  std::map<PseudoKey, uint64_t> scratch;
  Wal wal(file.get(), 0);
  wal.SetBaseLsn(wal_base_lsn);
  BMEH_RETURN_NOT_OK(wal.Replay(
      wal_head,
      [&](const Wal::LogRecord& rec) -> Status {
        if (tree != nullptr) return ApplyReplayed(tree.get(), rec);
        if (rec.op == Wal::kOpInsert) {
          scratch.emplace(rec.key, rec.payload);
        } else {
          scratch.erase(rec.key);
        }
        return Status::OK();
      },
      /*sanitize_tail=*/false));
  info.wal_records = wal.record_count();
  info.wal_pages = wal.pages().size();
  info.durable_lsn = wal.next_lsn() - 1;
  info.records = tree != nullptr ? tree->Stats().records : scratch.size();
  // Live pages after the recovery a real Open() would perform:
  // superblock + image chain + WAL chain.
  info.live_pages = 1 + image_pages.size() + info.wal_pages;
  info.free_pages =
      info.page_count > info.live_pages + 1  // +1: the header page
          ? info.page_count - info.live_pages - 1
          : 0;
  info.high_water_pages = file->stats().high_water_pages;
  info.max_pages = file->max_pages();
  info.reserved_pages = file->reserved_pages();
  info.alloc_failures = file->stats().alloc_failures;
  info.read_retries = file->stats().read_retries;
  info.checksum_failures = file->stats().checksum_failures;
  info.pages_quarantined = file->stats().pages_quarantined;
  info.page_reads = file->stats().reads;
  return info;
}

Status BmehStore::PublishAppended() {
  Status st;
  if (wal_->head() != published_wal_head_) {
    // First record(s) of a fresh log: make the chain reachable from the
    // superblock (the publish syncs, covering the record pages as well).
    st = internal::WriteStoreSuperblock(store_.get(), super_page_,
                                        image_head_, generation_,
                                        wal_->head(), wal_->base_lsn());
    if (st.ok()) {
      published_wal_head_ = wal_->head();
      wal_->NoteSynced();
    }
  } else {
    st = wal_->MaybeSync();
  }
  if (!st.ok()) {
    // Past the append there is no rollback: the records are in the log
    // but their durability is unknown, so memory and disk must not
    // diverge further — whatever the failure's code.
    poisoned_ = st;
  }
  return st;
}

Status BmehStore::ApplyBatchLocked(std::span<const Wal::LogRecord> recs,
                                   std::span<Status> outcomes) {
  auto fail_all = [&](const Status& st) {
    std::fill(outcomes.begin(), outcomes.end(), st);
    return st;
  };
  if (!poisoned_.ok()) return fail_all(poisoned_);
  if (wal_appends_total_ != nullptr) wal_appends_total_->Inc(recs.size());
  if (batch_records_ != nullptr) batch_records_->Record(recs.size());
  {
    // A stuck append or fsync becomes a watchdog stall.
    obs::Watchdog::ArmedScope armed(commit_hb_);
    obs::ScopedLatency timer(wal_append_latency_);
    obs::TraceSpan span(tracer_, "wal_append", "wal");
    // A batch of one record is a plain Append: no batch framing, so a
    // lone writer's commit costs one record's page write.
    Status st = wal_->AppendBatch(recs);
    if (!st.ok()) {
      // A transient failure (page quota / ENOSPC) rolled itself back
      // completely — the log and the tree are still coherent, and the
      // same records can be retried once space frees.  Poisoning is for
      // failures that leave disk state unknown.
      if (!st.IsTransient()) poisoned_ = st;
      return fail_all(st);
    }
    st = PublishAppended();  // one superblock flip or one fsync for all
    if (!st.ok()) return fail_all(st);
  }
  // The records are durable; apply them to the tree with exactly the
  // tolerance replay uses, so recovery reproduces live state record for
  // record.
  for (size_t i = 0; i < recs.size(); ++i) {
    const Wal::LogRecord& rec = recs[i];
    Status st = (rec.op == Wal::kOpInsert)
                    ? tree_->Insert(rec.key, rec.payload)
                    : tree_->Delete(rec.key);
    if (!st.ok() && !IsToleratedApplyOutcome(st)) {
      // A real (IO-grade) tree failure mid-commit: the log and the tree
      // have diverged, so poison — every outcome reports it, since no
      // acknowledgement can be trusted past this point.
      poisoned_ = st;
      return fail_all(st);
    }
    outcomes[i] = std::move(st);
  }
  // Every record is in the WAL, so every record counts as dirty — the
  // same arithmetic recovery uses (dirty_ops = replayed record count).
  dirty_ops_ += recs.size();
  return MaybeAutoCheckpointLocked();
}

/// One caller in the writer queue.  It lives on the caller's stack and
/// is linked in place, so queueing allocates nothing.
struct BmehStore::Writer {
  std::span<const Wal::LogRecord> recs;
  std::vector<Status>* per_record = nullptr;  ///< Write() callers only.
  Status status;
  uint64_t lsn = 0;  ///< LSN of the writer's last record (0 = not logged).
  bool done = false;
  Writer* next = nullptr;
  std::condition_variable cv;
};

void BmehStore::Commit(Writer* w) {
  std::unique_lock<std::mutex> queue(queue_mu_);
  (queue_tail_ != nullptr ? queue_tail_->next : queue_head_) = w;
  queue_tail_ = w;
  // A follower waits until a leader has committed its records, or until
  // it reaches the head and leads the next commit itself.
  w->cv.wait(queue, [&] { return w->done || queue_head_ == w; });
  if (w->done) return;
  // Every writer queued now rides this commit; later arrivals ride the
  // next one.  Their links up to `last` stay fixed while they wait.
  Writer* const last = queue_tail_;
  queue.unlock();
  {
    auto lock = plane_.LockExclusive();
    CommitGroupLocked(w, last);
  }
  queue.lock();
  // Followers cannot leave their wait while queue_mu_ is held, so every
  // member stays alive until this function returns.
  for (Writer* m = w; m != last;) {
    m = m->next;
    m->done = true;
    m->cv.notify_one();
  }
  queue_head_ = last->next;
  if (queue_head_ == nullptr) {
    queue_tail_ = nullptr;
  } else {
    queue_head_->cv.notify_one();  // the next leader
  }
}

void BmehStore::CommitGroupLocked(Writer* first, Writer* last) {
  std::span<const Wal::LogRecord> recs = first->recs;
  if (first != last) {
    group_recs_.clear();
    for (Writer* w = first;; w = w->next) {
      group_recs_.insert(group_recs_.end(), w->recs.begin(), w->recs.end());
      if (w == last) break;
    }
    recs = group_recs_;
  }
  group_outcomes_.resize(recs.size());
  const uint64_t first_lsn = wal_->next_lsn();
  const Status shared = ApplyBatchLocked(recs, group_outcomes_);
  const bool logged = wal_->next_lsn() != first_lsn;
  // Hand each writer its slice: a shared failure overrides, otherwise the
  // first logical no-op among its own records.
  size_t pos = 0;
  for (Writer* w = first;; w = w->next) {
    const size_t end = pos + w->recs.size();
    if (w->per_record != nullptr) {
      w->per_record->assign(group_outcomes_.begin() + pos,
                            group_outcomes_.begin() + end);
    }
    w->status = shared;
    for (size_t i = pos; i < end && w->status.ok(); ++i) {
      w->status = group_outcomes_[i];
    }
    if (logged) w->lsn = first_lsn + end - 1;
    pos = end;
    if (w == last) break;
  }
}

size_t BmehStore::QueuedWritersForTesting() {
  std::lock_guard<std::mutex> queue(queue_mu_);
  size_t n = 0;
  for (const Writer* w = queue_head_; w != nullptr; w = w->next) ++n;
  return n;
}

Status BmehStore::Write(const WriteBatch& batch,
                        std::vector<Status>* per_record) {
  if (writes_total_ != nullptr) writes_total_->Inc(batch.size());
  if (batch_writes_total_ != nullptr) batch_writes_total_->Inc();
  OpScope op("write_batch", nullptr, tracer_, oplog_, shard_index_,
             &inject_op_delay_ns_);
  op.set_count(batch.size());
  Writer w;
  w.recs = batch.records();
  w.per_record = per_record;
  // The schema is immutable after open, so keys are validated before
  // queueing: a malformed key fails this batch alone, with nothing
  // written (it could never replay).
  for (const Wal::LogRecord& rec : w.recs) {
    w.status = tree_->schema().Validate(rec.key);
    if (!w.status.ok()) break;
  }
  if (!w.status.ok()) {
    if (per_record != nullptr) per_record->assign(batch.size(), w.status);
  } else if (batch.empty()) {
    if (per_record != nullptr) per_record->clear();
  } else {
    Commit(&w);
    op.set_lsn(w.lsn);
  }
  op.set_status(w.status);
  return w.status;
}

Status BmehStore::InsertBatch(std::span<const Record> recs) {
  WriteBatch batch;
  for (const Record& rec : recs) batch.Put(rec.key, rec.payload);
  return Write(batch);
}

Status BmehStore::DeleteBatch(std::span<const PseudoKey> keys) {
  WriteBatch batch;
  for (const PseudoKey& key : keys) batch.Delete(key);
  return Write(batch);
}

Status BmehStore::Put(const PseudoKey& key, uint64_t payload) {
  if (puts_total_ != nullptr) puts_total_->Inc();
  if (writes_total_ != nullptr) writes_total_->Inc();
  OpScope op("put", insert_latency_, tracer_, oplog_, shard_index_,
             &inject_op_delay_ns_);
  const Wal::LogRecord rec{Wal::kOpInsert, key, payload};
  Writer w;
  w.recs = {&rec, 1};
  w.status = tree_->schema().Validate(key);
  if (w.status.ok()) Commit(&w);
  op.set_lsn(w.lsn);
  op.set_status(w.status);
  return w.status;
}

Result<uint64_t> BmehStore::Get(const PseudoKey& key) {
  if (gets_total_ != nullptr) gets_total_->Inc();
  OpScope op("get", search_latency_, tracer_, oplog_, shard_index_,
             &inject_op_delay_ns_);
  Result<uint64_t> res = [&]() -> Result<uint64_t> {
    // The optimistic path takes no lock, so it does not wait out a
    // concurrent writer's WAL fsync.
    Result<uint64_t> found = plane_.Read(
        [&](bool* conflict) { return tree_->SearchOptimistic(key, conflict); },
        read_retries_total_, read_fallbacks_total_, search_retried_latency_);
    if (!found.ok() && found.status().IsKeyError() &&
        (report_.image_lost || report_.wal_data_loss)) {
      // When a whole image or a WAL suffix is gone, *any* absent key may
      // merely be lost — "not found" would be a silent wrong answer.
      return Status::DataLoss("key " + key.ToString() +
                              " not found, but the store lost data to "
                              "corruption; absence is not trustworthy");
    }
    return found;
  }();
  op.set_status(res.status());
  return res;
}

Status BmehStore::Delete(const PseudoKey& key) {
  if (deletes_total_ != nullptr) deletes_total_->Inc();
  if (writes_total_ != nullptr) writes_total_->Inc();
  OpScope op("delete", delete_latency_, tracer_, oplog_, shard_index_,
             &inject_op_delay_ns_);
  const Wal::LogRecord rec{Wal::kOpDelete, key, 0};
  Writer w;
  w.recs = {&rec, 1};
  w.status = tree_->schema().Validate(key);
  if (w.status.ok()) Commit(&w);
  op.set_lsn(w.lsn);
  op.set_status(w.status);
  return w.status;
}

Status BmehStore::Range(const RangePredicate& pred,
                        std::vector<Record>* out) {
  if (ranges_total_ != nullptr) ranges_total_->Inc();
  OpScope op("range", range_latency_, tracer_, oplog_, shard_index_,
             &inject_op_delay_ns_);
  Status st = [&]() -> Status {
    Status walked = plane_.Read(
        [&](bool* conflict) {
          return tree_->RangeSearchOptimistic(pred, out, conflict);
        },
        read_retries_total_, read_fallbacks_total_, range_retried_latency_);
    if (walked.ok() && (report_.image_lost || report_.wal_data_loss)) {
      // The surviving matches are in `out`, but records destroyed with
      // the image / WAL suffix can no longer be enumerated.
      return Status::DataLoss(
          "range result is partial: the store lost data to corruption");
    }
    return walked;
  }();
  if (out != nullptr) op.set_count(out->size());
  op.set_status(st);
  return st;
}

Status BmehStore::MaybeAutoCheckpointLocked() {
  if (degraded()) return Status::OK();  // see Checkpoint()
  if (checkpoint_every_ > 0 && dirty_ops_ >= checkpoint_every_) {
    Status st = CheckpointLocked();
    if (!st.ok() && st.IsTransient() && poisoned_.ok()) {
      // The mutation that triggered this checkpoint is already logged and
      // applied; only the checkpoint found no space, and it rolled back
      // cleanly.  Defer it (dirty_ops_ keeps growing, the next mutation
      // retries) rather than fail an operation that succeeded.
      BMEH_LOG(Warning) << "auto-checkpoint deferred: " << st;
      return Status::OK();
    }
    return st;
  }
  return Status::OK();
}

Status BmehStore::Checkpoint() {
  auto lock = plane_.LockExclusive();
  return CheckpointLocked();
}

Status BmehStore::CheckpointLocked() {
  if (checkpoints_total_ != nullptr) checkpoints_total_->Inc();
  OpScope op("checkpoint", checkpoint_latency_, tracer_, oplog_,
             shard_index_, &inject_op_delay_ns_);
  // Armed only for the checkpoint's duration: a checkpoint stuck in an
  // image write or the publish fsync becomes a watchdog stall.
  obs::Watchdog::ArmedScope armed(checkpoint_hb_);
  Status st = CheckpointArmedLocked();
  op.set_lsn(wal_->next_lsn() - 1);
  op.set_status(st);
  return st;
}

Status BmehStore::CheckpointArmedLocked() {
  BMEH_RETURN_NOT_OK(poisoned_);
  if (degraded()) {
    // A checkpoint of the degraded state would replace the still-
    // diagnosable on-disk damage with a clean-looking image silently
    // missing the lost records.  Salvage into a fresh store instead.
    return Status::DataLoss(
        "refusing to checkpoint a store degraded by corruption");
  }
  // Seal the records this checkpoint is about to truncate into the
  // archive (when configured) *before* anything becomes unreachable; a
  // failed archive write fails the checkpoint with the log intact.
  BMEH_RETURN_NOT_OK(ArchiveWalLocked());
  std::vector<PageId> new_pages;
  BMEH_ASSIGN_OR_RETURN(PageId new_head,
                        tree_->SaveTo(store_.get(), &new_pages));
  if (crash_before_publish_) {
    // Testing hook: the image is on disk but the superblock still points
    // at the previous checkpoint — exactly the state after a crash here.
    crash_before_publish_ = false;
    return Status::OK();
  }
  // The new image folds in every logged record, so the next WAL
  // incarnation starts right after the highest LSN assigned so far.
  Status publish = internal::WriteStoreSuperblock(
      store_.get(), super_page_, new_head, generation_ + 1, kInvalidPageId,
      wal_->next_lsn());
  if (!publish.ok()) {
    // The flip (or its fsync) failed: the durable state is unknown, so
    // refuse further mutations rather than let memory and disk diverge.
    poisoned_ = publish;
    return publish;
  }
  // Publish succeeded: the new image and an empty WAL are the durable
  // truth.  Update in-memory state first — the log detaches before any
  // page is freed, so a failed Free cannot leave checkpointed records in
  // the live log — then release the old chains as one list, the old
  // image in chain order and then the log's pages, without reading any
  // of them.  A failed Free leaks pages (reclaimed by the next recovery
  // Open) but cannot corrupt the published state.  While an online
  // backup has the old chains pinned, the list waits for EndBackup() so
  // its pages cannot be recycled under the backup's page copies.
  image_head_ = new_head;
  std::vector<PageId> released =
      std::exchange(image_pages_, std::move(new_pages));
  const std::vector<PageId> wal_pages = wal_->TruncateDeferred();
  released.insert(released.end(), wal_pages.begin(), wal_pages.end());
  ++generation_;
  dirty_ops_ = 0;
  published_wal_head_ = kInvalidPageId;
  if (backup_pins_ > 0) {
    deferred_page_frees_.insert(deferred_page_frees_.end(), released.begin(),
                                released.end());
    return Status::OK();
  }
  for (PageId id : released) BMEH_RETURN_NOT_OK(store_->Free(id));
  return Status::OK();
}

Status BmehStore::ArchiveWalLocked() {
  if (wal_archive_dir_.empty() || wal_->record_count() == 0) {
    return Status::OK();
  }
  // Create the archive directory (and, for a sharded store's per-shard
  // subdirectory, its parent) on first use; a real failure surfaces from
  // the segment write below.
  const size_t slash = wal_archive_dir_.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    ::mkdir(wal_archive_dir_.substr(0, slash).c_str(), 0755);
  }
  ::mkdir(wal_archive_dir_.c_str(), 0755);
  std::vector<Wal::LogRecord> records;
  BMEH_RETURN_NOT_OK(wal_->ReadRecords(&records));
  return Wal::WriteSegmentFile(wal_archive_dir_, records,
                               wal_->base_lsn());
}

Result<BmehStore::BackupSnapshot> BmehStore::BeginBackup() {
  std::unique_lock<std::shared_mutex> lock(plane_.mutex());
  BMEH_RETURN_NOT_OK(poisoned_);
  if (degraded()) {
    return Status::DataLoss(
        "refusing to back up a store degraded by corruption");
  }
  BackupSnapshot snap;
  snap.image_head = image_head_;
  snap.generation = generation_;
  snap.base_lsn = wal_->base_lsn();
  snap.watermark = wal_->next_lsn() - 1;
  snap.image_pages = image_pages_;
  BMEH_RETURN_NOT_OK(wal_->ReadRecords(&snap.wal_records));
  ++backup_pins_;
  return snap;
}

Status BmehStore::ReadPageForBackup(PageId id, std::vector<uint8_t>* out) {
  std::shared_lock<std::shared_mutex> lock(plane_.mutex());
  out->resize(store_->page_size());
  return store_->Read(id, *out);
}

void BmehStore::EndBackup() {
  std::unique_lock<std::shared_mutex> lock(plane_.mutex());
  if (backup_pins_ == 0) return;
  if (--backup_pins_ > 0) return;
  // Last pin released: perform the frees checkpoints deferred.  A failed
  // free only leaks pages (the next recovery Open reclaims them from
  // reachability), so log and keep going.
  for (PageId id : deferred_page_frees_) {
    Status st = store_->Free(id);
    if (!st.ok()) {
      BMEH_LOG(Warning) << "deferred page free leaked a page: " << st;
    }
  }
  deferred_page_frees_.clear();
}

}  // namespace bmeh
