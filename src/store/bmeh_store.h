// BmehStore: an embedded, durable record store built on the BMEH-tree and
// the POSIX page-store substrate — what a downstream user adopts when they
// want the paper's structure as a small database file rather than an
// in-memory index.
//
// Durability model: checkpoints + write-ahead log.
//
//  * Checkpoints.  The whole tree is serialized into a fresh page chain;
//    a single superblock page (a fixed page id right after the store
//    header) is then rewritten to point at the new chain, and the old
//    chain's pages are returned to the free list.  The superblock write
//    is one page-sized pwrite, so a crash leaves the store at either the
//    old or the new checkpoint, never in between.
//
//  * Write-ahead log.  Every mutation between checkpoints is appended to
//    a page-chain log (src/store/wal.h) *before* it is applied to the
//    in-memory tree, with a per-record CRC.  The superblock carries the
//    log's head page, so the same atomic flip that publishes a checkpoint
//    also resets the log.  Open() replays the log on top of the last
//    checkpoint, restoring the tree to the last logged mutation; a torn
//    tail (half-written record after a crash) is detected by CRC and
//    discarded.  Fsyncs are batched via StoreOptions::wal_sync_every:
//    with the default of 1 every acknowledged mutation is durable; with
//    larger values (or 0) up to that many acknowledged mutations may be
//    lost on a crash — but recovery always yields a clean *prefix* of
//    the acknowledged history, never a torn or reordered state.
//
//  * One commit path.  Put, Delete and Write all enqueue their records
//    on one writer queue.  The writer at its head leads: it takes every
//    queued writer's records, appends them as one WAL batch chain
//    (begin/commit framed), publishes or fsyncs once, applies them to the
//    tree and wakes each writer with its own statuses.  Writers that
//    arrive while a commit is in flight ride the next one, so concurrent
//    writers share fsyncs without a thread, a window or a queue bound; a
//    lone writer commits a group of one, which is a plain single-record
//    append.  Recovery sees a whole group or none of it.  See DESIGN.md
//    §7.
//
//  * Lock-free reads.  Get and Range descend the tree's published
//    structure validating per-node version words (even = stable, odd =
//    write in progress) and retry a conflict with bounded backoff, so
//    they never wait out a writer's WAL fsync.  Persistent churn or an
//    unpinned epoch guard falls back to the shared lock (ReadPlane).
//    Replaced nodes are reclaimed through the process-wide epoch manager,
//    so readers never touch freed memory.  Degraded stores read the same
//    way: a quarantined bucket answers DataLoss.  See DESIGN.md §13.
//
// Recovery invariants (exercised exhaustively by tests/crash_matrix_test):
//  1. Open() after any crash yields a tree that Validate()s and whose
//     contents equal the checkpoint image plus a prefix of the logged
//     mutations.
//  2. The prefix includes every mutation covered by a completed sync.
//  3. The free list is rebuilt from reachability (superblock + image
//     chain + log chain), so pages leaked by a crashed checkpoint or a
//     torn log tail are reclaimed on the next Open() rather than lost.

#ifndef BMEH_STORE_BMEH_STORE_H_
#define BMEH_STORE_BMEH_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/bmeh_tree.h"
#include "src/obs/oplog.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/pagestore/page_store.h"
#include "src/store/read_plane.h"
#include "src/store/wal.h"

namespace bmeh {

/// \brief Configuration for opening / creating a store file.
struct StoreOptions {
  /// Key shape; must match the file's when opening an existing store.
  KeySchema schema{2, 31};
  /// Tree parameters, used only when creating a fresh store.
  TreeOptions tree = TreeOptions::Make(2, 16);
  /// Page size of a newly created file.
  int page_size = kDefaultPageSize;
  /// Checkpoint automatically after this many mutations (0 = manual).
  uint64_t checkpoint_every = 0;
  /// Fsync the WAL after this many appended records.  1 (the default)
  /// makes every acknowledged mutation durable; larger values trade a
  /// bounded window of recent mutations for fewer fsyncs; 0 syncs only
  /// at checkpoints.
  uint64_t wal_sync_every = 1;
  /// Open a store whose pages fail checksum verification in degraded mode
  /// (quarantined buckets, DataLoss answers, checkpoints refused — see
  /// RecoveryReport) instead of failing the open.  With false, any
  /// verified corruption makes Open() fail with DataLoss.
  bool tolerate_corruption = true;
  /// Cap the underlying page store at this many total pages, header
  /// included (0 = unlimited).  Once the cap is reached, mutations that
  /// need fresh pages fail with Status::ResourceExhausted — cleanly:
  /// the store stays consistent and serviceable, the failed operation is
  /// fully rolled back, and the same call succeeds after the cap is
  /// raised (reopen with a larger value) or space is freed.  Models a
  /// disk-quota deployment and makes the real ENOSPC path testable.
  uint64_t max_pages = 0;
  /// Observability (optional; both must outlive the store).  With a
  /// registry attached the store charges `store_*_total` counters and
  /// latency histograms around every public operation, wires the page
  /// device (`pagestore_*`, page I/O latency) and the tree's split
  /// cascade, and registers a sampled source for tree / WAL / logical-I/O
  /// state — including WAL replay counters, which start charging during
  /// Open().  With a tracer attached every operation also records a
  /// scoped span.  Null (the default) costs one branch per charge site.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Prefix for this store's *sampled* metric names (e.g. "shard3_" makes
  /// the source publish shard3_tree_records instead of tree_records).
  /// Required when several stores share one registry: snapshot sources
  /// assign by name, so unlabeled sources would silently overwrite each
  /// other.  Shared Counter / Histogram handles are never prefixed — they
  /// are single objects that aggregate across stores by construction.
  std::string metrics_label;
  /// Wide-event operation log (optional; must outlive the store).  Every
  /// public operation emits one correlated JSON line — trace_id, op,
  /// shard, status, latency, LSN — subject to the log's sampling policy.
  /// Null (the default) costs one branch per op.
  obs::OpLog* oplog = nullptr;
  /// Commit-path stall watchdog (optional; must outlive the store).  Each
  /// commit leader arms a heartbeat named "<metrics_label>commit" around
  /// its WAL append and sync, and the checkpoint path arms
  /// "<metrics_label>checkpoint" around each image write, so a stuck
  /// fsync flips /healthz degraded instead of hanging silently.
  obs::Watchdog* watchdog = nullptr;
  /// Heartbeat deadline for the watchdog registrations above.
  uint64_t watchdog_deadline_ms = 5000;
  /// Shard ordinal stamped on this store's wide events (-1 = unsharded).
  int shard_index = -1;
  /// WAL archiving: when non-empty, every checkpoint first seals the
  /// records it is about to truncate into a CRC-sealed segment file
  /// (`wal-<lo_lsn>.seg`) in this directory, written before the publish
  /// flip so the archive never misses a truncated record.  An archive
  /// write failure fails the checkpoint (the log is kept).  Empty (the
  /// default) disables archiving.
  std::string wal_archive_dir;
};

/// \brief What corruption, if any, the last Open() had to work around.
///
/// A degraded store stays useful for triage and salvage but never lies:
/// queries whose true answer may have been destroyed return DataLoss, and
/// Checkpoint() is refused so the damage cannot be laundered into a
/// clean-looking image (use SalvageStore / `bmeh_cli fsck --repair`).
struct RecoveryReport {
  /// Any verified corruption was encountered while opening.
  bool degraded = false;
  /// The superblock failed verification: both chain heads are gone and
  /// nothing could be recovered (implies image_lost).
  bool superblock_lost = false;
  /// The checkpoint image's directory could not be rebuilt; only
  /// WAL-replayed records are visible and missing keys answer DataLoss.
  bool image_lost = false;
  /// The image chain was cut by a verified-corrupt page (when the
  /// directory still parsed, the cut cost only quarantined buckets).
  bool image_data_loss = false;
  /// WAL replay stopped at a verified-corrupt page: acknowledged
  /// mutations beyond the cut are lost, so missing keys answer DataLoss.
  bool wal_data_loss = false;
  /// Buckets whose records were lost (see BmehTree::quarantined_pages).
  uint64_t quarantined_buckets = 0;
};

/// \brief Summary of a store file's durable state (see BmehStore::Inspect).
struct StoreInfo {
  uint64_t generation = 0;
  PageId image_head = kInvalidPageId;
  PageId wal_head = kInvalidPageId;
  uint64_t wal_records = 0;
  uint64_t wal_pages = 0;
  /// LSN of the first record in the current WAL incarnation (1 for a
  /// store that never checkpointed; see Wal::base_lsn).
  uint64_t wal_base_lsn = 1;
  /// Highest LSN ever assigned to a committed mutation (0 = none yet).
  uint64_t durable_lsn = 0;
  uint64_t records = 0;  ///< Records after WAL replay.
  uint64_t page_count = 0;
  uint64_t live_pages = 0;
  int page_size = 0;
  /// On-disk page format: 1 = legacy unverified, 2 = self-checksumming.
  int format_version = 0;
  /// Pages neither live nor the header — allocatable without growing the
  /// file, so the first thing a quota-constrained deployment reclaims.
  uint64_t free_pages = 0;
  /// High-water allocation mark: the most pages ever simultaneously live
  /// as far as the inspecting handle can tell (at rest, the current live
  /// count) — the smallest max_pages quota that would never refuse.
  uint64_t high_water_pages = 0;
  /// Runtime resource state of the inspecting handle; nonzero only when a
  /// quota was configured or allocations were refused this process.
  uint64_t max_pages = 0;  ///< 0 = unlimited.
  uint64_t reserved_pages = 0;
  uint64_t alloc_failures = 0;
  /// Integrity counters of the inspecting handle's page device (the
  /// PR-2/PR-3 hardening story in one place): read attempts repeated
  /// after transient errors, page-trailer verifications that failed, and
  /// buckets quarantined after verified corruption.
  uint64_t read_retries = 0;
  uint64_t checksum_failures = 0;
  uint64_t pages_quarantined = 0;
};

/// \brief Builder for a set of mutations applied by BmehStore::Write as
/// one durable unit: a single WAL record chain, one lock acquisition, one
/// fsync — and all-or-nothing visibility after a crash.
class WriteBatch {
 public:
  void Put(const PseudoKey& key, uint64_t payload) {
    records_.push_back({Wal::kOpInsert, key, payload});
  }
  void Delete(const PseudoKey& key) {
    records_.push_back({Wal::kOpDelete, key, 0});
  }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }
  const std::vector<Wal::LogRecord>& records() const { return records_; }

 private:
  std::vector<Wal::LogRecord> records_;
};

/// \brief A durable multidimensional record store.
class BmehStore {
 public:
  ~BmehStore();
  BmehStore(const BmehStore&) = delete;
  BmehStore& operator=(const BmehStore&) = delete;

  /// \brief Opens `path`, creating a fresh store when the file does not
  /// exist.  When opening an existing file the persisted schema must
  /// equal options.schema.  Reopening after a crash replays the WAL and
  /// rebuilds the page free list from reachability.
  static Result<std::unique_ptr<BmehStore>> Open(const std::string& path,
                                                 const StoreOptions& options);

  /// \brief Opens a store over an arbitrary PageStore (in-memory, fault
  /// injecting, ...).  A store with no live pages is initialized fresh;
  /// otherwise the superblock is read and the WAL replayed.  Unlike the
  /// path overload this performs no free-list recovery — file-backed
  /// crash recovery should go through Open(path, options).
  static Result<std::unique_ptr<BmehStore>> Open(
      std::unique_ptr<PageStore> store, const StoreOptions& options);

  /// \brief Reads the durable state of a store file without mutating it.
  static Result<StoreInfo> Inspect(const std::string& path);

  /// \brief Inserts a record (AlreadyExists on duplicates).
  Status Put(const PseudoKey& key, uint64_t payload);

  /// \brief Exact-match lookup.
  Result<uint64_t> Get(const PseudoKey& key);

  /// \brief Deletes a record (KeyError when absent).
  Status Delete(const PseudoKey& key);

  /// \brief Applies `batch` as one durable unit: every mutation rides one
  /// commit (with whatever other writers were queued), encoded into a
  /// single WAL batch chain, applied under one lock acquisition, and
  /// covered by one fsync.  Crash atomicity is all-or-nothing: recovery
  /// sees either the whole batch or none of it, never a prefix.
  ///
  /// Outcomes: OK when every member applied cleanly.  A deterministic
  /// logical no-op (duplicate insert, delete of an absent key) does not
  /// void the batch — the batch still commits durably and the first such
  /// status is returned; pass `per_record` for each member's individual
  /// outcome.  ResourceExhausted means nothing was written (rolled back,
  /// retryable).  Any other failure poisons the store; when it is the
  /// auto-checkpoint that failed, the records are durable and
  /// `per_record` still holds their own outcomes.  Put and Delete follow
  /// the same contract for their one record.
  Status Write(const WriteBatch& batch,
               std::vector<Status>* per_record = nullptr);

  /// \brief Batched insert convenience over Write() — same contract.
  Status InsertBatch(std::span<const Record> recs);

  /// \brief Batched delete convenience over Write() — same contract.
  Status DeleteBatch(std::span<const PseudoKey> keys);

  /// \brief Partial-range query.
  Status Range(const RangePredicate& pred, std::vector<Record>* out);

  /// \brief Writes a durable checkpoint (atomic superblock flip), fsyncs
  /// the file, and truncates the WAL.  Any IO or fsync failure is
  /// reported as a non-OK Status; after a failed publish the store
  /// refuses further mutations (the on-disk state is no longer known to
  /// be coherent with memory).
  Status Checkpoint();

  /// \brief Records logged since the last successful checkpoint,
  /// logical no-ops (a duplicate insert, an absent delete) included — the
  /// count recovery replays.  Like wal_records() and generation(),
  /// read it only while no write is in flight.
  uint64_t dirty_ops() const { return dirty_ops_; }

  /// \brief Records currently in the write-ahead log.
  uint64_t wal_records() const { return wal_->record_count(); }

  /// \brief Monotone checkpoint generation (0 for a fresh store).
  uint64_t generation() const { return generation_; }

  /// \brief LSN of the first record in the current WAL incarnation;
  /// everything below it is folded into the checkpoint image.
  uint64_t wal_base_lsn() const { return wal_->base_lsn(); }

  /// \brief Highest LSN assigned to a committed mutation (0 for a store
  /// that never logged one).  Owner-synchronized like dirty_ops().
  uint64_t durable_lsn() const { return wal_->next_lsn() - 1; }

  /// \brief Consistent view of the store captured for an online backup:
  /// the published checkpoint chain plus every WAL record, with LSNs.
  /// Taken under the operation lock in one brief critical section; the
  /// image pages are then copied page-at-a-time via ReadPageForBackup()
  /// while writers keep committing.
  struct BackupSnapshot {
    PageId image_head = kInvalidPageId;
    uint64_t generation = 0;
    /// First LSN not covered by the image (== wal_base_lsn at capture).
    uint64_t base_lsn = 1;
    /// Highest LSN in the snapshot (base_lsn - 1 when the WAL is empty).
    uint64_t watermark = 0;
    std::vector<PageId> image_pages;
    std::vector<Wal::LogRecord> wal_records;
  };

  /// \brief Starts an online backup: captures a BackupSnapshot and pins
  /// the captured chains — checkpoints that would free the snapshot's
  /// image or WAL pages defer those frees until EndBackup().  Every
  /// successful BeginBackup() must be paired with EndBackup().  Refused
  /// on a degraded or poisoned store (the copy could not be trusted).
  Result<BackupSnapshot> BeginBackup();

  /// \brief Copies one page of a pinned snapshot under a shared lock, so
  /// concurrent writers are paused only per page, not per backup.
  Status ReadPageForBackup(PageId id, std::vector<uint8_t>* out);

  /// \brief Releases the pin taken by BeginBackup() and performs any
  /// page frees a checkpoint deferred while the backup ran.
  void EndBackup();

  /// \brief What corruption the open had to work around (all-false for a
  /// healthy store).
  const RecoveryReport& recovery_report() const { return report_; }

  /// \brief True when the open encountered verified corruption; see
  /// RecoveryReport for degraded-mode semantics.
  bool degraded() const { return report_.degraded; }

  /// \brief The underlying in-memory tree (read-mostly introspection).
  const BmehTree& tree() const { return *tree_; }
  BmehTree* mutable_tree() { return tree_.get(); }

  /// \brief True when Get/Range run the lock-free path, which Open()
  /// turns on for every store it returns (see the file comment).
  bool optimistic_reads_enabled() const { return plane_.optimistic(); }

  /// \brief The underlying page device (introspection / test assertions).
  const PageStore& page_store() const { return *store_; }
  PageStore* mutable_page_store() { return store_.get(); }

  /// \brief One consistent sample of the store's sampled-gauge state,
  /// taken under the operation lock (shared) so it is safe to call
  /// concurrently with writers.
  struct SampledState {
    uint64_t records = 0;
    int height = 0;
    uint64_t wal_records = 0;
    uint64_t dirty_ops = 0;
    uint64_t generation = 0;
    uint64_t wal_base_lsn = 1;
    uint64_t durable_lsn = 0;
  };
  SampledState SampleStateForMetrics() const;

  const KeySchema& schema() const { return tree_->schema(); }

  /// \brief Testing hook: skip publishing the next checkpoint's
  /// superblock, simulating a crash after the image write.
  void SimulateCrashBeforePublishForTesting() {
    crash_before_publish_ = true;
  }

  /// \brief Testing hook: poisons the store so the destructor performs no
  /// final checkpoint — the on-disk state stays exactly as the last
  /// acknowledged operation left it, as after a process crash.
  void SimulateCrashForTesting() {
    poisoned_ = Status::IoError("simulated crash");
  }

  /// \brief Testing hook: spins for `ns` inside every subsequent public
  /// operation (after the real work, inside its latency measurement) so
  /// the oplog's slow-op override can be exercised deterministically.
  void InjectOpDelayForTesting(uint64_t ns) {
    inject_op_delay_ns_.store(ns, std::memory_order_relaxed);
  }

  /// \brief Testing hook: writers waiting in the commit queue, the
  /// leader included.
  size_t QueuedWritersForTesting();

 private:
  BmehStore(std::unique_ptr<PageStore> store, std::unique_ptr<BmehTree> tree,
            PageId image_head, uint64_t generation,
            const StoreOptions& options);

  /// Loads superblock + tree + WAL from an already-open device.  Factored
  /// so the path and PageStore overloads share one recovery path.
  static Result<std::unique_ptr<BmehStore>> OpenExisting(
      std::unique_ptr<PageStore> store, const StoreOptions& options);
  static Result<std::unique_ptr<BmehStore>> InitFresh(
      std::unique_ptr<PageStore> store, const StoreOptions& options);

  Status ReadSuperblock(PageId* head, uint64_t* generation, PageId* wal_head,
                        uint64_t* wal_base_lsn);
  Status WriteSuperblock(PageId head, uint64_t generation, PageId wal_head,
                         uint64_t wal_base_lsn);
  /// Seals the WAL records a checkpoint is about to truncate into an
  /// archive segment file (no-op when archiving is off or the log is
  /// empty).  Failure fails the checkpoint before anything is truncated.
  Status ArchiveWalLocked();
  /// Wires StoreOptions::metrics / tracer through every layer (no-op when
  /// both are null).  Called from the constructor so WAL replay during
  /// Open() is already counted.
  void AttachObservability(const StoreOptions& options);
  /// One caller waiting in the writer queue (defined in the .cc).
  struct Writer;
  /// Queues `w` and returns once its records are committed — by an
  /// earlier leader, or by `w` itself leading every writer queued behind
  /// it.  Fills w->status, w->lsn and *w->per_record.
  void Commit(Writer* w);
  /// The leader's commit of the queued writers `first` through `last`.
  /// Caller holds the operation lock exclusively.
  void CommitGroupLocked(Writer* first, Writer* last);
  /// Publishes / syncs whatever the WAL just appended (superblock flip
  /// for a fresh log head, MaybeSync otherwise).  Poisons on failure.
  Status PublishAppended();
  /// The one commit: one WAL append, one publish or fsync, the tree
  /// apply, then the auto-checkpoint.  Sets outcomes[i] to record i's own
  /// outcome and returns the status every member shares: OK, the failure
  /// that voided the commit (every outcome then holds it too), or a failed
  /// auto-checkpoint's error.  Caller holds the operation lock exclusively.
  Status ApplyBatchLocked(std::span<const Wal::LogRecord> recs,
                          std::span<Status> outcomes);
  Status CheckpointLocked();
  /// CheckpointLocked's body, run with the checkpoint heartbeat armed and
  /// the telemetry scope open.
  Status CheckpointArmedLocked();
  Status MaybeAutoCheckpointLocked();
  /// Operation lock, write-preferring gate and optimistic read loop.
  /// It makes writers, checkpoints, backups and metrics sampling safe
  /// against each other: the commit leader and checkpoints hold it
  /// exclusively through plane_.LockExclusive(), locked readers and the
  /// sampled sources take it shared.  Optimistic readers never touch it.
  ReadPlane plane_;
  std::unique_ptr<PageStore> store_;
  std::unique_ptr<BmehTree> tree_;
  std::unique_ptr<Wal> wal_;
  /// Writer queue, FIFO from head to tail; the head is the leader.
  std::mutex queue_mu_;
  Writer* queue_head_ = nullptr;
  Writer* queue_tail_ = nullptr;
  /// Leader scratch for a group's records and outcomes, kept between
  /// commits so a steady write stream allocates nothing here.  Touched
  /// only under the exclusive lock.
  std::vector<Wal::LogRecord> group_recs_;
  std::vector<Status> group_outcomes_;
  PageId super_page_ = kInvalidPageId;
  PageId image_head_ = kInvalidPageId;
  /// WAL head the on-disk superblock currently points at.
  PageId published_wal_head_ = kInvalidPageId;
  uint64_t generation_ = 0;
  uint64_t checkpoint_every_ = 0;
  uint64_t dirty_ops_ = 0;
  /// WAL archiving directory ("" = archiving off).
  std::string wal_archive_dir_;
  /// Outstanding BeginBackup() pins.  While nonzero, checkpoints defer
  /// the frees below so pinned snapshot pages cannot be recycled under a
  /// concurrent page copy.
  uint64_t backup_pins_ = 0;
  std::vector<PageId> deferred_image_frees_;
  std::vector<PageId> deferred_page_frees_;
  RecoveryReport report_;
  bool crash_before_publish_ = false;
  /// Non-OK once a durability write failed; mutations are refused so the
  /// divergence between memory and disk cannot widen silently.
  Status poisoned_;
  /// Observability: cached metric handles (null when no registry was
  /// attached, making every charge site a single branch) plus the sampled
  /// source registered for tree / WAL / logical-I/O state.  The sampled
  /// state is owner-synchronized: snapshotting concurrently with
  /// mutations requires external locking (ConcurrentIndex-style), same as
  /// every other BmehStore call.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::OpLog* oplog_ = nullptr;
  obs::Watchdog* watchdog_ = nullptr;
  /// Commit-path heartbeats, armed only while a leader appends and syncs
  /// or a checkpoint runs.
  obs::Watchdog::Heartbeat* commit_hb_ = nullptr;
  obs::Watchdog::Heartbeat* checkpoint_hb_ = nullptr;
  int shard_index_ = -1;
  uint64_t watchdog_deadline_ms_ = 5000;
  std::atomic<uint64_t> inject_op_delay_ns_{0};
  uint64_t metrics_source_ = 0;
  obs::Counter* writes_total_ = nullptr;
  obs::Counter* puts_total_ = nullptr;
  obs::Counter* gets_total_ = nullptr;
  obs::Counter* deletes_total_ = nullptr;
  obs::Counter* ranges_total_ = nullptr;
  obs::Counter* checkpoints_total_ = nullptr;
  obs::Counter* wal_appends_total_ = nullptr;
  obs::Counter* wal_replayed_total_ = nullptr;
  obs::Counter* batch_writes_total_ = nullptr;
  obs::Histogram* batch_records_ = nullptr;
  obs::Histogram* insert_latency_ = nullptr;
  obs::Histogram* search_latency_ = nullptr;
  obs::Histogram* delete_latency_ = nullptr;
  obs::Histogram* range_latency_ = nullptr;
  obs::Histogram* checkpoint_latency_ = nullptr;
  obs::Histogram* wal_append_latency_ = nullptr;
  obs::Counter* read_retries_total_ = nullptr;
  obs::Counter* read_fallbacks_total_ = nullptr;
  obs::Histogram* search_retried_latency_ = nullptr;
  obs::Histogram* range_retried_latency_ = nullptr;
};

namespace internal {

/// \brief Reads and CRC-verifies a BmehStore superblock page — shared
/// with the offline tooling (scrub/fsck) so the layout stays in one
/// place.  Statuses: OK, Corruption (not a superblock), or whatever the
/// page read returned (e.g. DataLoss on a corrupt v2 page).  Both the
/// v2 ("BMS2") and the LSN-aware v3 ("BMS3") layouts are accepted;
/// `wal_base_lsn` (optional) reports 1 for a v2 superblock.
Status ReadStoreSuperblock(PageStore* store, PageId page, PageId* image_head,
                           uint64_t* generation, PageId* wal_head,
                           uint64_t* wal_base_lsn = nullptr);

/// \brief Writes a v3 superblock — used by RestoreStore to stitch a
/// rebuilt store file together before its first open.
Status WriteStoreSuperblock(PageStore* store, PageId page, PageId image_head,
                            uint64_t generation, PageId wal_head,
                            uint64_t wal_base_lsn);

}  // namespace internal

}  // namespace bmeh

#endif  // BMEH_STORE_BMEH_STORE_H_
