// ShardedStore: N independent BMEH trees behind one facade.
//
// Records are routed by the top log2(N) bits of the order-preserving ψ
// pseudo-key — the bit-interleaved (z-order) digit string the paper's
// directory addresses with, taken round-robin across dimensions,
// most-significant bit first (PsiPrefix, src/encoding/psi.h).  Each of
// the N shards is a complete StorageUnit (tree + WAL + writer queue +
// page device + quota) over its own file, so:
//
//  * writers on distinct shards never touch shared state (no global
//    lock, no shared WAL tail, independently overlapping fsyncs);
//  * recovery replays the shard WALs in parallel, one thread per shard;
//  * checkpoints are per shard — a small fsync blast radius, and a
//    crashed shard recovers on its own while its siblings' committed
//    data is untouched;
//  * because the routing prefix is the most significant ψ digits, every
//    shard owns one contiguous ψ range and shard i's range precedes
//    shard i+1's, so Range() sorts each shard's matches by ψ and
//    appends them in shard order to get global ψ order.
//
// On disk a sharded store is a directory:
//
//     <dir>/MANIFEST          routing + shape, CRC-sealed (see
//                             ShardManifest)
//     <dir>/shard-0000.bmeh   one BmehStore file per shard
//     <dir>/shard-0001.bmeh   ...
//
// A single store file is a store too: Open() and Inspect() treat it as a
// one-shard store with no manifest, whose one unit runs on the caller's
// StoreOptions unchanged (no "shard<k>_" label, shard index or archive
// subdirectory), so its metrics, op-log events and WAL archive are
// exactly those of a BmehStore on the file.  The tools open every store
// this way; whether a path is a file or a directory is decided here.
//
// Every shard file carries its own flock, so a second open of the same
// directory fails exactly like a double open of a single-file store.
//
// WriteBatch semantics: a batch is split into per-shard sub-batches that
// commit independently (each sub-batch keeps the single-store
// all-or-nothing crash atomicity).  Per-record statuses are mapped back
// to the caller's original order; the batch-level status is the first
// non-OK per-record status in that order.  A malformed key fails the
// whole batch up front with nothing written anywhere.  With one shard a
// ShardedStore is behaviorally identical to a BmehStore.

#ifndef BMEH_STORE_SHARDED_STORE_H_
#define BMEH_STORE_SHARDED_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/backoff.h"
#include "src/encoding/psi.h"
#include "src/store/backup.h"
#include "src/store/storage_unit.h"

namespace bmeh {

/// \brief Shard routing and result order, both the ψ digit order of
/// src/encoding/psi.h.
struct ShardRouter {
  /// \brief The shard owning `key`: the first `shard_bits` ψ digits.
  static int ShardOf(const PseudoKey& key, const KeySchema& schema,
                     int shard_bits) {
    return static_cast<int>(PsiPrefix(key, schema, shard_bits));
  }

  /// \brief The order Range() returns: the whole ψ digit string.
  static bool PsiLess(const PseudoKey& a, const PseudoKey& b,
                      const KeySchema& schema) {
    return bmeh::PsiLess(a, b, schema);
  }
};

/// \brief The durable routing contract of a sharded store directory.
/// Text file `<dir>/MANIFEST`, CRC-sealed; every field must match the
/// opener's expectations (schema) or is authoritative (shards,
/// page_size).
struct ShardManifest {
  int shards = 1;      ///< Power of two.
  int shard_bits = 0;  ///< log2(shards), the routing prefix length.
  int page_size = kDefaultPageSize;
  KeySchema schema{2, 31};
};

/// \brief How Open() treats shards that fail to open or recover.
enum class OpenPolicy {
  /// Any shard failure fails the whole open (the conservative default:
  /// a caller that never checks per-shard health sees all-or-nothing).
  kStrict,
  /// Bring up every healthy shard; a failed shard becomes a down unit
  /// whose keys answer kUnavailable until RepairShard() /
  /// TryReopenDownShards() brings it back.  The open only fails when no
  /// shard at all comes up.
  kPartial,
};

/// \brief Configuration for opening / creating a sharded store.
struct ShardedStoreOptions {
  /// Shard count.  Creating: a power of two >= 1 makes a directory, 0 (at
  /// a missing path) a store file.  Opening an existing directory: 0 (the
  /// default) adopts the manifest's count, any other value must match
  /// the manifest.  Opening a store file: 0 or 1.
  int shards = 0;
  /// Per-shard store options (schema, page size, WAL sync policy, quota
  /// — the quota applies per shard).  A metrics registry here is shared
  /// by every shard: operation counters and latency histograms aggregate
  /// across shards automatically, while sampled per-shard state is
  /// published under a "shard<k>_" label.
  StoreOptions store;
  /// Whether a shard that fails to open takes the whole store with it.
  OpenPolicy open_policy = OpenPolicy::kStrict;
  /// Facade-level retry for per-shard transient failures (quota
  /// backpressure, a shard mid-repair).  Every routed operation retries
  /// under this policy with decorrelated jitter before surfacing the
  /// transient status; max_attempts <= 1 disables retry.
  BackoffPolicy retry;
};

/// \brief Durable state of a store (Inspect).
struct ShardedStoreInfo {
  /// A store file: one shard, no manifest (`shard[0]` is its StoreInfo).
  bool single_file = false;
  int shards = 0;
  int shard_bits = 0;
  int page_size = 0;
  uint64_t records = 0;      ///< Sum over healthy shards, replayed WALs
                             ///< included.
  uint64_t wal_records = 0;  ///< Sum over healthy shards.
  uint64_t page_count = 0;   ///< Sum over healthy shards.
  std::vector<StoreInfo> shard;
  /// Per-shard inspect outcome (OK, or why the shard is unreadable); a
  /// non-OK slot leaves a default StoreInfo in `shard`.
  std::vector<Status> shard_status;
  /// Shards whose files could not be inspected.
  int down_shards = 0;
};

/// \brief Outcome of ShardedStore::Backup across shards.  A backup set
/// with failed shards is still sealed (the super-manifest records the
/// failure honestly); restoring it yields a store that opens degraded
/// under OpenPolicy::kPartial instead of not at all.
struct ShardBackupInfo {
  int shards = 0;
  int failed = 0;          ///< Shards whose backup failed (recorded, not hidden).
  uint64_t bytes = 0;      ///< Payload bytes across all shard sets.
  std::vector<Status> shard_status;
  std::vector<uint64_t> watermark;  ///< Per-shard LSN watermark (0 on failure).
};

/// \brief Outcome of ShardedStore::Restore across shards.
struct ShardRestoreInfo {
  int shards = 0;
  int failed = 0;  ///< Shards not restored (absent from the set, or refused).
  std::vector<Status> shard_status;
  std::vector<uint64_t> replay_lsn;  ///< Per-shard LSN reached (0 on failure).
};

/// \brief Parsed sharded-backup super-manifest (see
/// ShardedStore::Backup).
struct ShardBackupSetInfo {
  int shards = 0;
  int shard_bits = 0;
  int page_size = 0;
  KeySchema schema{2, 31};
  struct ShardEntry {
    bool ok = false;
    uint64_t watermark = 0;
    std::string subdir;  ///< Per-shard backup set, relative to the set dir.
    std::string error;   ///< Why the shard's backup failed (ok == false).
  };
  std::vector<ShardEntry> shard;
};

/// \brief N independent BMEH stores routed by the top ψ bits.
class ShardedStore {
 public:
  ~ShardedStore();
  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  /// \brief Opens the store at `path`: a sharded directory, or a store
  /// file as a one-shard store.  A missing path is created — a directory
  /// with manifest and shard files for options.shards >= 1, a store file
  /// for 0.  Reopening after a crash recovers every shard (WAL replay +
  /// free-list rebuild) in parallel, one thread per shard.
  static Result<std::unique_ptr<ShardedStore>> Open(
      const std::string& path, const ShardedStoreOptions& options);

  /// \brief Opens over injected page devices, one per shard (the count
  /// must be a power of two).  No directory, manifest or free-list
  /// recovery — the seam perfbench and the shard crash matrix drive.
  static Result<std::unique_ptr<ShardedStore>> Open(
      std::vector<std::unique_ptr<PageStore>> devices,
      const ShardedStoreOptions& options);

  /// \brief Reads the durable state of every shard without mutating it.
  /// A store file comes back as one shard (an unreadable one is an
  /// error); an unreadable shard of a directory is recorded as down.
  static Result<ShardedStoreInfo> Inspect(const std::string& path);

  /// \brief The store files behind `path`, in shard order — what the
  /// offline tools (scrub, fsck) work on.  A sharded directory lists its
  /// manifest's shard files, and `*manifest` (optional) receives that
  /// manifest; any other path is a store file, its own one shard
  /// (`*manifest` = nullopt), and whoever opens it reports it if it is
  /// none.
  static Result<std::vector<std::string>> ShardFiles(
      const std::string& path,
      std::optional<ShardManifest>* manifest = nullptr);

  /// \brief True when `path` is a sharded store directory (manifest
  /// present and well-formed).
  static bool IsShardedDir(const std::string& path);

  /// \brief Reads / writes `<dir>/MANIFEST` — public so the offline
  /// tooling (fsck --repair into a fresh sharded directory) shares the
  /// format with Open().  WriteManifest creates `dir` if needed.
  static Result<ShardManifest> ReadManifest(const std::string& dir);
  static Status WriteManifest(const std::string& dir,
                              const ShardManifest& manifest);

  /// \brief The shard file path for `shard_index` under `dir`.
  static std::string ShardPath(const std::string& dir, int shard_index);

  /// \brief Single-record operations: validate, route by ψ prefix,
  /// delegate to the owning unit.  Same contracts as BmehStore, plus the
  /// failure-domain contract: a key routed to a down shard answers
  /// kUnavailable (after the retry policy is exhausted), and transient
  /// per-shard failures are retried with jittered backoff first.
  Status Put(const PseudoKey& key, uint64_t payload);
  Result<uint64_t> Get(const PseudoKey& key);
  Status Delete(const PseudoKey& key);

  /// \brief Applies `batch` split into per-shard sub-batches, each
  /// committed independently with single-store batch atomicity.
  /// `per_record` (optional) receives each member's status in the
  /// caller's original order; the returned status is the first non-OK
  /// of those.  There is no cross-shard atomicity: a hard failure on
  /// one shard does not undo sibling sub-batches — the per-record
  /// statuses say exactly which members are durable.
  Status Write(const WriteBatch& batch,
               std::vector<Status>* per_record = nullptr);

  Status InsertBatch(std::span<const Record> recs);
  Status DeleteBatch(std::span<const PseudoKey> keys);

  /// \brief Partial-range query over all shards.  The result is in
  /// global ψ (z-)order: each shard's matches are sorted by ψ and the
  /// shards appended in shard order.  The shard index is the ψ prefix,
  /// so every key of shard i precedes every key of shard i+1.  Shards
  /// with no matches contribute nothing.  Partiality is never silent:
  /// when a shard is unavailable the surviving matches are still
  /// returned in `out`, `*partial` (if given) is set, and the status is
  /// kUnavailable; DataLoss from a degraded shard is reported the same
  /// way after all shards were collected.  Unavailable outranks DataLoss
  /// when both apply.
  Status Range(const RangePredicate& pred, std::vector<Record>* out,
               bool* partial = nullptr);

  /// \brief Checkpoints every shard (each an independent atomic
  /// superblock flip).  All healthy shards are attempted; the first
  /// failure (kUnavailable for a down shard) is returned.
  Status Checkpoint();

  /// \brief Online backup of every shard into one set directory:
  ///
  ///     <out_dir>/SHARDBACKUP    CRC-sealed super-manifest (routing
  ///                              shape + per-shard outcome/watermark)
  ///     <out_dir>/shard-0000/    one BackupStore set per shard
  ///
  /// Shards are backed up in parallel while writers keep committing
  /// (each shard's BackupStore::Run pins its published checkpoint).  A
  /// down or failing shard does not abort the run: its failure is
  /// recorded in the super-manifest and in the returned ShardBackupInfo
  /// (`failed` > 0 — the CLI maps this to a partial exit code); only
  /// when every shard fails is the whole backup refused.  With
  /// `options.base_set` naming a previous sharded set, each shard takes
  /// an incremental against its counterpart (options.wal_archive_dir is
  /// the shared archive root; the per-shard subdirectories are derived).
  Result<ShardBackupInfo> Backup(const std::string& out_dir,
                                 const BackupOptions& options = {});

  /// \brief Restores a sharded backup set into a fresh store directory
  /// at `dest_dir` (manifest + shard files), shard by shard in parallel.
  /// `options.to_lsn` is a per-shard target: each shard replays to
  /// min(to_lsn, its own watermark) — LSN domains are independent, so a
  /// global cut is expressed as a per-shard clamp (0 = every shard to
  /// its watermark).  A shard recorded as failed in the super-manifest
  /// — or whose archive is refused — is skipped: its file is absent and
  /// a subsequent Open with OpenPolicy::kPartial serves the restored
  /// shards while the missing one answers kUnavailable.  Only when no
  /// shard restores is the whole restore refused.
  static Result<ShardRestoreInfo> Restore(const std::string& set_dir,
                                          const std::string& dest_dir,
                                          const RestoreOptions& options = {});

  /// \brief Reads and CRC-verifies a sharded set's super-manifest.
  static Result<ShardBackupSetInfo> ReadBackupManifest(
      const std::string& set_dir);

  /// \brief True when `path` holds a sharded backup set (super-manifest
  /// present and well-formed).
  static bool IsShardedBackupDir(const std::string& path);

  /// \brief Runs the scrub → salvage → reopen repair ladder on shard `i`
  /// and brings it back into service on success.  Only that shard's
  /// traffic quiesces (its unit's exclusive lock); siblings keep serving
  /// throughout, so a store opened kPartial regains full service without
  /// reopening.  Works on healthy shards too (offline-style fsck of one
  /// shard under a live store).
  Status RepairShard(int i, ShardRepairReport* report = nullptr);

  /// \brief Optimistic plain reopen of every down shard (no scrub or
  /// salvage — the cheap path for shards that went down transiently).
  /// Returns how many came back up; shards that still fail stay down
  /// with their reason updated.
  int TryReopenDownShards();

  /// \brief Takes shard `i` down as a crash would (close without
  /// checkpoint, WAL preserved), draining its in-flight operations
  /// first.  Traffic to siblings is unaffected; keys routed here answer
  /// kUnavailable until repair/reopen.  The chaos harness's crash lever,
  /// and an operator's quarantine lever.
  Status BringDownShard(int i);

  /// \brief Per-shard health (lock-free snapshot).
  bool shard_healthy(int i) const { return units_[i]->healthy(); }
  /// \brief Why shard `i` is down (OK when healthy).
  Status shard_down_reason(int i) const { return units_[i]->down_reason(); }
  /// \brief How many shards are currently down.
  int down_shards() const;

  int shards() const { return static_cast<int>(units_.size()); }
  /// \brief True when this is a store file opened as a one-shard store
  /// (its unit carries no shard identity).
  bool single_file() const {
    return units_.size() == 1 && units_[0]->shard_index() < 0;
  }
  int shard_bits() const { return shard_bits_; }
  const KeySchema& schema() const { return schema_; }

  /// \brief The shard `key` routes to.
  int ShardOf(const PseudoKey& key) const {
    return ShardRouter::ShardOf(key, schema_, shard_bits_);
  }

  /// \brief Per-shard introspection (test assertions, tooling).
  /// nullptr while shard `i` is down; racy against concurrent
  /// BringDownShard/RepairShard — owner-synchronized callers only.
  BmehStore* shard(int i) { return units_[i]->store(); }
  const StorageUnit& unit(int i) const { return *units_[i]; }

  /// \brief Records across all healthy shards (owner-synchronized, like
  /// the per-store accessors it sums).
  uint64_t records() const;
  /// \brief WAL records across all healthy shards.
  uint64_t wal_records() const;
  /// \brief Mutations since the last checkpoint, across healthy shards.
  uint64_t dirty_ops() const;
  /// \brief True when any shard is down or its open had to work around
  /// corruption.
  bool degraded() const;

  /// \brief Testing hook: poisons every shard so teardown performs no
  /// final checkpoint (the per-shard files keep their WALs).
  void SimulateCrashForTesting();

  /// \brief Testing hook: process death — poisons every shard, so no
  /// final checkpoint runs, and closes the file descriptors of
  /// file-backed shards, so only completed page writes survive.
  void SimulateProcessCrashForTesting();

  /// \brief Testing hook: disables fsync on every file-backed shard.
  void DisableFsyncForTesting();

 private:
  ShardedStore(std::vector<std::unique_ptr<StorageUnit>> units,
               int shard_bits, const ShardedStoreOptions& options);

  /// Where one unit's pages live (a file, or an injected device) and the
  /// options it opens with.
  struct UnitSource;

  /// Opens a unit per source (files concurrently, one thread per shard)
  /// and builds the facade.  kStrict: on any failure the already-opened
  /// units are poisoned before destruction so a failed open never
  /// mutates shard files.  kPartial: failed shards become down
  /// placeholder units and the open succeeds as long as at least one
  /// shard came up.
  static Result<std::unique_ptr<ShardedStore>> OpenUnits(
      std::vector<UnitSource> sources, const ShardedStoreOptions& options);

  /// Runs `op` against shard `s` under the facade retry policy: borrow
  /// the unit (kUnavailable when down/repairing), invoke, and on a
  /// transient status sleep a jittered backoff delay and try again until
  /// the policy's attempt/budget bound.  Wait time is charged to the
  /// store_retry_backoff_ns histogram.
  Status RunWithRetry(int s, const std::function<Status(BmehStore*)>& op);

  /// Deterministic per-call seed for the backoff jitter (SplitMix64 of a
  /// global sequence number and the shard index).
  uint64_t NextRetrySeed(int s);

  std::vector<std::unique_ptr<StorageUnit>> units_;
  int shard_bits_ = 0;
  KeySchema schema_;
  BackoffPolicy retry_;
  obs::Tracer* tracer_ = nullptr;
  /// Facade-level wide events: "shard_retry" (an op needed the backoff
  /// loop) and "shard_repair" / "shard_down" lifecycle markers.
  obs::OpLog* oplog_ = nullptr;
  /// Repair runs register a transient per-repair heartbeat here so a
  /// repair stuck in scrub/salvage raises a stall.
  obs::Watchdog* watchdog_ = nullptr;
  uint64_t watchdog_deadline_ms_ = 5000;
  /// Aggregate sampled source (tree records / WAL depth summed across
  /// shards under the unlabeled names a single store would publish).
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_source_ = 0;
  /// Retry/availability instrumentation (null without a registry).
  obs::Counter* retries_total_ = nullptr;
  obs::Counter* unavailable_total_ = nullptr;
  obs::Counter* repairs_total_ = nullptr;
  obs::Histogram* backoff_ns_ = nullptr;
  std::atomic<uint64_t> retry_seq_{0};
};

}  // namespace bmeh

#endif  // BMEH_STORE_SHARDED_STORE_H_
