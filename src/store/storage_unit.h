// StorageUnit: one self-contained durability domain — a BMEH tree plus
// its own write-ahead log and writer queue, page device and quota,
// wrapped with a shard identity (index, file path, metrics label).
//
// This is the per-tree extraction the sharded store is built from: a
// ShardedStore owns N StorageUnits and routes records between them, and
// every durability property (crash recovery, checkpoint atomicity,
// resource backpressure) holds per unit because each unit is a complete
// BmehStore over its own file.  A unit never shares mutable state with
// its siblings, so writers on distinct units cannot contend — the whole
// point of sharding.
//
// A unit is also a *failure domain*: it can be down (its store failed to
// open, crashed, or was quarantined) while its siblings keep serving.
// Callers reach the store only through Acquire(), which hands out a Ref
// holding a shared lock for the duration of one operation; repair and
// reopen take the lock exclusively, so they wait for in-flight operations
// to drain and atomically swap the store underneath without ever exposing
// a half-repaired instance.  Acquire never blocks behind a repair — it
// fails fast (an empty Ref) so the facade can answer kUnavailable instead
// of stalling a caller on another shard's recovery.
//
// A StorageUnit attached to a shared MetricsRegistry charges the common
// operation counters and latency histograms (which therefore aggregate
// across units automatically) while publishing its sampled per-unit
// state — tree size, WAL depth, page-device counters — under its
// options' label: "shard<k>_" for a shard (see ShardOptions), so
// individual shards stay observable, and none for a store file's single
// unit, which publishes exactly what a BmehStore would.

#ifndef BMEH_STORE_STORAGE_UNIT_H_
#define BMEH_STORE_STORAGE_UNIT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "src/store/bmeh_store.h"
#include "src/store/scrub.h"

namespace bmeh {

/// \brief What one RepairShard pass did to a shard.
struct ShardRepairReport {
  /// The scrub findings that decided the repair strategy.
  ScrubReport scrub;
  /// Repair had to rewrite the file from salvaged records (false = the
  /// file was structurally clean and a plain reopen sufficed).
  bool salvaged = false;
  /// Salvage details, meaningful only when `salvaged`.
  SalvageReport salvage;
};

/// \brief One shard of a ShardedStore: a BmehStore plus shard identity
/// and an independent up/down lifecycle.
class StorageUnit {
 public:
  /// \brief Opens (or creates) the unit's file at `path`.  Reopening
  /// after a crash replays this unit's WAL and rebuilds its free list —
  /// exactly BmehStore::Open(path) semantics.  `options` are used as
  /// given: a shard of a sharded store passes ShardOptions(), a store
  /// file's single unit the caller's options unchanged.
  static Result<std::unique_ptr<StorageUnit>> Open(const std::string& path,
                                                   const StoreOptions& options);

  /// \brief Opens the unit over an injected page device (in-memory,
  /// fault-injecting, ...).  No free-list recovery — the seam perfbench
  /// and the shard crash matrix drive, mirroring the BmehStore PageStore
  /// overload.
  static Result<std::unique_ptr<StorageUnit>> Open(
      std::unique_ptr<PageStore> device, const StoreOptions& options);

  /// \brief Builds a unit that is down from the start — the placeholder a
  /// kPartial open installs for a shard whose store failed to open, so the
  /// facade keeps a slot (and a repair target) for it.  `options` are the
  /// ones the failed open used, so a repair reopens the shard with the
  /// same identity; `reason` is the open failure, surfaced by
  /// down_reason().
  static std::unique_ptr<StorageUnit> Down(std::string path,
                                           const StoreOptions& options,
                                           Status reason);

  /// \brief `options` with shard `shard_index`'s identity applied — the
  /// one place a shard gets it: the "shard<k>_" label on its sampled
  /// metrics and watchdog heartbeats, the shard index on its wide events,
  /// and its own subdirectory of a configured WAL archive root (shards
  /// have independent LSN domains, so their segment file names — keyed by
  /// LSN — would collide in a shared directory).
  static StoreOptions ShardOptions(StoreOptions options, int shard_index);

  /// \brief A borrowed, lifetime-bounded handle to the unit's store.  The
  /// Ref holds the unit's shared lock until destroyed: while any Ref is
  /// alive the store cannot be swapped or torn down by repair.  An empty
  /// Ref (operator bool == false) means the unit is down or repairing.
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&&) noexcept = default;
    Ref& operator=(Ref&&) noexcept = default;

    BmehStore* operator->() const { return store_; }
    BmehStore* get() const { return store_; }
    explicit operator bool() const { return store_ != nullptr; }

   private:
    friend class StorageUnit;
    Ref(std::shared_lock<std::shared_mutex> lock, BmehStore* store)
        : lock_(std::move(lock)), store_(store) {}

    std::shared_lock<std::shared_mutex> lock_;
    BmehStore* store_ = nullptr;
  };

  /// \brief Borrows the store for one operation.  Fails fast (empty Ref)
  /// when the unit is down or a repair holds the lock — never blocks a
  /// caller behind another shard's recovery.
  Ref Acquire() const {
    std::shared_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock() || store_ == nullptr) return Ref();
    return Ref(std::move(lock), store_.get());
  }

  /// \brief True when the unit currently has a live store serving traffic.
  bool healthy() const { return !down_.load(std::memory_order_acquire); }

  /// \brief Why the unit is down (OK when healthy).
  Status down_reason() const {
    std::lock_guard<std::mutex> g(reason_mu_);
    return down_reason_;
  }

  /// \brief Takes the unit down as a crash would: waits for in-flight
  /// operations to drain, then closes the store *without* checkpointing
  /// (the WAL keeps every synced record, exactly like a process crash
  /// scoped to this shard).  Traffic on sibling units is unaffected.
  void BringDown(Status reason);

  /// \brief Runs the scrub → salvage → reopen repair ladder on this
  /// unit's file and brings the unit back up on success.  Quiesces this
  /// unit only: the exclusive lock drains its in-flight operations while
  /// siblings keep serving.  A structurally clean file (e.g. after a mere
  /// crash) just reopens and replays its WAL; a damaged file is rewritten
  /// from salvaged records first.  On failure the unit stays down with
  /// the failure as its reason.  Invalid for device-backed units.
  Status Repair(ShardRepairReport* report = nullptr);

  /// \brief Cheap reopen attempt for a down unit (no scrub, no salvage) —
  /// the optimistic half of the repair lifecycle, for shards that went
  /// down for transient reasons (crash, ENOSPC at open).  Returns OK and
  /// marks the unit healthy when the open succeeds, the open error (unit
  /// stays down) when it does not, and Unavailable without waiting when a
  /// repair currently holds the lock.
  Status TryReopen();

  /// \brief Direct store access for owner-synchronized callers (tests,
  /// single-threaded setup).  nullptr while the unit is down.  Racy
  /// against BringDown/Repair — concurrent callers must use Acquire().
  BmehStore* store() { return store_.get(); }
  const BmehStore* store() const { return store_.get(); }

  /// \brief The shard index from the unit's options (-1 for a store
  /// file's single unit, which carries no shard identity).
  int shard_index() const { return options_.shard_index; }

  /// \brief The unit's file path (empty for an injected device).
  const std::string& path() const { return path_; }

  /// \brief The "shard<k>_" prefix this unit's sampled metrics carry.
  static std::string MetricsLabel(int shard_index) {
    return "shard" + std::to_string(shard_index) + "_";
  }

  /// \brief Where shard `shard_index` archives its WAL segments under a
  /// shared archive root (see ShardOptions).
  static std::string ShardArchiveDir(const std::string& root,
                                     int shard_index);

 private:
  StorageUnit(std::string path, StoreOptions options,
              std::unique_ptr<BmehStore> store)
      : path_(std::move(path)),
        options_(std::move(options)),
        store_(std::move(store)) {
    down_.store(store_ == nullptr, std::memory_order_release);
  }

  /// Marks the unit down/up and records why.  Caller holds mu_ exclusive.
  void SetDown(Status reason);

  std::string path_;
  /// The options the unit opened with — kept so it can reopen itself
  /// during repair under the same identity.
  StoreOptions options_;

  /// Guards store_: shared for operations (via Ref), exclusive for
  /// BringDown / Repair / TryReopen swaps.
  mutable std::shared_mutex mu_;
  std::unique_ptr<BmehStore> store_;

  /// Lock-free health flag for reporting paths (Acquire() is the
  /// authoritative gate for operations).
  std::atomic<bool> down_{false};
  mutable std::mutex reason_mu_;
  Status down_reason_;
};

}  // namespace bmeh

#endif  // BMEH_STORE_STORAGE_UNIT_H_
