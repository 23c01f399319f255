#include "src/store/storage_unit.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace bmeh {

std::string StorageUnit::ShardArchiveDir(const std::string& root,
                                         int shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d", shard_index);
  return root + "/" + name;
}

StoreOptions StorageUnit::ShardOptions(StoreOptions options,
                                       int shard_index) {
  options.shard_index = shard_index;
  if (!options.wal_archive_dir.empty()) {
    options.wal_archive_dir =
        ShardArchiveDir(options.wal_archive_dir, shard_index);
  }
  return options;
}

Result<std::unique_ptr<StorageUnit>> StorageUnit::Open(
    const std::string& path, const StoreOptions& options) {
  BMEH_ASSIGN_OR_RETURN(auto store, BmehStore::Open(path, options));
  return std::unique_ptr<StorageUnit>(
      new StorageUnit(path, options, std::move(store)));
}

Result<std::unique_ptr<StorageUnit>> StorageUnit::Open(
    std::unique_ptr<PageStore> device, const StoreOptions& options) {
  BMEH_ASSIGN_OR_RETURN(auto store,
                        BmehStore::Open(std::move(device), options));
  return std::unique_ptr<StorageUnit>(
      new StorageUnit(std::string(), options, std::move(store)));
}

std::unique_ptr<StorageUnit> StorageUnit::Down(std::string path,
                                               const StoreOptions& options,
                                               Status reason) {
  auto unit = std::unique_ptr<StorageUnit>(
      new StorageUnit(std::move(path), options, nullptr));
  unit->SetDown(std::move(reason));
  return unit;
}

void StorageUnit::SetDown(Status reason) {
  down_.store(!reason.ok(), std::memory_order_release);
  std::lock_guard<std::mutex> g(reason_mu_);
  down_reason_ = std::move(reason);
}

void StorageUnit::BringDown(Status reason) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (store_ != nullptr) {
    // Poison before closing: the destructor then skips its checkpoint, so
    // the file is left exactly as a crash would leave it (synced WAL
    // records intact, checkpoint image untouched).
    store_->SimulateCrashForTesting();
    store_.reset();
  }
  if (reason.ok()) reason = Status::Unavailable("shard brought down");
  SetDown(std::move(reason));
}

Status StorageUnit::Repair(ShardRepairReport* report) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (path_.empty()) {
    return Status::Invalid("shard " + std::to_string(shard_index()) +
                           ": cannot repair a device-backed unit");
  }
  // Close whatever instance is left.  A poisoned or degraded store skips
  // its destructor checkpoint; a healthy one checkpoints cleanly first.
  if (store_ != nullptr) store_.reset();
  SetDown(Status::Unavailable("shard repair in progress"));

  ShardRepairReport local;
  ShardRepairReport* rep = report != nullptr ? report : &local;
  *rep = ShardRepairReport();

  // Rung 1: a structurally clean file just reopens (WAL replay included).
  const Status scrub_st = ScrubStore(path_, &rep->scrub, options_.metrics);
  if (scrub_st.ok() && rep->scrub.clean()) {
    auto reopened = BmehStore::Open(path_, options_);
    if (reopened.ok() && !reopened.ValueOrDie()->degraded()) {
      store_ = std::move(reopened).ValueOrDie();
      SetDown(Status::OK());
      return Status::OK();
    }
    // A clean scrub that still cannot open healthy (schema mismatch,
    // tolerated-degraded open, ...) falls through to salvage.
  }

  // Rung 2: rewrite the file from every salvageable record, then swap the
  // rewritten file in atomically (rename + parent-dir fsync).
  rep->salvaged = true;
  const std::string rebuilt = path_ + ".repair";
  StoreOptions salvage_options = options_;
  salvage_options.tolerate_corruption = true;
  Status st = SalvageStore(path_, rebuilt, salvage_options, &rep->salvage,
                           options_.metrics);
  if (!st.ok()) {
    std::remove(rebuilt.c_str());
    SetDown(st);
    return st;
  }
  if (::rename(rebuilt.c_str(), path_.c_str()) != 0) {
    st = Status::IoError("rename repaired shard over " + path_ + ": " +
                         std::strerror(errno));
    std::remove(rebuilt.c_str());
    SetDown(st);
    return st;
  }
  st = SyncDirectory(ParentDir(path_));
  if (!st.ok()) {
    SetDown(st);
    return st;
  }

  auto reopened = BmehStore::Open(path_, options_);
  if (!reopened.ok()) {
    SetDown(reopened.status());
    return reopened.status();
  }
  store_ = std::move(reopened).ValueOrDie();
  SetDown(Status::OK());
  return Status::OK();
}

Status StorageUnit::TryReopen() {
  std::unique_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return Status::Unavailable("shard " + std::to_string(shard_index()) +
                               ": repair in progress");
  }
  if (store_ != nullptr && healthy()) return Status::OK();
  if (path_.empty()) {
    return Status::Invalid("shard " + std::to_string(shard_index()) +
                           ": cannot reopen a device-backed unit");
  }
  store_.reset();
  auto reopened = BmehStore::Open(path_, options_);
  if (!reopened.ok()) {
    SetDown(reopened.status());
    return reopened.status();
  }
  store_ = std::move(reopened).ValueOrDie();
  SetDown(Status::OK());
  return Status::OK();
}

}  // namespace bmeh
