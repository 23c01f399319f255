#include "src/store/sharded_store.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/common/bit_util.h"
#include "src/obs/trace.h"
#include "src/store/sealed_manifest.h"

namespace bmeh {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "BMEH-SHARD v1";

bool DirectoryIsEmptyExcept(const std::string& path,
                            const std::string& ignore) {
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return false;
  bool empty = true;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != ".." && name != ignore) {
      empty = false;
      break;
    }
  }
  ::closedir(d);
  return empty;
}

bool DirectoryIsEmpty(const std::string& path) {
  return DirectoryIsEmptyExcept(path, std::string());
}

Status ValidateShardCount(int shards, const KeySchema& schema) {
  if (shards <= 0 || !bit_util::IsPowerOfTwo(shards) || shards > 4096) {
    return Status::Invalid("shard count must be a power of two in [1, 4096], "
                           "got " + std::to_string(shards));
  }
  if (bit_util::FloorLog2(shards) > schema.total_bits()) {
    return Status::Invalid("shard count " + std::to_string(shards) +
                           " needs more routing bits than the schema has (" +
                           std::to_string(schema.total_bits()) + ")");
  }
  return Status::OK();
}

/// The routing shape both sharded manifests begin with: MANIFEST's whole
/// body, and SHARDBACKUP's before its shard lines.
ManifestWriter ShapeWriter(std::string_view magic, const ShardManifest& shape) {
  ManifestWriter w(magic);
  w.Add("shards", std::to_string(shape.shards));
  w.Add("shard_bits", std::to_string(shape.shard_bits));
  w.Add("page_size", std::to_string(shape.page_size));
  w.AddSchema(shape.schema);
  return w;
}

/// A sealed manifest's shard count and routing width, checked as creating
/// a store checks them.  One that fails is corrupt: accepting it would
/// route past the schema's ψ digits, or start an open thread per shard
/// for any count it claims.
Status CheckManifestShape(const ManifestReader& r, int shards, int shard_bits,
                          const KeySchema& schema) {
  const Status st = ValidateShardCount(shards, schema);
  if (!st.ok()) return r.Bad("shards", st.message());
  if (shard_bits != bit_util::FloorLog2(shards)) {
    return r.Bad("shard_bits", std::to_string(shard_bits) +
                                   " does not match the shard count");
  }
  return Status::OK();
}

/// Reads the shape ShapeWriter wrote into `out`, a ShardManifest or a
/// ShardBackupSetInfo.
template <typename Shape>
Status ReadShape(const ManifestReader& r, Shape* out) {
  BMEH_ASSIGN_OR_RETURN(out->shards, r.Number<int>("shards"));
  BMEH_ASSIGN_OR_RETURN(out->shard_bits, r.Number<int>("shard_bits"));
  BMEH_ASSIGN_OR_RETURN(out->page_size, r.Number<int>("page_size", 1));
  BMEH_ASSIGN_OR_RETURN(out->schema, r.Schema());
  return CheckManifestShape(r, out->shards, out->shard_bits, out->schema);
}

uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::string ShardedStore::ShardPath(const std::string& dir, int shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.bmeh", shard_index);
  return dir + "/" + name;
}

Status ShardedStore::WriteManifest(const std::string& dir,
                                   const ShardManifest& manifest) {
  BMEH_RETURN_NOT_OK(EnsureDir(dir));
  // Published atomically, so a crash never leaves a half-written manifest
  // where Open() would read it.
  return ShapeWriter(kManifestMagic, manifest).Seal(dir, kManifestName);
}

Result<ShardManifest> ShardedStore::ReadManifest(const std::string& dir) {
  BMEH_ASSIGN_OR_RETURN(
      const ManifestReader r,
      ManifestReader::Open(dir + "/" + kManifestName, "manifest",
                           kManifestMagic));
  ShardManifest m;
  BMEH_RETURN_NOT_OK(ReadShape(r, &m));
  return m;
}

bool ShardedStore::IsShardedDir(const std::string& path) {
  bool is_dir = false;
  if (!PathExists(path, &is_dir) || !is_dir) return false;
  return ReadManifest(path).ok();
}

Result<std::vector<std::string>> ShardedStore::ShardFiles(
    const std::string& path, std::optional<ShardManifest>* manifest) {
  if (manifest != nullptr) manifest->reset();
  bool is_dir = false;
  if (!PathExists(path, &is_dir) || !is_dir) {
    return std::vector<std::string>{path};
  }
  BMEH_ASSIGN_OR_RETURN(ShardManifest m, ReadManifest(path));
  std::vector<std::string> files;
  files.reserve(m.shards);
  for (int i = 0; i < m.shards; ++i) files.push_back(ShardPath(path, i));
  if (manifest != nullptr) *manifest = std::move(m);
  return files;
}

ShardedStore::ShardedStore(std::vector<std::unique_ptr<StorageUnit>> units,
                           int shard_bits, const ShardedStoreOptions& options)
    : units_(std::move(units)),
      shard_bits_(shard_bits),
      schema_(options.store.schema),
      retry_(options.retry),
      tracer_(options.store.tracer),
      oplog_(options.store.oplog),
      watchdog_(options.store.watchdog),
      watchdog_deadline_ms_(options.store.watchdog_deadline_ms) {
  // A store file's unit publishes every name a BmehStore on that file
  // would, unlabeled; the facade adds none of its own.
  if (options.store.metrics == nullptr || single_file()) return;
  metrics_ = options.store.metrics;
  retries_total_ = metrics_->GetCounter("store_shard_retries_total");
  unavailable_total_ = metrics_->GetCounter("store_shard_unavailable_total");
  repairs_total_ = metrics_->GetCounter("store_shard_repairs_total");
  backoff_ns_ = metrics_->GetHistogram("store_retry_backoff_ns");
  // Aggregate sampled state under the unlabeled names a single store
  // publishes, so dashboards (and the CLI greps) keep working against a
  // sharded store; the per-shard breakdown is what the units publish
  // under their "shard<k>_" labels.
  metrics_source_ = metrics_->AddSource([this](obs::RegistrySnapshot* s) {
    uint64_t records = 0, wal = 0, dirty = 0;
    int64_t height = 0, down = 0;
    for (size_t k = 0; k < units_.size(); ++k) {
      StorageUnit::Ref ref = units_[k]->Acquire();
      s->gauges[BmehStore::MetricsLabel(static_cast<int>(k)) + "up"] =
          ref ? 1 : 0;
      if (!ref) {
        ++down;
        continue;
      }
      const BmehStore::SampledState st = ref->SampleStateForMetrics();
      records += st.records;
      wal += st.wal_records;
      dirty += st.dirty_ops;
      height = std::max<int64_t>(height, st.height);
    }
    s->gauges["store_shards"] = static_cast<int64_t>(units_.size());
    s->gauges["store_shards_down"] = down;
    s->gauges["tree_records"] = static_cast<int64_t>(records);
    s->gauges["tree_height"] = height;
    s->gauges["wal_records"] = static_cast<int64_t>(wal);
    s->gauges["store_dirty_ops"] = static_cast<int64_t>(dirty);
  });
}

ShardedStore::~ShardedStore() {
  // The source samples the units; detach it before they die.  The units
  // then close one by one, each folding its WAL into a final per-shard
  // checkpoint exactly as a standalone store would.
  if (metrics_ != nullptr) metrics_->RemoveSource(metrics_source_);
}

struct ShardedStore::UnitSource {
  std::string path;                   ///< Empty for an injected device.
  std::unique_ptr<PageStore> device;  ///< Null for a file.
  StoreOptions options;
};

Result<std::unique_ptr<ShardedStore>> ShardedStore::OpenUnits(
    std::vector<UnitSource> sources, const ShardedStoreOptions& options) {
  const int n = static_cast<int>(sources.size());
  std::vector<std::unique_ptr<StorageUnit>> units(n);
  std::vector<Status> statuses(n, Status::OK());
  auto open_one = [&](int i) {
    UnitSource& src = sources[i];
    auto r = src.device != nullptr
                 ? StorageUnit::Open(std::move(src.device), src.options)
                 : StorageUnit::Open(src.path, src.options);
    if (r.ok()) {
      units[i] = std::move(r).ValueOrDie();
    } else {
      statuses[i] = r.status();
    }
  };
  if (n == 1 || sources[0].device != nullptr) {
    // Injected devices open in order on the caller's thread, the way the
    // harnesses that inject them (crash matrix, benchmarks) expect.
    for (int i = 0; i < n; ++i) open_one(i);
  } else {
    // Parallel recovery: every shard replays its own WAL (and rebuilds
    // its own free list) on its own thread.  The units share nothing but
    // the mutex-guarded metrics registry, so concurrent opens are safe.
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (int i = 0; i < n; ++i) workers.emplace_back(open_one, i);
    for (auto& w : workers) w.join();
  }
  int failed = 0;
  int first_failed = -1;
  for (int i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      ++failed;
      if (first_failed < 0) first_failed = i;
    }
  }
  if (failed > 0 &&
      (options.open_policy == OpenPolicy::kStrict || failed == n)) {
    // Strict (or nothing at all came up): a failed open must not mutate
    // shard files — poison the units that did open so their destructors
    // skip the close-time checkpoint.
    for (auto& u : units) {
      if (u != nullptr && u->store() != nullptr) {
        u->store()->SimulateCrashForTesting();
      }
    }
    return Status(statuses[first_failed].code(),
                  "shard " + std::to_string(first_failed) + ": " +
                      statuses[first_failed].message());
  }
  // Partial availability: keep a down placeholder per failed shard so
  // routing, health reporting, and RepairShard all have a target while
  // the healthy shards serve.  A device-backed placeholder has no path,
  // so it cannot be repaired — but routing stays honest.
  for (int i = 0; i < n; ++i) {
    if (units[i] == nullptr) {
      units[i] = StorageUnit::Down(
          sources[i].path, sources[i].options,
          Status(statuses[i].code(), "open failed: " + statuses[i].message()));
    }
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(std::move(units), bit_util::FloorLog2(n), options));
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& path, const ShardedStoreOptions& options) {
  bool is_dir = false;
  const bool exists = PathExists(path, &is_dir);
  if (exists ? !is_dir : options.shards == 0) {
    // A store file, existing or created here as BmehStore::Open would,
    // is a one-shard store with no manifest.  Its unit runs on the
    // caller's options unchanged — no shard label, index or archive
    // subdirectory — so it behaves exactly as a BmehStore on that file.
    if (options.shards != 0 && options.shards != 1) {
      return Status::Invalid(path + " is a store file (one shard), caller "
                             "expects " + std::to_string(options.shards) +
                             " shards");
    }
    std::vector<UnitSource> sources(1);
    sources[0].path = path;
    sources[0].options = options.store;
    return OpenUnits(std::move(sources), options);
  }
  ShardManifest manifest;
  const bool have_manifest = exists && PathExists(path + "/" + kManifestName);
  if (!have_manifest) {
    // Never create a fresh store on top of existing files: a directory
    // holding shard files but no readable manifest is debris (a restore
    // or creation killed midway), and adopting part of it would silently
    // serve a fraction of the data as if it were all of it.  Our own
    // create-crash leftover, a lone MANIFEST.tmp, is safe to overwrite.
    if (exists &&
        !DirectoryIsEmptyExcept(path, std::string(kManifestName) + ".tmp")) {
      return Status::AlreadyExists(
          path + " contains files but no readable manifest; refusing to "
                 "create a fresh store over them");
    }
    // Fresh store: fix the routing contract and seal it in the manifest
    // before any shard file exists.
    manifest.shards = options.shards == 0 ? 1 : options.shards;
    BMEH_RETURN_NOT_OK(
        ValidateShardCount(manifest.shards, options.store.schema));
    manifest.shard_bits = bit_util::FloorLog2(manifest.shards);
    manifest.page_size = options.store.page_size;
    manifest.schema = options.store.schema;
    BMEH_RETURN_NOT_OK(WriteManifest(path, manifest));
  } else {
    BMEH_ASSIGN_OR_RETURN(manifest, ReadManifest(path));
    if (options.shards != 0 && options.shards != manifest.shards) {
      return Status::Invalid(
          "shard count mismatch: directory has " +
          std::to_string(manifest.shards) + " shards, caller expects " +
          std::to_string(options.shards));
    }
    if (!(manifest.schema == options.store.schema)) {
      return Status::Invalid("schema mismatch: sharded store has " +
                             manifest.schema.ToString() + ", caller expects " +
                             options.store.schema.ToString());
    }
  }
  StoreOptions store_options = options.store;
  store_options.page_size = manifest.page_size;
  std::vector<UnitSource> sources(manifest.shards);
  for (int i = 0; i < manifest.shards; ++i) {
    sources[i].path = ShardPath(path, i);
    sources[i].options = StorageUnit::ShardOptions(store_options, i);
  }
  return OpenUnits(std::move(sources), options);
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    std::vector<std::unique_ptr<PageStore>> devices,
    const ShardedStoreOptions& options) {
  const int n = static_cast<int>(devices.size());
  BMEH_RETURN_NOT_OK(ValidateShardCount(n, options.store.schema));
  if (options.shards != 0 && options.shards != n) {
    return Status::Invalid("options.shards disagrees with the device count");
  }
  std::vector<UnitSource> sources(n);
  for (int i = 0; i < n; ++i) {
    sources[i].device = std::move(devices[i]);
    sources[i].options = StorageUnit::ShardOptions(options.store, i);
  }
  return OpenUnits(std::move(sources), options);
}

Result<ShardedStoreInfo> ShardedStore::Inspect(const std::string& path) {
  std::optional<ShardManifest> manifest;
  BMEH_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                        ShardFiles(path, &manifest));
  ShardedStoreInfo info;
  info.single_file = !manifest.has_value();
  info.shards = static_cast<int>(files.size());
  if (manifest.has_value()) {
    info.shard_bits = manifest->shard_bits;
    info.page_size = manifest->page_size;
  }
  info.shard.reserve(files.size());
  info.shard_status.reserve(files.size());
  for (int i = 0; i < info.shards; ++i) {
    auto r = BmehStore::Inspect(files[i]);
    if (!r.ok()) {
      // A store file that cannot be inspected is no store at all.
      if (info.single_file) return r.status();
      // One unreadable shard must not hide the health of its siblings:
      // record the failure per shard and keep inspecting.
      info.shard.emplace_back();
      info.shard_status.push_back(
          Status(r.status().code(), "shard " + std::to_string(i) + ": " +
                                        r.status().message()));
      ++info.down_shards;
      continue;
    }
    if (info.single_file) info.page_size = r->page_size;
    info.records += r->records;
    info.wal_records += r->wal_records;
    info.page_count += r->page_count;
    info.shard.push_back(*r);
    info.shard_status.push_back(Status::OK());
  }
  return info;
}

uint64_t ShardedStore::NextRetrySeed(int s) {
  return SplitMix64(retry_seq_.fetch_add(1, std::memory_order_relaxed) +
                    (static_cast<uint64_t>(s) << 32));
}

Status ShardedStore::RunWithRetry(int s,
                                  const std::function<Status(BmehStore*)>& op) {
  Backoff backoff(retry_, NextRetrySeed(s));
  uint32_t retries = 0;
  uint64_t backoff_total_ns = 0;
  for (;;) {
    Status st;
    {
      StorageUnit::Ref ref = units_[s]->Acquire();
      if (ref) {
        st = op(ref.get());
      } else {
        st = Status::Unavailable("shard " + std::to_string(s) +
                                 " is unavailable: " +
                                 units_[s]->down_reason().message());
        if (unavailable_total_ != nullptr) unavailable_total_->Inc();
      }
    }
    // The Ref (and its shared lock) is released before any sleep: a
    // repair must never wait on a sleeping retrier.
    if (!backoff.ShouldRetry(st)) {
      if (retries > 0 && oplog_ != nullptr) {
        // One wide event for the whole retry episode — how many attempts
        // the op consumed and what it ultimately resolved to.
        obs::WideEvent ev;
        ev.trace_id = obs::NextTraceId();
        ev.op = "shard_retry";
        ev.shard = s;
        ev.status = StatusCodeName(st.code());
        ev.retries = retries;
        ev.latency_ns = backoff_total_ns;
        oplog_->Record(ev);
      }
      return st;
    }
    const uint64_t delay_us = backoff.NextDelayUs();
    ++retries;
    if (retries_total_ != nullptr) retries_total_->Inc();
    {
      obs::TraceSpan span(tracer_, "shard_retry_backoff", "store");
      SleepUs(delay_us);
    }
    backoff_total_ns += delay_us * 1000;
    if (backoff_ns_ != nullptr) backoff_ns_->Record(delay_us * 1000);
  }
}

Status ShardedStore::Put(const PseudoKey& key, uint64_t payload) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  return RunWithRetry(ShardOf(key), [&](BmehStore* store) {
    return store->Put(key, payload);
  });
}

Result<uint64_t> ShardedStore::Get(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  uint64_t value = 0;
  BMEH_RETURN_NOT_OK(RunWithRetry(ShardOf(key), [&](BmehStore* store) {
    auto r = store->Get(key);
    if (!r.ok()) return std::move(r).status();
    value = r.ValueOrDie();
    return Status::OK();
  }));
  return value;
}

Status ShardedStore::Delete(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  return RunWithRetry(ShardOf(key), [&](BmehStore* store) {
    return store->Delete(key);
  });
}

Status ShardedStore::Write(const WriteBatch& batch,
                           std::vector<Status>* per_record) {
  const std::vector<Wal::LogRecord>& recs = batch.records();
  std::vector<Status> local;
  std::vector<Status>& statuses = per_record != nullptr ? *per_record : local;
  statuses.assign(recs.size(), Status::OK());
  if (recs.empty()) return Status::OK();

  // Validate every key before anything is routed: a malformed key fails
  // the whole batch with nothing written on any shard — the same
  // up-front contract as the single-store batch path.
  for (const Wal::LogRecord& rec : recs) {
    const Status st = schema_.Validate(rec.key);
    if (!st.ok()) {
      statuses.assign(recs.size(), st);
      return st;
    }
  }

  // Split into per-shard sub-batches, preserving the caller's relative
  // order within each shard (a duplicate key always lands on one shard,
  // so per-shard order is all that per-record outcomes depend on).
  std::vector<WriteBatch> sub(units_.size());
  std::vector<std::vector<size_t>> origin(units_.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    const int s = ShardOf(recs[i].key);
    if (recs[i].op == Wal::kOpInsert) {
      sub[s].Put(recs[i].key, recs[i].payload);
    } else {
      sub[s].Delete(recs[i].key);
    }
    origin[s].push_back(i);
  }

  // Each sub-batch commits independently with single-store atomicity
  // (one WAL chain, one fsync, all-or-nothing on crash).  There is no
  // cross-shard transaction: a shard that refuses its sub-batch leaves
  // sibling commits standing, and the per-record statuses say which.
  // Transient refusals (quota, shard mid-repair) retry the whole
  // sub-batch — safe because a transient batch failure is fully rolled
  // back on the shard.
  for (size_t s = 0; s < units_.size(); ++s) {
    if (sub[s].empty()) continue;
    std::vector<Status> sub_statuses;
    const Status st = RunWithRetry(static_cast<int>(s), [&](BmehStore* store) {
      return store->Write(sub[s], &sub_statuses);
    });
    if (st.IsUnavailable() || sub_statuses.size() != origin[s].size()) {
      // The sub-batch never reached a live shard (or the shard died
      // before reporting): every member shares the routing-level status.
      for (const size_t idx : origin[s]) statuses[idx] = st;
      continue;
    }
    for (size_t k = 0; k < sub_statuses.size(); ++k) {
      statuses[origin[s][k]] = sub_statuses[k];
    }
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status ShardedStore::InsertBatch(std::span<const Record> recs) {
  WriteBatch batch;
  for (const Record& rec : recs) batch.Put(rec.key, rec.payload);
  return Write(batch);
}

Status ShardedStore::DeleteBatch(std::span<const PseudoKey> keys) {
  WriteBatch batch;
  for (const PseudoKey& key : keys) batch.Delete(key);
  return Write(batch);
}

Status ShardedStore::Range(const RangePredicate& pred,
                           std::vector<Record>* out, bool* partial) {
  out->clear();
  if (partial != nullptr) *partial = false;
  std::vector<std::vector<Record>> per(units_.size());
  bool data_loss = false;
  int down = 0;
  size_t total = 0;
  for (size_t s = 0; s < units_.size(); ++s) {
    Status st = RunWithRetry(static_cast<int>(s), [&](BmehStore* store) {
      per[s].clear();
      return store->Range(pred, &per[s]);
    });
    if (st.IsUnavailable()) {
      // Keep collecting: the healthy shards' matches are still owed to
      // the caller, and the final status reports the partiality.
      per[s].clear();
      ++down;
      continue;
    }
    if (st.IsDataLoss()) {
      // Same: a degraded shard returns its surviving matches.
      data_loss = true;
    } else if (!st.ok()) {
      return st;
    }
    // A shard returns its matches unordered.
    std::sort(per[s].begin(), per[s].end(),
              [this](const Record& a, const Record& b) {
                return PsiLess(a.key, b.key, schema_);
              });
    total += per[s].size();
  }
  // The shard index is the key's ψ prefix, so every key of shard s
  // precedes every key of shard s + 1: the sorted runs concatenate in
  // shard order into global ψ order.
  out->reserve(total);
  for (const std::vector<Record>& run : per) {
    out->insert(out->end(), run.begin(), run.end());
  }
  if (down > 0) {
    // Unavailable outranks DataLoss: it is retryable (the shard may come
    // back with all its data), while DataLoss is a verified hole.
    if (partial != nullptr) *partial = true;
    return Status::Unavailable("range result is partial: " +
                               std::to_string(down) +
                               " shard(s) unavailable");
  }
  if (data_loss) {
    if (partial != nullptr) *partial = true;
    return Status::DataLoss(
        "range result is partial: a shard lost data to corruption");
  }
  return Status::OK();
}

Status ShardedStore::Checkpoint() {
  // Every healthy shard is attempted: checkpoints are independent
  // per-shard superblock flips, and one shard's refusal (quota,
  // degradation, unavailability) is no reason to leave its siblings'
  // WALs long.
  Status first;
  for (size_t s = 0; s < units_.size(); ++s) {
    StorageUnit::Ref ref = units_[s]->Acquire();
    Status st = ref ? ref->Checkpoint()
                    : Status::Unavailable("shard " + std::to_string(s) +
                                          " is unavailable");
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

namespace {

constexpr char kShardBackupManifestName[] = "SHARDBACKUP";
constexpr char kShardBackupMagic[] = "BMEH-SHARD-BACKUP v1";

/// Per-shard subdirectory name inside a sharded backup set.
std::string ShardSetSubdir(int shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d", shard_index);
  return name;
}

}  // namespace

Result<ShardBackupInfo> ShardedStore::Backup(const std::string& out_dir,
                                             const BackupOptions& options) {
  const int n = shards();
  const bool incremental = !options.base_set.empty();
  ShardBackupSetInfo prev;
  if (incremental) {
    BMEH_ASSIGN_OR_RETURN(prev, ReadBackupManifest(options.base_set));
    if (prev.shards != n) {
      return Status::Invalid("incremental backup: base set has " +
                             std::to_string(prev.shards) +
                             " shards, store has " + std::to_string(n));
    }
  }
  BMEH_RETURN_NOT_OK(EnsureDir(out_dir));
  if (PathExists(out_dir + "/" + kShardBackupManifestName, nullptr)) {
    return Status::AlreadyExists(out_dir +
                                 " already holds a sealed sharded backup");
  }

  ShardBackupInfo info;
  info.shards = n;
  info.shard_status.assign(n, Status::OK());
  info.watermark.assign(n, 0);
  std::vector<uint64_t> shard_bytes(n, 0);
  std::vector<int> shard_page_size(n, 0);

  // One thread per shard, like parallel recovery: each backup touches
  // only shard-local state (its pinned chains, its archive subdir, its
  // set subdirectory), so shards never contend.
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (int s = 0; s < n; ++s) {
    workers.emplace_back([&, s] {
      StorageUnit::Ref ref = units_[s]->Acquire();
      if (!ref) {
        const Status why = units_[s]->down_reason();
        info.shard_status[s] = Status::Unavailable(
            "shard " + std::to_string(s) + " is unavailable" +
            (why.ok() ? "" : ": " + why.message()));
        return;
      }
      BackupOptions per;
      per.metrics = options.metrics;
      // A store file's unit archives into the root itself (no shard
      // identity); a shard into its own subdirectory.
      if (!options.wal_archive_dir.empty()) {
        per.wal_archive_dir =
            single_file()
                ? options.wal_archive_dir
                : StorageUnit::ShardArchiveDir(options.wal_archive_dir, s);
      }
      if (incremental && prev.shard[s].ok) {
        per.base_set = options.base_set + "/" + prev.shard[s].subdir;
      }
      // A shard whose previous backup failed gets a fresh full set
      // (per.base_set stays empty): per-shard chains are independent,
      // so one bad link never spreads.
      shard_page_size[s] = ref->page_store().page_size();
      auto run =
          BackupStore::Run(ref.get(), out_dir + "/" + ShardSetSubdir(s), per);
      if (!run.ok()) {
        info.shard_status[s] = run.status();
        return;
      }
      info.watermark[s] = run.ValueOrDie().watermark;
      shard_bytes[s] = run.ValueOrDie().bytes;
    });
  }
  for (std::thread& t : workers) t.join();

  Status first;
  int page_size = 0;
  for (int s = 0; s < n; ++s) {
    if (!info.shard_status[s].ok()) {
      ++info.failed;
      if (first.ok()) first = info.shard_status[s];
    } else {
      info.bytes += shard_bytes[s];
      if (page_size == 0) page_size = shard_page_size[s];
    }
  }
  // Nothing was captured: refuse rather than seal an empty set.
  if (info.failed == n) return first;

  ManifestWriter w =
      ShapeWriter(kShardBackupMagic, {n, shard_bits_, page_size, schema_});
  for (int s = 0; s < n; ++s) {
    const std::string index = std::to_string(s);
    if (info.shard_status[s].ok()) {
      w.Add("shard", index + " ok " + std::to_string(info.watermark[s]) + " " +
                         ShardSetSubdir(s));
    } else {
      w.Add("shard", index + " err " + info.shard_status[s].message());
    }
  }
  BMEH_RETURN_NOT_OK(w.Seal(out_dir, kShardBackupManifestName));
  return info;
}

Result<ShardBackupSetInfo> ShardedStore::ReadBackupManifest(
    const std::string& set_dir) {
  BMEH_ASSIGN_OR_RETURN(
      const ManifestReader r,
      ManifestReader::Open(set_dir + "/" + kShardBackupManifestName,
                           "backup super-manifest", kShardBackupMagic));
  ShardBackupSetInfo set;
  BMEH_RETURN_NOT_OK(ReadShape(r, &set));
  // One line per shard, in shard order: "<s> ok <watermark> <subdir>" or
  // "<s> err <why>".
  std::vector<ManifestLine> lines = r.All("shard");
  if (static_cast<int>(lines.size()) != set.shards) {
    return r.Bad("shard", std::to_string(lines.size()) + " lines for " +
                              std::to_string(set.shards) + " shards");
  }
  set.shard.resize(set.shards);
  for (int s = 0; s < set.shards; ++s) {
    ManifestLine& line = lines[s];
    ShardBackupSetInfo::ShardEntry& entry = set.shard[s];
    BMEH_RETURN_NOT_OK(line.Number(s, s).status());  // shard order
    BMEH_ASSIGN_OR_RETURN(const std::string_view state, line.Word());
    if (state == "err") {
      entry.error = line.Rest();
      continue;
    }
    if (state != "ok") return line.Bad("state " + std::string(state));
    entry.ok = true;
    BMEH_ASSIGN_OR_RETURN(entry.watermark, line.Number());
    BMEH_ASSIGN_OR_RETURN(entry.subdir, line.Name());
    BMEH_RETURN_NOT_OK(line.End());
  }
  return set;
}

bool ShardedStore::IsShardedBackupDir(const std::string& path) {
  bool is_dir = false;
  if (!PathExists(path, &is_dir) || !is_dir) return false;
  return ReadBackupManifest(path).ok();
}

Result<ShardRestoreInfo> ShardedStore::Restore(const std::string& set_dir,
                                               const std::string& dest_dir,
                                               const RestoreOptions& options) {
  BMEH_ASSIGN_OR_RETURN(ShardBackupSetInfo set, ReadBackupManifest(set_dir));
  // Refuse any non-empty destination — a live store, or the debris of a
  // restore that was killed midway.  Restoring over leftovers must be an
  // explicit operator decision (remove the directory first), never a
  // silent merge.
  bool dest_is_dir = false;
  if (PathExists(dest_dir, &dest_is_dir) && dest_is_dir &&
      !DirectoryIsEmpty(dest_dir)) {
    return Status::AlreadyExists(dest_dir +
                                 " is not empty; remove it before restoring");
  }
  BMEH_RETURN_NOT_OK(EnsureDir(dest_dir));

  ShardRestoreInfo info;
  info.shards = set.shards;
  info.shard_status.assign(set.shards, Status::OK());
  info.replay_lsn.assign(set.shards, 0);
  std::vector<std::thread> workers;
  workers.reserve(set.shards);
  // A shard that cannot be restored — absent from the set, or its sub-set
  // refused — must not leave a bare hole: a later open would create a
  // fresh *empty* shard there and silently answer KeyError for records
  // that existed.  A tombstone file that cannot parse as a store makes a
  // kPartial open bring the shard up *down* (Unavailable), which is the
  // honest answer until the operator repairs or re-restores it.
  const auto entomb = [&dest_dir](int s, const std::string& why) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04d.bmeh", s);
    (void)WriteSealedText(dest_dir, name,
                          "BMEH-RESTORE-TOMBSTONE v1\n" + why + "\n");
  };
  for (int s = 0; s < set.shards; ++s) {
    workers.emplace_back([&, s] {
      const ShardBackupSetInfo::ShardEntry& entry = set.shard[s];
      if (!entry.ok) {
        // Recorded-failed shard: skip it so the rest of the store still
        // comes back.
        const std::string why =
            "shard " + std::to_string(s) + " absent from backup set" +
            (entry.error.empty() ? "" : " (" + entry.error + ")");
        entomb(s, why);
        info.shard_status[s] = Status::Unavailable(why);
        return;
      }
      RestoreOptions per = options;
      per.store.schema = set.schema;
      if (options.to_lsn != 0) {
        // LSN domains are independent per shard: a global target is the
        // per-shard clamp to that shard's own watermark.
        per.to_lsn = std::min(options.to_lsn, entry.watermark);
      }
      auto run = RestoreStore::Run(set_dir + "/" + entry.subdir,
                                   ShardPath(dest_dir, s), per);
      if (!run.ok()) {
        // The per-shard restore refused (corrupt/gapped sub-set) and
        // removed its temp; entomb the slot so the failure stays loud.
        entomb(s, run.status().message());
        info.shard_status[s] = run.status();
        return;
      }
      info.replay_lsn[s] = run.ValueOrDie().replay_lsn;
    });
  }
  for (std::thread& t : workers) t.join();

  Status first;
  for (int s = 0; s < set.shards; ++s) {
    if (!info.shard_status[s].ok()) {
      ++info.failed;
      if (first.ok()) first = info.shard_status[s];
    }
  }
  // No shard restored at all: nothing useful was produced — report the
  // failure outright and publish no manifest.
  if (info.failed == set.shards) return first;
  // The store manifest is the commit point: it lands only after every
  // shard worker has finished, so a restore killed midway leaves a
  // directory with no MANIFEST — which an adopting Open refuses — rather
  // than a valid-looking store whose missing shards would come up as
  // fresh empty trees, silently answering KeyError for records that
  // existed at backup time.
  BMEH_RETURN_NOT_OK(WriteManifest(
      dest_dir, {set.shards, set.shard_bits, set.page_size, set.schema}));
  return info;
}

Status ShardedStore::RepairShard(int i, ShardRepairReport* report) {
  if (i < 0 || i >= shards()) {
    return Status::Invalid("shard index out of range: " + std::to_string(i));
  }
  obs::TraceSpan span(tracer_, "shard_repair", "store");
  // A repair is a bounded foreground activity: register a transient
  // heartbeat for its duration so a repair stuck inside scrub/salvage is
  // raised as a stall instead of hanging the operator silently.
  obs::Watchdog::Heartbeat* hb =
      watchdog_ != nullptr
          ? watchdog_->Register("shard" + std::to_string(i) + "_repair",
                                watchdog_deadline_ms_)
          : nullptr;
  const uint64_t start_ns = obs::MonotonicNanos();
  Status st;
  {
    obs::Watchdog::ArmedScope armed(hb);
    st = units_[i]->Repair(report);
  }
  if (hb != nullptr) watchdog_->Unregister(hb);
  if (st.ok() && repairs_total_ != nullptr) repairs_total_->Inc();
  if (oplog_ != nullptr) {
    obs::WideEvent ev;
    ev.trace_id = obs::NextTraceId();
    ev.op = "shard_repair";
    ev.shard = i;
    ev.status = StatusCodeName(st.code());
    ev.latency_ns = obs::MonotonicNanos() - start_ns;
    oplog_->RecordAlways(ev);
  }
  return st;
}

int ShardedStore::TryReopenDownShards() {
  int reopened = 0;
  for (const auto& u : units_) {
    if (u->healthy()) continue;
    if (u->TryReopen().ok()) ++reopened;
  }
  return reopened;
}

Status ShardedStore::BringDownShard(int i) {
  if (i < 0 || i >= shards()) {
    return Status::Invalid("shard index out of range: " + std::to_string(i));
  }
  units_[i]->BringDown(
      Status::Unavailable("shard " + std::to_string(i) + " brought down"));
  if (oplog_ != nullptr) {
    obs::WideEvent ev;
    ev.trace_id = obs::NextTraceId();
    ev.op = "shard_down";
    ev.shard = i;
    ev.status = "Unavailable";
    ev.detail = "shard brought down (operator / chaos)";
    oplog_->RecordAlways(ev);
  }
  return Status::OK();
}

int ShardedStore::down_shards() const {
  int n = 0;
  for (const auto& u : units_) {
    if (!u->healthy()) ++n;
  }
  return n;
}

uint64_t ShardedStore::records() const {
  uint64_t n = 0;
  for (const auto& u : units_) {
    StorageUnit::Ref ref = u->Acquire();
    if (ref) n += ref->tree().Stats().records;
  }
  return n;
}

uint64_t ShardedStore::wal_records() const {
  uint64_t n = 0;
  for (const auto& u : units_) {
    StorageUnit::Ref ref = u->Acquire();
    if (ref) n += ref->wal_records();
  }
  return n;
}

uint64_t ShardedStore::dirty_ops() const {
  uint64_t n = 0;
  for (const auto& u : units_) {
    StorageUnit::Ref ref = u->Acquire();
    if (ref) n += ref->dirty_ops();
  }
  return n;
}

bool ShardedStore::degraded() const {
  for (const auto& u : units_) {
    StorageUnit::Ref ref = u->Acquire();
    if (!ref || ref->degraded()) return true;
  }
  return false;
}

void ShardedStore::SimulateCrashForTesting() {
  for (const auto& u : units_) {
    if (u->store() != nullptr) u->store()->SimulateCrashForTesting();
  }
}

void ShardedStore::SimulateProcessCrashForTesting() {
  for (const auto& u : units_) {
    if (u->store() == nullptr) continue;
    u->store()->SimulateCrashForTesting();
    if (auto* file =
            dynamic_cast<FilePageStore*>(u->store()->mutable_page_store())) {
      file->CrashForTesting();
    }
  }
}

void ShardedStore::DisableFsyncForTesting() {
  for (const auto& u : units_) {
    if (u->store() == nullptr) continue;
    if (auto* file =
            dynamic_cast<FilePageStore*>(u->store()->mutable_page_store())) {
      file->DisableFsyncForTesting();
    }
  }
}

}  // namespace bmeh
