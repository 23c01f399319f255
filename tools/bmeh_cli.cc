// bmeh_cli — command-line front end for BMEH-tree stores.
//
// Every verb that takes --db works on either kind of store: a store file,
// which is a one-shard store with no manifest, or a sharded directory.
// Each verb reaches the store through ShardedStore, which decides which
// kind a path holds.
//
//   bmeh_cli stats  --db PATH [--json] [--ops N]
//       Opens a store with a metrics registry attached and prints every
//       counter, gauge and latency summary — Prometheus-style text by
//       default, one JSON object with --json.  With --ops N a probe
//       workload (N gets, N put/delete pairs, one range, one checkpoint)
//       is run first so the latency histograms have samples; without it
//       the exposition reflects the open/replay only and the store is not
//       modified.
//
//   bmeh_cli dot    --db PATH
//       Prints the directory of a store as Graphviz dot, one digraph per
//       shard (small trees only).  A single shard file works too.
//
//   bmeh_cli storeinfo --db PATH [--json]
//       Prints the durable state of a store (checkpoint generation, image
//       chain, write-ahead log, LSN watermarks; per shard for a sharded
//       directory) without modifying it — works on files left behind by a
//       crash.  With --json the same facts come out as one JSON object
//       for scripts.  Exit codes: 0 healthy, 2 degraded (sharded store
//       with unreadable shards).
//
//   bmeh_cli backup  --db SRC --out SETDIR [--base PREV] [--archive DIR]
//       Online backup of a store into a new backup-set directory at
//       SETDIR.  With --base PREV the set is incremental on the sealed
//       set at PREV: only WAL segments past PREV's watermark are archived
//       (--archive names the store's WAL archive directory, required when
//       checkpoints ran since PREV).
//       Exit codes: 0 sealed, 1 refused/failed, 2 sealed but partial
//       (some shards failed; the super-manifest records which).
//
//   bmeh_cli restore --set SETDIR --db DEST [--to-lsn N]
//       Point-in-time restore of a backup set (following its incremental
//       chain) into a new store at DEST.  Replays archived WAL up to and
//       including LSN N (default: everything the set covers), verifying
//       every page and record checksum; torn, gapped, or tampered
//       archives are refused with nothing written.  Exit codes: 0
//       restored, 1 refused/failed, 2 partial (sharded set with failed
//       shards skipped — the result opens degraded under --repair
//       tooling).
//
//   bmeh_cli storebuild --db PATH [--dims D] [--width W] [--b B] [--phi P]
//                   [--n N] [--dist NAME] [--seed S] [--page-size P]
//                   [--leave-wal K] [--max-pages M] [--batch B] [--shards N]
//       Creates (or extends) a durable store file (checkpoint + WAL)
//       holding N generated records.  With --leave-wal K the last K
//       mutations stay in the write-ahead log and the final close skips
//       its checkpoint, leaving the file exactly as a crash would — the
//       fixture the recovery tooling is tested on.
//       With --max-pages M the file is capped at M total pages; when the
//       quota fills mid-build the build stops gracefully (exit code 3)
//       with every acknowledged record durable and the file scrub-clean —
//       rerunning with a larger quota resumes from that state.
//       With --batch B records are loaded through the batch path, B per
//       WriteBatch — one WAL chain and one fsync per batch instead of per
//       record, typically an order of magnitude faster.
//       --leave-wal and --max-pages compose with it unchanged.
//       With --shards N the target is a sharded store DIRECTORY: N
//       independent shard files behind one facade, records routed by the
//       top log2(N) bits of the interleaved pseudo-key (--max-pages then
//       caps each shard).
//
//   bmeh_cli scrub --db PATH
//       Read-only integrity check of every store file: verifies every
//       page's checksum trailer and the superblock / image / WAL chain
//       structure.  Exits 0 only when every file is clean.
//
//   bmeh_cli fsck --db PATH [--repair OUT] [--dims D] [--width W] ...
//       Scrubs like `scrub`; with --repair also salvages every reachable
//       record into a fresh store of the same shape at OUT (also the
//       v1 -> v2 format upgrade path).  Exits 0 when the store was clean,
//       or when --repair was given and the salvage succeeded.
//
//   bmeh_cli fsck --db PATH --shard N [--repair]
//       Scrubs shard N only; with --repair heals it in place while the
//       other shards stay untouched.  Exits 0 healthy, 1 degraded, 2
//       repaired.
//
//   bmeh_cli corrupt --db FILE --page N [--byte K] [--mask M]
//       XORs one byte of physical page N with M (default 0xff) — the
//       fault-injection half of the scrub/fsck tests.
//
//   bmeh_cli trace --db PATH [--out trace.json] [--ops N] [--spans S]
//       Opens a store with a tracer attached, runs the same probe
//       workload as `stats --ops` (default N = 100), and writes the
//       recorded spans as Chrome trace-event JSON — load the file in
//       chrome://tracing or https://ui.perfetto.dev to see where the
//       operations spent their time.
//
//   bmeh_cli serve --db PATH [--addr A] [--port P] [--probe-ops N]
//                  [--oplog FILE] [--oplog-sample K] [--slow-op-us U]
//                  [--watchdog-deadline-ms D] [--watchdog-interval-ms I]
//       Opens a store (under the partial open policy, so a sharded store
//       with a down shard still serves what it can) with the full
//       telemetry plane attached and runs the exposition server until
//       SIGTERM/SIGINT: /metrics, /healthz (200 healthy / 503 degraded —
//       a shard down or opened degraded by corruption — mirroring
//       storeinfo's exit codes), /statusz, /tracez.  --port 0 (the
//       default) picks an ephemeral port; the
//       bound address is printed as "serving on ADDR:PORT".  --oplog
//       FILE writes one JSON wide event per operation (sampled 1-in-K,
//       errors and ops slower than --slow-op-us always logged).
//       --probe-ops N runs a probe workload after startup so the
//       endpoints have traffic to show.
//
//   Long-running verbs accept --serve [ADDR:]PORT to expose the same
//   plane while they run (storebuild: watch a bulk load's counters and
//   latency histograms live).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/bmeh.h"
#include "src/store/scrub.h"

namespace {

using namespace bmeh;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "bmeh_cli: %s\n", msg.c_str());
  std::exit(1);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  int GetInt(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc < 2) Die("usage: bmeh_cli COMMAND --db FILE [flags]");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) Die("expected --flag, got " + flag);
    // A flag followed by another flag (or nothing) is boolean, e.g. --json.
    if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      args.flags[flag.substr(2)] = "1";
    } else {
      args.flags[flag.substr(2)] = argv[++i];
    }
  }
  return args;
}

workload::Distribution ParseDist(const std::string& name) {
  if (name == "uniform") return workload::Distribution::kUniform;
  if (name == "normal") return workload::Distribution::kNormal;
  if (name == "clustered") return workload::Distribution::kClustered;
  if (name == "diagonal") return workload::Distribution::kDiagonal;
  if (name == "adversarial") {
    return workload::Distribution::kAdversarialPrefix;
  }
  Die("unknown distribution: " + name);
}

/// JSON string escaper for the --json expositions (quotes, backslashes,
/// and control characters; status messages are the only wild input).
std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// storeinfo on a sharded directory: aggregate shape plus one summary
/// line per shard.
int PrintShardedStoreInfo(const ShardedStoreInfo& info, bool json) {
  if (json) {
    std::printf("{\"kind\":\"sharded\",\"shards\":%d,\"shard_bits\":%d,"
                "\"page_size\":%d,\"page_count\":%llu,\"wal_records\":%llu,"
                "\"records\":%llu,\"down_shards\":%d,\"healthy\":%s,"
                "\"shard\":[",
                info.shards, info.shard_bits, info.page_size,
                static_cast<unsigned long long>(info.page_count),
                static_cast<unsigned long long>(info.wal_records),
                static_cast<unsigned long long>(info.records),
                info.down_shards,
                info.down_shards > 0 ? "false" : "true");
    for (int s = 0; s < info.shards; ++s) {
      if (s > 0) std::printf(",");
      if (!info.shard_status[s].ok()) {
        std::printf("{\"index\":%d,\"ok\":false,\"error\":%s}", s,
                    JsonStr(info.shard_status[s].ToString()).c_str());
        continue;
      }
      const StoreInfo& si = info.shard[s];
      std::printf("{\"index\":%d,\"ok\":true,\"records\":%llu,"
                  "\"wal_records\":%llu,\"generation\":%llu,"
                  "\"page_count\":%llu,\"wal_base_lsn\":%llu,"
                  "\"durable_lsn\":%llu}",
                  s, static_cast<unsigned long long>(si.records),
                  static_cast<unsigned long long>(si.wal_records),
                  static_cast<unsigned long long>(si.generation),
                  static_cast<unsigned long long>(si.page_count),
                  static_cast<unsigned long long>(si.wal_base_lsn),
                  static_cast<unsigned long long>(si.durable_lsn));
    }
    std::printf("]}\n");
    return info.down_shards > 0 ? 2 : 0;
  }
  std::printf("sharded store:    %d shards (%d routing bits)\n", info.shards,
              info.shard_bits);
  std::printf("page size:        %d\n", info.page_size);
  std::printf("pages in file:    %llu across all shards\n",
              static_cast<unsigned long long>(info.page_count));
  std::printf("write-ahead log:  %llu records across all shards\n",
              static_cast<unsigned long long>(info.wal_records));
  std::printf("records:          %llu (checkpoint + replayed log)\n",
              static_cast<unsigned long long>(info.records));
  for (int s = 0; s < info.shards; ++s) {
    if (!info.shard_status[s].ok()) {
      std::printf("shard %-11d DOWN: %s\n", s,
                  info.shard_status[s].ToString().c_str());
      continue;
    }
    const StoreInfo& si = info.shard[s];
    std::printf("shard %-11d %llu records, %llu in the WAL, "
                "generation %llu, %llu pages, LSNs [%llu, %llu]\n",
                s, static_cast<unsigned long long>(si.records),
                static_cast<unsigned long long>(si.wal_records),
                static_cast<unsigned long long>(si.generation),
                static_cast<unsigned long long>(si.page_count),
                static_cast<unsigned long long>(si.wal_base_lsn),
                static_cast<unsigned long long>(si.durable_lsn));
  }
  // Exit codes mirror the health line so scripts can branch without
  // parsing: 0 healthy, 2 degraded (unreadable shards listed above).
  if (info.down_shards > 0) {
    std::printf("health:           DEGRADED (%d of %d shards down)\n",
                info.down_shards, info.shards);
    return 2;
  }
  std::printf("health:           healthy\n");
  return 0;
}

int CmdStoreInfo(const Args& args) {
  const std::string db = args.Get("db");
  if (db.empty()) Die("storeinfo requires --db");
  const bool json = args.Has("json");
  auto inspected = ShardedStore::Inspect(db);
  if (!inspected.ok()) Die(inspected.status().ToString());
  if (!inspected->single_file) return PrintShardedStoreInfo(*inspected, json);
  const StoreInfo& info = inspected->shard[0];
  if (json) {
    std::printf("{\"kind\":\"store\",\"page_size\":%d,\"format_version\":%d,"
                "\"page_count\":%llu,\"live_pages\":%llu,\"generation\":%llu,"
                "\"image_head\":%llu,\"wal_head\":%llu,\"wal_records\":%llu,"
                "\"wal_pages\":%llu,\"wal_base_lsn\":%llu,"
                "\"durable_lsn\":%llu,\"records\":%llu,\"free_pages\":%llu,"
                "\"high_water_pages\":%llu,\"max_pages\":%llu,"
                "\"reserved_pages\":%llu,\"alloc_failures\":%llu,"
                "\"read_retries\":%llu,\"checksum_failures\":%llu,"
                "\"pages_quarantined\":%llu}\n",
                info.page_size, info.format_version,
                static_cast<unsigned long long>(info.page_count),
                static_cast<unsigned long long>(info.live_pages),
                static_cast<unsigned long long>(info.generation),
                static_cast<unsigned long long>(info.image_head),
                static_cast<unsigned long long>(info.wal_head),
                static_cast<unsigned long long>(info.wal_records),
                static_cast<unsigned long long>(info.wal_pages),
                static_cast<unsigned long long>(info.wal_base_lsn),
                static_cast<unsigned long long>(info.durable_lsn),
                static_cast<unsigned long long>(info.records),
                static_cast<unsigned long long>(info.free_pages),
                static_cast<unsigned long long>(info.high_water_pages),
                static_cast<unsigned long long>(info.max_pages),
                static_cast<unsigned long long>(info.reserved_pages),
                static_cast<unsigned long long>(info.alloc_failures),
                static_cast<unsigned long long>(info.read_retries),
                static_cast<unsigned long long>(info.checksum_failures),
                static_cast<unsigned long long>(info.pages_quarantined));
    return 0;
  }
  std::printf("page size:        %d (format v%d)\n", info.page_size,
              info.format_version);
  std::printf("pages in file:    %llu (%llu live after recovery)\n",
              static_cast<unsigned long long>(info.page_count),
              static_cast<unsigned long long>(info.live_pages));
  std::printf("generation:       %llu\n",
              static_cast<unsigned long long>(info.generation));
  if (info.image_head == kInvalidPageId) {
    std::printf("checkpoint image: none\n");
  } else {
    std::printf("checkpoint image: head page %llu\n",
                static_cast<unsigned long long>(info.image_head));
  }
  if (info.wal_head == kInvalidPageId) {
    std::printf("write-ahead log:  empty\n");
  } else {
    std::printf("write-ahead log:  %llu records in %llu pages "
                "(head page %llu)\n",
                static_cast<unsigned long long>(info.wal_records),
                static_cast<unsigned long long>(info.wal_pages),
                static_cast<unsigned long long>(info.wal_head));
  }
  std::printf("log sequence:     base %llu, durable %llu\n",
              static_cast<unsigned long long>(info.wal_base_lsn),
              static_cast<unsigned long long>(info.durable_lsn));
  std::printf("records:          %llu (checkpoint + replayed log)\n",
              static_cast<unsigned long long>(info.records));
  std::printf("integrity:        %llu read retries, %llu checksum failures, "
              "%llu pages quarantined\n",
              static_cast<unsigned long long>(info.read_retries),
              static_cast<unsigned long long>(info.checksum_failures),
              static_cast<unsigned long long>(info.pages_quarantined));
  std::printf("free pages:       %llu\n",
              static_cast<unsigned long long>(info.free_pages));
  std::printf("high water:       %llu pages\n",
              static_cast<unsigned long long>(info.high_water_pages));
  if (info.max_pages == 0) {
    std::printf("page quota:       unlimited (%llu reserved, "
                "%llu allocations refused)\n",
                static_cast<unsigned long long>(info.reserved_pages),
                static_cast<unsigned long long>(info.alloc_failures));
  } else {
    std::printf("page quota:       %llu pages (%llu reserved, "
                "%llu allocations refused)\n",
                static_cast<unsigned long long>(info.max_pages),
                static_cast<unsigned long long>(info.reserved_pages),
                static_cast<unsigned long long>(info.alloc_failures));
  }
  return 0;
}

StoreOptions MakeStoreOptions(const Args& args) {
  StoreOptions options;
  const int dims = args.GetInt("dims", 2);
  options.schema = KeySchema(dims, args.GetInt("width", 31));
  options.tree =
      TreeOptions::Make(dims, args.GetInt("b", 16), args.GetInt("phi", 6));
  options.page_size = args.GetInt("page-size", options.page_size);
  options.checkpoint_every = 0;
  options.wal_sync_every = 0;  // bulk build: one fsync at the checkpoint
  options.max_pages = static_cast<uint64_t>(args.GetInt("max-pages", 0));
  return options;
}

/// True when `path` is a BmehStore file (superblock magic at the first
/// data page).
bool IsStoreFile(const std::string& path) {
  auto file = FilePageStore::Open(path);
  if (!file.ok()) return false;
  PageId image_head, wal_head;
  uint64_t generation;
  return internal::ReadStoreSuperblock(file->get(), (*file)->first_data_page(),
                                       &image_head, &generation, &wal_head)
      .ok();
}

/// Opens the store at --db for a verb that works on an existing one
/// (stats, trace, dot, backup): a store file, or a sharded directory with
/// a readable shard.  Anything else is refused — including a missing
/// path, which Open would create — so a mistyped path never becomes a
/// store.
std::unique_ptr<ShardedStore> OpenExistingStore(
    const Args& args, const StoreOptions& store_options,
    OpenPolicy policy = OpenPolicy::kStrict) {
  const std::string db = args.Get("db");
  auto files = ShardedStore::ShardFiles(db);
  if (!files.ok() || std::none_of(files->begin(), files->end(), IsStoreFile)) {
    Die(args.command + " requires a store file or a sharded directory "
                       "(storebuild)");
  }
  ShardedStoreOptions options;
  options.store = store_options;
  options.open_policy = policy;
  auto store = ShardedStore::Open(db, options);
  if (!store.ok()) Die(store.status().ToString());
  return std::move(store).ValueOrDie();
}

/// The probe workload `stats --ops`, `trace` and `serve --probe-ops` run
/// so the latency histograms and the trace buffer have real samples:
/// `ops` exact-match gets on stored keys (sampled across shards), `ops`
/// put/delete pairs of fresh probe keys (routed wherever their ψ prefix
/// says, so every shard sees traffic), one unconstrained range query,
/// one checkpoint.  Net record count is unchanged and the store ends
/// checkpoint-clean.
void RunProbeOps(ShardedStore* store, int ops) {
  if (ops <= 0 || store->degraded()) return;
  std::vector<PseudoKey> keys;
  for (int s = 0; s < store->shards(); ++s) {
    store->shard(s)->mutable_tree()->Scan([&](const Record& rec) {
      if (static_cast<int>(keys.size()) < ops) keys.push_back(rec.key);
    });
    if (static_cast<int>(keys.size()) >= ops) break;
  }
  for (const PseudoKey& key : keys) {
    auto ignored = store->Get(key);
    (void)ignored;
  }
  workload::WorkloadSpec spec;
  spec.dims = store->schema().dims();
  spec.width = store->schema().width(0);
  spec.seed = 0x0b5e;  // distinct from the build seeds so probes miss
  auto probes = workload::GenerateKeys(spec, static_cast<uint64_t>(ops));
  for (const PseudoKey& key : probes) {
    if (store->Put(key, 0).ok()) {
      Status st = store->Delete(key);
      if (!st.ok()) Die("probe delete failed: " + st.ToString());
    }
  }
  RangePredicate pred(store->schema());
  std::vector<Record> out;
  Status st = store->Range(pred, &out);
  if (!st.ok()) Die("probe range failed: " + st.ToString());
  st = store->Checkpoint();
  if (!st.ok()) Die("probe checkpoint failed: " + st.ToString());
}

/// stats: one registry for the whole store.  A sharded directory's shards
/// share it — operation counters and latency histograms aggregate, and
/// sampled per-shard state appears under "shard<k>_" labels beside the
/// aggregate "bmeh_tree_records" etc. the facade publishes; a store file
/// publishes exactly what a BmehStore would.
int CmdStoreStats(const Args& args) {
  obs::MetricsRegistry registry;
  StoreOptions options = MakeStoreOptions(args);
  options.metrics = &registry;
  auto store = OpenExistingStore(args, options);
  RunProbeOps(store.get(), args.GetInt("ops", 0));
  // Snapshot while the store's sources are still attached, then suppress
  // the close-time checkpoint: a stats command must not rewrite a crash
  // fixture's WAL into an image behind the user's back.
  const std::string exposition = args.Has("json")
                                     ? registry.JsonExposition()
                                     : registry.TextExposition();
  store->SimulateCrashForTesting();
  std::fputs(exposition.c_str(), stdout);
  return 0;
}

int CmdDot(const Args& args) {
  auto store = OpenExistingStore(args, MakeStoreOptions(args));
  for (int s = 0; s < store->shards(); ++s) {
    std::fputs(store->shard(s)->tree().ToDot().c_str(), stdout);
  }
  store->SimulateCrashForTesting();  // see CmdStoreStats
  return 0;
}

int CmdTrace(const Args& args) {
  const std::string out_path = args.Get("out", "trace.json");
  obs::Tracer tracer(static_cast<size_t>(args.GetInt("spans", 4096)));
  obs::MetricsRegistry registry;
  StoreOptions options = MakeStoreOptions(args);
  options.tracer = &tracer;
  options.metrics = &registry;
  auto store = OpenExistingStore(args, options);
  RunProbeOps(store.get(), args.GetInt("ops", 100));
  store->SimulateCrashForTesting();  // see CmdStoreStats
  const std::string json = tracer.ToChromeTraceJson();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) Die("cannot open " + out_path + " for writing");
  if (std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
    Die("short write to " + out_path);
  }
  std::fclose(f);
  std::printf("wrote %llu spans (%llu dropped) to %s\n",
              static_cast<unsigned long long>(
                  std::min<uint64_t>(tracer.recorded(), tracer.capacity())),
              static_cast<unsigned long long>(tracer.dropped()), out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve: the live telemetry plane.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void HandleServeSignal(int) { g_serve_stop = 1; }

/// Parses a --serve value: "ADDR:PORT", ":PORT", or "PORT".  A bare
/// boolean --serve ("1" from the parser) keeps the defaults (loopback,
/// ephemeral port).  Out-parameters are only written when present.
void ParseServeSpec(const std::string& spec, std::string* addr, int* port) {
  if (spec.empty() || spec == "1") return;
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *port = std::atoi(spec.c_str());
    return;
  }
  if (colon > 0) *addr = spec.substr(0, colon);
  if (colon + 1 < spec.size()) *port = std::atoi(spec.c_str() + colon + 1);
}

/// Builds the OpLog for --oplog FILE (nullptr when the flag is absent).
/// Dies if the file cannot be opened: an operator asking for an op-log
/// and silently not getting one is worse than a failed start.
std::unique_ptr<obs::OpLog> MakeOpLog(const Args& args) {
  const std::string path = args.Get("oplog");
  if (path.empty()) return nullptr;
  std::shared_ptr<LogSink> sink = FileLineSink::OpenAppend(path);
  if (sink == nullptr) Die("cannot open --oplog file " + path);
  obs::OpLog::Options options;
  options.sample_every =
      static_cast<uint64_t>(std::max(1, args.GetInt("oplog-sample", 1)));
  options.slow_op_ns =
      static_cast<uint64_t>(args.GetInt("slow-op-us", 10000)) * 1000;
  return std::make_unique<obs::OpLog>(std::move(sink), options);
}

/// Starts the exposition server for a long-running verb's --serve flag
/// (nullptr when the flag is absent).  `registry` and `tracer` must
/// outlive the returned server; no watchdog or store-health handlers —
/// /healthz just answers "ok" while the verb runs.
std::unique_ptr<obs::ObsServer> MaybeServe(const Args& args,
                                           obs::MetricsRegistry* registry,
                                           obs::Tracer* tracer) {
  if (!args.Has("serve")) return nullptr;
  obs::ObsServer::Options options;
  ParseServeSpec(args.Get("serve"), &options.bind_addr, &options.port);
  options.metrics = registry;
  options.tracer = tracer;
  auto started = obs::ObsServer::Start(options);
  if (!started.ok()) Die(started.status().ToString());
  std::printf("serving on %s:%d\n", (*started)->bind_addr().c_str(),
              (*started)->port());
  std::fflush(stdout);
  return std::move(started).ValueOrDie();
}

/// serve: open the store with the full telemetry plane attached and run
/// the exposition server until SIGTERM/SIGINT.  The open uses
/// OpenPolicy::kPartial so a sharded store with a down shard still serves
/// what it can — /healthz then answers 503, mirroring storeinfo's exit
/// code 2.
int CmdServe(const Args& args) {
  const std::string db = args.Get("db");
  if (db.empty()) Die("serve requires --db");

  // Declaration order is teardown order in reverse: the store (declared
  // last) closes first and unregisters its heartbeats from the watchdog,
  // which must still be alive; the watchdog's monitor stops before the
  // oplog it writes stall events to goes away.
  obs::MetricsRegistry registry;
  obs::Tracer tracer(static_cast<size_t>(args.GetInt("spans", 4096)));
  std::unique_ptr<obs::OpLog> oplog = MakeOpLog(args);
  obs::Watchdog::Options watchdog_options;
  watchdog_options.check_interval_ms =
      static_cast<uint64_t>(std::max(1, args.GetInt("watchdog-interval-ms", 50)));
  watchdog_options.metrics = &registry;
  watchdog_options.oplog = oplog.get();
  obs::Watchdog watchdog(watchdog_options);

  ShardedStoreOptions options;
  options.store = MakeStoreOptions(args);
  options.store.wal_sync_every = 1;  // a served store is a live store
  options.store.metrics = &registry;
  options.store.tracer = &tracer;
  options.store.oplog = oplog.get();
  options.store.watchdog = &watchdog;
  options.store.watchdog_deadline_ms =
      static_cast<uint64_t>(std::max(1, args.GetInt("watchdog-deadline-ms", 5000)));
  options.open_policy = OpenPolicy::kPartial;
  auto opened = ShardedStore::Open(db, options);
  if (!opened.ok()) Die(opened.status().ToString());
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  ShardedStore* served = store.get();

  obs::ObsServer::Options server_options;
  server_options.bind_addr = args.Get("addr", "127.0.0.1");
  server_options.port = args.GetInt("port", 0);
  server_options.metrics = &registry;
  server_options.tracer = &tracer;
  server_options.watchdog = &watchdog;
  // /healthz mirrors storeinfo: 200 <-> exit 0 (healthy), 503 <-> exit 2
  // (degraded: a shard down, or opened degraded by corruption).  The
  // watchdog contributes independently inside the server (stalled
  // heartbeats also flip the answer to 503).
  server_options.healthz = [served]() {
    obs::ObsServer::Response response;
    if (served->degraded()) {
      const int down = served->down_shards();
      response.status = 503;
      response.body =
          down > 0 ? "DEGRADED: " + std::to_string(down) + " of " +
                         std::to_string(served->shards()) + " shards down\n"
                   : "DEGRADED: store opened degraded by corruption\n";
      return response;
    }
    response.body = "ok\n";
    return response;
  };
  // /statusz: the store's shape, then each shard's health and sampled
  // state (WAL depth, LSN watermarks — every shard has its own LSN
  // domain).  A store file is the one-shard case ("kind":"store").
  server_options.statusz = [served]() {
    obs::ObsServer::Response response;
    response.content_type = "application/json";
    std::string& body = response.body;
    body = std::string("{\"kind\":\"") +
           (served->single_file() ? "store" : "sharded") +
           "\",\"shards\":" + std::to_string(served->shards()) +
           ",\"down_shards\":" + std::to_string(served->down_shards()) +
           ",\"degraded\":" + (served->degraded() ? "true" : "false") +
           ",\"shard\":[";
    for (int s = 0; s < served->shards(); ++s) {
      if (s > 0) body += ",";
      body += "{\"index\":" + std::to_string(s) + ",\"up\":";
      StorageUnit::Ref ref = served->unit(s).Acquire();
      if (!ref) {
        body += "false}";
        continue;
      }
      const BmehStore::SampledState st = ref->SampleStateForMetrics();
      body += "true,\"records\":" + std::to_string(st.records) +
              ",\"height\":" + std::to_string(st.height) +
              ",\"generation\":" + std::to_string(st.generation) +
              ",\"wal_records\":" + std::to_string(st.wal_records) +
              ",\"dirty_ops\":" + std::to_string(st.dirty_ops) +
              ",\"wal_base_lsn\":" + std::to_string(st.wal_base_lsn) +
              ",\"durable_lsn\":" + std::to_string(st.durable_lsn) +
              ",\"degraded\":" + (ref->degraded() ? "true" : "false") + "}";
    }
    body += "]}";
    return response;
  };

  auto server = obs::ObsServer::Start(server_options);
  if (!server.ok()) Die(server.status().ToString());
  // Parseable by scripts (and cli_test.sh): with --port 0 this is the
  // only way to learn the ephemeral port.
  std::printf("serving on %s:%d\n", (*server)->bind_addr().c_str(),
              (*server)->port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);

  RunProbeOps(served, args.GetInt("probe-ops", 0));

  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  (*server)->Stop();
  std::printf("serve: shutting down (%llu requests served)\n",
              static_cast<unsigned long long>((*server)->requests_served()));
  return 0;
}

int CmdStoreBuild(const Args& args) {
  const std::string db = args.Get("db");
  if (db.empty()) Die("storebuild requires --db");
  ShardedStoreOptions options;
  options.shards = args.GetInt("shards", 0);
  options.store = MakeStoreOptions(args);
  // Stop at the first quota refusal: nothing else writes the store, so
  // retrying cannot free pages.
  options.retry.max_attempts = 1;
  obs::MetricsRegistry registry;
  obs::Tracer tracer(4096);
  std::unique_ptr<obs::ObsServer> server = MaybeServe(args, &registry, &tracer);
  if (server != nullptr) {
    options.store.metrics = &registry;
    options.store.tracer = &tracer;
  }
  const uint64_t n = static_cast<uint64_t>(args.GetInt("n", 2000));
  const uint64_t leave_wal =
      static_cast<uint64_t>(args.GetInt("leave-wal", 0));
  if (leave_wal > n) Die("--leave-wal cannot exceed --n");
  const uint64_t batch = static_cast<uint64_t>(args.GetInt("batch", 1));
  if (batch == 0) Die("--batch must be at least 1");

  workload::WorkloadSpec spec;
  spec.distribution = ParseDist(args.Get("dist", "uniform"));
  spec.dims = options.store.schema.dims();
  spec.width = options.store.schema.width(0);
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 1986));

  auto opened = ShardedStore::Open(db, options);
  if (!opened.ok()) Die(opened.status().ToString());
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  auto keys = workload::GenerateKeys(spec, n);
  uint64_t inserted = 0;
  Status exhausted = Status::OK();
  for (uint64_t i = 0; i < n;) {
    if (leave_wal > 0 && i == n - leave_wal) {
      Status st = store->Checkpoint();
      if (!st.ok()) Die(st.ToString());
    }
    // Chunks never straddle the --leave-wal checkpoint boundary.
    uint64_t limit = n;
    if (leave_wal > 0 && i < n - leave_wal) limit = n - leave_wal;
    const uint64_t take = std::min(batch, limit - i);
    WriteBatch wb;
    for (uint64_t j = i; j < i + take; ++j) wb.Put(keys[j], j);
    std::vector<Status> per_record;
    (void)store->Write(wb, &per_record);  // judged member by member
    for (const Status& rs : per_record) {
      if (rs.ok()) {
        ++inserted;
      } else if (rs.IsResourceExhausted()) {
        // A page quota filled.  The refused (sub-)batch rolled back whole
        // while any sibling sub-batches committed; stop gracefully with
        // everything acknowledged so far intact.
        exhausted = rs;
      } else if (!rs.IsAlreadyExists()) {  // the generator may repeat keys
        Die(rs.ToString());
      }
    }
    if (!exhausted.ok()) break;
    i += take;
  }
  if (leave_wal == 0) {
    Status st = store->Checkpoint();
    if (st.IsResourceExhausted()) {
      // The quota blocks the checkpoint; the acknowledged records are
      // already in the WAL.  Skip the close-time retry — it would only
      // fail the same way.
      if (exhausted.ok()) exhausted = st;
      store->SimulateCrashForTesting();
    } else if (!st.ok()) {
      Die(st.ToString());
    }
  } else {
    // Suppress the close-time checkpoint so every WAL survives and the
    // store stays exactly as a crash at this point would leave it.
    store->SimulateCrashForTesting();
  }
  uint64_t allocs = 0, refused = 0, high_water = 0, reserved = 0;
  for (int s = 0; s < store->shards(); ++s) {
    const PageStore& pages = store->shard(s)->page_store();
    allocs += pages.stats().allocs;
    refused += pages.stats().alloc_failures;
    high_water += pages.stats().high_water_pages;
    reserved += pages.reserved_pages();
  }
  std::string quota_note;
  if (store->single_file()) {
    std::printf("built store %s: %llu records (%llu in the WAL), "
                "generation %llu\n",
                db.c_str(), static_cast<unsigned long long>(inserted),
                static_cast<unsigned long long>(store->wal_records()),
                static_cast<unsigned long long>(store->shard(0)->generation()));
    quota_note = " (" + std::to_string(reserved) + " reserved)";
  } else {
    std::printf("built sharded store %s: %llu records (%llu in the WAL) "
                "across %d shards\n",
                db.c_str(), static_cast<unsigned long long>(inserted),
                static_cast<unsigned long long>(store->wal_records()),
                store->shards());
    quota_note = " per shard";
  }
  std::printf("resources:        %llu allocs, %llu refused, high water "
              "%llu pages, quota %llu%s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(high_water),
              static_cast<unsigned long long>(options.store.max_pages),
              quota_note.c_str());
  if (!exhausted.ok()) {
    std::printf("page quota exhausted after %llu records: %s\n",
                static_cast<unsigned long long>(inserted),
                exhausted.ToString().c_str());
    return 3;
  }
  return 0;
}

/// Prints `report` and returns true when the file is clean.
bool PrintScrubReport(const std::string& db, const ScrubReport& report) {
  std::printf("format version:   %d\n", report.format_version);
  std::printf("pages scanned:    %llu (%llu reachable from the superblock)\n",
              static_cast<unsigned long long>(report.pages_scanned),
              static_cast<unsigned long long>(report.pages_reachable));
  if (!report.corrupt_pages.empty()) {
    std::printf("corrupt pages:    %zu:", report.corrupt_pages.size());
    const size_t show = std::min<size_t>(report.corrupt_pages.size(), 16);
    for (size_t i = 0; i < show; ++i) {
      std::printf(" %llu",
                  static_cast<unsigned long long>(report.corrupt_pages[i]));
    }
    if (report.corrupt_pages.size() > show) std::printf(" ...");
    std::printf("\n");
  }
  for (const std::string& note : report.notes) {
    std::printf("note:             %s\n", note.c_str());
  }
  std::printf("%s: %s\n", db.c_str(),
              report.clean() ? "clean" : "CORRUPT");
  return report.clean();
}

/// The store files behind --db (see ShardedStore::ShardFiles); dies when
/// --db holds no store.
std::vector<std::string> ShardFilesOrDie(
    const Args& args, std::optional<ShardManifest>* manifest) {
  const std::string db = args.Get("db");
  if (db.empty()) Die(args.command + " requires --db");
  auto files = ShardedStore::ShardFiles(db, manifest);
  if (!files.ok()) Die(files.status().ToString());
  return std::move(files).ValueOrDie();
}

/// Scrubs every store file and prints each report; a sharded directory
/// also gets one combined verdict line.  True when every file is clean.
bool ScrubFiles(const std::string& db, const std::vector<std::string>& files,
                bool sharded) {
  bool all_clean = true;
  for (const std::string& path : files) {
    ScrubReport report;
    Status st = ScrubStore(path, &report);
    if (!st.ok()) Die(st.ToString());
    all_clean = PrintScrubReport(path, report) && all_clean;
  }
  if (sharded) {
    std::printf("%s: %s (%zu shards)\n", db.c_str(),
                all_clean ? "clean" : "CORRUPT", files.size());
  }
  return all_clean;
}

int CmdScrub(const Args& args) {
  std::optional<ShardManifest> manifest;
  const std::vector<std::string> files = ShardFilesOrDie(args, &manifest);
  return ScrubFiles(args.Get("db"), files, manifest.has_value()) ? 0 : 1;
}

/// Options for rewriting the files of a store: the flags, except that a
/// sharded directory's manifest, not the flags, is authoritative for the
/// schema and page size.
StoreOptions RewriteOptions(const Args& args,
                            const std::optional<ShardManifest>& manifest) {
  StoreOptions options = MakeStoreOptions(args);
  if (manifest.has_value()) {
    options.schema = manifest->schema;
    options.tree = TreeOptions::Make(
        manifest->schema.dims(), args.GetInt("b", 16), args.GetInt("phi", 6));
    options.page_size = manifest->page_size;
  }
  return options;
}

/// fsck scoped to one shard (`--shard N`): scrub that shard file only;
/// with `--repair` (boolean here) heal it in place through
/// ShardedStore::RepairShard — the store opens under the partial policy,
/// so a shard too damaged to open still yields a live store with a repair
/// target, and siblings are never rewritten.  Exit codes: 0 the shard is
/// healthy, 1 degraded (or repair failed via Die), 2 repaired.
int CmdFsckShard(const Args& args, const std::vector<std::string>& files,
                 const std::optional<ShardManifest>& manifest) {
  const int s = args.GetInt("shard", -1);
  if (s < 0 || s >= static_cast<int>(files.size())) {
    Die("--shard " + args.Get("shard") + " out of range (store has " +
        std::to_string(files.size()) + " shards)");
  }
  const std::string& path = files[s];
  ScrubReport report;
  Status st = ScrubStore(path, &report);
  bool clean = st.ok() && report.clean();
  if (st.ok()) {
    PrintScrubReport(path, report);
  } else {
    std::printf("%s: unreadable (%s)\n", path.c_str(), st.ToString().c_str());
  }
  if (clean) {
    std::printf("shard %d: healthy\n", s);
    return 0;
  }
  if (!args.Has("repair")) {
    std::printf("shard %d: DEGRADED\n", s);
    return 1;
  }

  ShardedStoreOptions options;
  options.store = RewriteOptions(args, manifest);
  options.store.tolerate_corruption = false;
  options.open_policy = OpenPolicy::kPartial;
  auto opened = ShardedStore::Open(args.Get("db"), options);
  if (!opened.ok()) Die(opened.status().ToString());
  auto store = std::move(opened).ValueOrDie();
  ShardRepairReport repair;
  st = store->RepairShard(s, &repair);
  if (!st.ok()) {
    Die("repair failed on shard " + std::to_string(s) + ": " + st.ToString());
  }
  store.reset();  // clean close: a checkpoint per shard
  if (repair.salvaged) {
    std::printf("shard %d: repaired (salvaged %llu records%s)\n", s,
                static_cast<unsigned long long>(
                    repair.salvage.records_recovered),
                repair.salvage.used_sweep ? ", via brute-force page sweep"
                                          : "");
  } else {
    std::printf("shard %d: repaired (clean reopen)\n", s);
  }
  return 2;
}

int CmdFsck(const Args& args) {
  std::optional<ShardManifest> manifest;
  const std::vector<std::string> files = ShardFilesOrDie(args, &manifest);
  if (args.Has("shard")) return CmdFsckShard(args, files, manifest);
  const std::string db = args.Get("db");
  const bool clean = ScrubFiles(db, files, manifest.has_value());
  if (!args.Has("repair")) return clean ? 0 : 1;

  // Salvage into a fresh store of the same shape at OUT: a store file into
  // a store file, a sharded directory shard by shard under the same
  // manifest — shard-local damage stays shard-local, so siblings salvage
  // completely even when one shard needs the brute-force sweep.
  const std::string out = args.Get("repair");
  std::vector<std::string> targets{out};
  std::string across;
  if (manifest.has_value()) {
    Status st = ShardedStore::WriteManifest(out, *manifest);
    if (!st.ok()) Die("repair failed: " + st.ToString());
    targets.clear();
    for (int s = 0; s < manifest->shards; ++s) {
      targets.push_back(ShardedStore::ShardPath(out, s));
    }
    across = " across " + std::to_string(manifest->shards) + " shards";
  }
  const StoreOptions salvage_options = RewriteOptions(args, manifest);
  uint64_t recovered = 0;
  bool degraded = false;
  bool swept = false;
  for (size_t s = 0; s < files.size(); ++s) {
    SalvageReport salvage;
    Status st = SalvageStore(files[s], targets[s], salvage_options, &salvage);
    if (!st.ok()) Die("repair failed on " + files[s] + ": " + st.ToString());
    recovered += salvage.records_recovered;
    degraded |= salvage.source_degraded;
    swept |= salvage.used_sweep;
  }
  std::printf("salvaged %llu records into %s%s%s%s\n",
              static_cast<unsigned long long>(recovered), out.c_str(),
              across.c_str(), degraded ? " (source was degraded)" : "",
              swept ? " (via brute-force page sweep)" : "");
  return 0;
}

/// backup --db SRC --out SETDIR [--base PREV] [--archive DIR]: online
/// backup of a store.  The source is opened read-only in effect — the
/// close-time checkpoint is suppressed so a crash fixture's WAL survives
/// the backup unchanged.  A store file backs up into a plain BACKUPSET
/// set, a sharded directory into a SHARDBACKUP set of per-shard sets.
int CmdBackup(const Args& args) {
  const std::string db = args.Get("db");
  const std::string out = args.Get("out");
  if (db.empty()) Die("backup requires --db");
  if (out.empty()) Die("backup requires --out");
  BackupOptions bopts;
  bopts.base_set = args.Get("base");
  bopts.wal_archive_dir = args.Get("archive");
  if (args.Has("incremental") && bopts.base_set.empty()) {
    Die("--incremental requires --base PREV (the set to extend)");
  }
  StoreOptions options = MakeStoreOptions(args);
  options.wal_archive_dir = args.Get("archive");
  // Partial policy: a down shard degrades the backup (recorded in the
  // super-manifest) instead of refusing to back up its siblings.
  auto store = OpenExistingStore(args, options, OpenPolicy::kPartial);

  if (store->single_file()) {
    auto run = BackupStore::Run(store->shard(0), out, bopts);
    store->SimulateCrashForTesting();  // keep the source untouched
    if (!run.ok()) Die(run.status().ToString());
    std::printf("backed up %s into %s: %s set, LSNs [%llu, %llu], "
                "%llu payload bytes\n",
                db.c_str(), out.c_str(),
                run->incremental ? "incremental" : "full",
                static_cast<unsigned long long>(run->base_lsn),
                static_cast<unsigned long long>(run->watermark),
                static_cast<unsigned long long>(run->bytes));
    return 0;
  }
  auto run = store->Backup(out, bopts);
  store->SimulateCrashForTesting();  // keep the source untouched
  if (!run.ok()) Die(run.status().ToString());
  uint64_t high = 0;
  for (uint64_t w : run->watermark) high = std::max(high, w);
  std::printf("backed up %s into %s: %d shards (%d failed), "
              "%llu payload bytes, watermark %llu\n",
              db.c_str(), out.c_str(), run->shards, run->failed,
              static_cast<unsigned long long>(run->bytes),
              static_cast<unsigned long long>(high));
  for (int s = 0; s < run->shards; ++s) {
    if (!run->shard_status[s].ok()) {
      std::printf("shard %-11d FAILED: %s\n", s,
                  run->shard_status[s].ToString().c_str());
    }
  }
  if (run->failed > 0) {
    std::printf("backup set is PARTIAL (%d of %d shards)\n",
                run->shards - run->failed, run->shards);
    return 2;
  }
  return 0;
}

/// restore --set SETDIR --db DEST [--to-lsn N]: point-in-time restore
/// into a fresh store.  Corrupt, torn, or gapped sets are refused with
/// exit 1 and nothing written at DEST.
int CmdRestore(const Args& args) {
  const std::string set = args.Get("set");
  const std::string db = args.Get("db");
  if (set.empty()) Die("restore requires --set");
  if (db.empty()) Die("restore requires --db");
  RestoreOptions ropts;
  ropts.to_lsn = std::strtoull(args.Get("to-lsn", "0").c_str(), nullptr, 10);

  if (ShardedStore::IsShardedBackupDir(set)) {
    auto run = ShardedStore::Restore(set, db, ropts);
    if (!run.ok()) Die(run.status().ToString());
    std::printf("restored %s into %s: %d shards (%d failed)\n", set.c_str(),
                db.c_str(), run->shards, run->failed);
    for (int s = 0; s < run->shards; ++s) {
      if (run->shard_status[s].ok()) {
        std::printf("shard %-11d replayed to LSN %llu\n", s,
                    static_cast<unsigned long long>(run->replay_lsn[s]));
      } else {
        std::printf("shard %-11d FAILED: %s\n", s,
                    run->shard_status[s].ToString().c_str());
      }
    }
    if (run->failed > 0) {
      std::printf("restore is PARTIAL (%d of %d shards; the store opens "
                  "degraded)\n",
                  run->shards - run->failed, run->shards);
      return 2;
    }
    return 0;
  }

  auto run = RestoreStore::Run(set, db, ropts);
  if (!run.ok()) Die(run.status().ToString());
  std::printf("restored %s into %s: replayed %llu records to LSN %llu\n",
              set.c_str(), db.c_str(),
              static_cast<unsigned long long>(run->records_replayed),
              static_cast<unsigned long long>(run->replay_lsn));
  return 0;
}

int CmdCorrupt(const Args& args) {
  const std::string db = args.Get("db");
  if (db.empty()) Die("corrupt requires --db");
  if (!args.Has("page")) Die("corrupt requires --page");
  const PageId page = static_cast<PageId>(args.GetInt("page", 0));
  const uint8_t mask = static_cast<uint8_t>(args.GetInt("mask", 0xff));
  if (mask == 0) Die("--mask 0 would leave the page unchanged");

  long physical = 0;
  uint64_t page_count = 0;
  {
    auto file = FilePageStore::Open(db);
    if (!file.ok()) Die(file.status().ToString());
    physical = (*file)->page_size() +
               ((*file)->format_version() >= FilePageStore::kPageFormatV2
                    ? FilePageStore::kPageTrailerSize
                    : 0);
    page_count = (*file)->page_count();
  }  // closes the fd (and its advisory lock) before the raw write below
  if (page >= page_count) {
    Die("--page " + std::to_string(page) + " out of range (file has " +
        std::to_string(page_count) + " pages)");
  }
  const long byte = args.GetInt("byte", 0) % physical;

  std::FILE* f = std::fopen(db.c_str(), "r+b");
  if (f == nullptr) Die("cannot open " + db + " for writing");
  const long off = static_cast<long>(page) * physical + byte;
  uint8_t b = 0;
  if (std::fseek(f, off, SEEK_SET) != 0 || std::fread(&b, 1, 1, f) != 1) {
    Die("cannot read byte at offset " + std::to_string(off));
  }
  b ^= mask;
  if (std::fseek(f, off, SEEK_SET) != 0 || std::fwrite(&b, 1, 1, f) != 1) {
    Die("cannot write byte at offset " + std::to_string(off));
  }
  std::fclose(f);
  std::printf("flipped page %llu byte %ld with mask 0x%02x in %s\n",
              static_cast<unsigned long long>(page), byte, mask, db.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  if (args.command == "stats") return CmdStoreStats(args);
  if (args.command == "dot") return CmdDot(args);
  if (args.command == "storeinfo") return CmdStoreInfo(args);
  if (args.command == "storebuild") return CmdStoreBuild(args);
  if (args.command == "backup") return CmdBackup(args);
  if (args.command == "restore") return CmdRestore(args);
  if (args.command == "scrub") return CmdScrub(args);
  if (args.command == "fsck") return CmdFsck(args);
  if (args.command == "corrupt") return CmdCorrupt(args);
  if (args.command == "trace") return CmdTrace(args);
  if (args.command == "serve") return CmdServe(args);
  Die("unknown command: " + args.command);
}
