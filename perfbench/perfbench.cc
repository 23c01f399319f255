// perfbench: the repository's benchmark.  It runs one named workload from
// a seed against a 4-shard ShardedStore deployed the way `bmeh_cli serve`
// deploys one (default StoreOptions, wal_sync_every = 1, a MetricsRegistry
// attached; no tracer, op-log or watchdog), checks every result, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics — as one JSON object on the last line of stdout.  The line
// before it stamps the environment.  See perfbench/README.md.
//
//   perfbench --workload point_get|range_scan|hot_update --seed N
//             --seconds S --trace 0|1 --store-dir DIR
//             [--records N] [--commit HASH] [--spans FILE]

#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/ladder.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using bmeh::PseudoKey;
using bmeh::Status;

constexpr int kShards = 4;
constexpr size_t kPreloadBatch = 256;
/// setup_s is the median of this many complete set-ups; the last one is
/// the store the workload runs on.
constexpr int kSetups = 3;
constexpr uint64_t kCheckpointEvery = 20000;
/// Range queries whose result count is checked against a full count over
/// the generated keys (the first ones of the run, boxes and slabs alike).
constexpr uint64_t kBruteForceQueries = 32;
/// A user byte is 4 bytes per key dimension plus the 8-byte payload; a
/// Delete carries the key only.
constexpr uint64_t kPutUserBytes = 2 * 4 + 8;
constexpr uint64_t kDeleteUserBytes = 2 * 4;

/// Work per second of --seconds.  A run does a fixed amount of work, so
/// counts repeat exactly.  On the 4-core x86-64 sandbox that defined the
/// benchmark, one --seconds of this work took 0.75 s when the host was
/// quiet and up to 1.1 s under neighbours' load.
constexpr uint64_t kGetsPerClientSecond = 270000;
constexpr uint64_t kQueriesPerSecond = 1200;
constexpr uint64_t kCommitsPerSecond = 8000;
/// Untimed warm-up before the measured phase.
constexpr uint64_t kWarmGetsPerClient = 20000;
constexpr uint64_t kWarmQueries = 50;
constexpr uint64_t kWarmCommits = 2000;
/// Stream ids: the measured phase and the warm-up draw disjoint streams.
constexpr uint64_t kMeasuredStreams = 0;
constexpr uint64_t kWarmStreams = 1000;

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string store_dir;
  uint64_t records = 1000000;
  std::string commit = "unknown";
  std::string spans_path;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && *end == '\0';
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) o->workload = &w;
      }
      if (o->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seed" && numeric) {
      o->seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && numeric && number >= 1 &&
               number <= 600) {
      o->seconds = static_cast<int>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o->trace = value == "1";
    } else if (flag == "--store-dir" && !value.empty()) {
      o->store_dir = value;
    } else if (flag == "--records" && numeric && number >= 1000 &&
               number <= (uint64_t{1} << 40)) {
      o->records = number;
    } else if (flag == "--commit") {
      o->commit = value;
    } else if (flag == "--spans") {
      o->spans_path = value;
    } else {
      std::fprintf(stderr, "bad argument %s %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (o->workload == nullptr || !have_seed || o->seconds == 0 ||
      o->store_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --store-dir DIR [--records N] [--commit HASH] "
                 "[--spans FILE]\n");
    return false;
  }
  return true;
}

/// Counts checked operations and the ones whose outcome was wrong.
class Checker {
 public:
  void Expect(bool ok, const char* what) {
    ++attempted_;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    if (++failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void Merge(const Checker& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  void Add(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

uint64_t Pack(const PseudoKey& key) {
  return (uint64_t{key.component(0)} << KeySpace::kWidth) | key.component(1);
}

int CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool IsTmpfs(const std::string& dir) {
  struct statfs st;
  constexpr long kTmpfsMagic = 0x01021994;
  return statfs(dir.c_str(), &st) == 0 && st.f_type == kTmpfsMagic;
}

/// A field of a /proc/self file ("VmHWM:", "wchar:"), 0 when absent.
uint64_t ProcField(const char* file, const std::string& field) {
  std::ifstream in(file);
  std::string name;
  uint64_t value = 0;
  while (in >> name) {
    if (name == field && in >> value) return value;
  }
  return 0;
}

/// Bytes this process has handed to write(2)/pwrite(2) so far.
uint64_t BytesWritten() { return ProcField("/proc/self/io", "wchar:"); }

/// The store under test: kShards FilePageStore devices under `dir`,
/// optionally wrapped in the timing decorator, behind one ShardedStore
/// with a MetricsRegistry attached.  Closing it deletes its files.
class Deployment {
 public:
  static std::unique_ptr<Deployment> Open(const std::string& dir,
                                          bool skip_fsync, bool timed,
                                          Status* st) {
    std::unique_ptr<Deployment> d(new Deployment);
    std::vector<std::unique_ptr<bmeh::PageStore>> devices;
    for (int s = 0; s < kShards; ++s) {
      d->paths_.push_back(dir + "/shard-" + std::to_string(s) + ".bmeh");
      auto file = bmeh::FilePageStore::Create(d->paths_.back());
      if (!file.ok()) {
        *st = file.status();
        return nullptr;
      }
      std::unique_ptr<bmeh::FilePageStore> device =
          std::move(file).ValueOrDie();
      if (skip_fsync) device->DisableFsyncForTesting();
      if (timed) {
        devices.push_back(
            std::make_unique<TimingPageStore>(std::move(device)));
      } else {
        devices.push_back(std::move(device));
      }
    }
    bmeh::ShardedStoreOptions options;
    options.shards = kShards;
    options.store.wal_sync_every = 1;  // as `bmeh_cli serve` sets it
    options.store.metrics = &d->registry_;
    auto opened = bmeh::ShardedStore::Open(std::move(devices), options);
    if (!opened.ok()) {
      *st = opened.status();
      return nullptr;
    }
    d->store_ = std::move(opened).ValueOrDie();
    return d;
  }

  ~Deployment() {
    store_.reset();
    std::error_code ignored;
    for (const std::string& path : paths_) fs::remove(path, ignored);
  }

  bmeh::ShardedStore* store() { return store_.get(); }
  bmeh::obs::MetricsRegistry& registry() { return registry_; }

  uint64_t FileBytes() const {
    uint64_t bytes = 0;
    std::error_code ec;
    for (const std::string& path : paths_) {
      const uintmax_t size = fs::file_size(path, ec);
      if (!ec) bytes += size;
    }
    return bytes;
  }

 private:
  Deployment() = default;
  bmeh::obs::MetricsRegistry registry_;
  std::vector<std::string> paths_;
  std::unique_ptr<bmeh::ShardedStore> store_;
};

/// Everything a run shares: options, inputs, and where the store lives.
struct Run {
  Options options;
  KeySpace keys;
  Draws draws;
  bmeh::KeySchema schema{2, KeySpace::kWidth};
  std::string dir;  ///< This process's directory under --store-dir.
  bool tmpfs = false;
  /// The loaded keys, packed, in serial order (filled by each set-up).
  std::vector<uint64_t> packed;

  explicit Run(const Options& o)
      : options(o),
        keys(o.seed),
        draws(o.workload->kind, o.records) {}

  uint64_t records() const { return options.records; }
  /// Off tmpfs, Sync skips the fsync call itself so the figures stay the
  /// CPU and syscall cost they are on tmpfs, where fsync is a no-op.
  bool skip_fsync() const { return !tmpfs; }
};

/// Key generation, a preload through ShardedStore::Write in batches of
/// kPreloadBatch, and one Checkpoint: the timed set-up.
std::unique_ptr<Deployment> SetUp(Run& run, bool timed, SpanSink* sink,
                                  Checker* check, double* seconds) {
  const uint64_t t0 = NowNs();
  const uint64_t n = run.records();
  run.packed.resize(n);
  for (uint64_t i = 0; i < n; ++i) run.packed[i] = run.keys.Packed(i);

  Status st;
  std::unique_ptr<Deployment> d =
      Deployment::Open(run.dir, run.skip_fsync(), timed, &st);
  if (d == nullptr) {
    check->Fail("open: " + st.ToString());
    return nullptr;
  }
  bmeh::ShardedStore* store = d->store();
  bmeh::WriteBatch batch;
  std::vector<Status> per_record;
  for (uint64_t i = 0; i < n; ++i) {
    batch.Put(KeySpace::Unpack(run.packed[i]), i);
    if (batch.size() == kPreloadBatch || i + 1 == n) {
      {
        RequestSpan span(sink, SpanKind::kWrite);
        st = store->Write(batch, &per_record);
      }
      check->Expect(st.ok(), "preload batch");
      for (const Status& rec : per_record) {
        check->Expect(rec.ok(), "preload record");
      }
      batch.Clear();
    }
  }
  {
    RequestSpan span(sink, SpanKind::kCheckpoint);
    st = store->Checkpoint();
  }
  check->Expect(st.ok(), "set-up checkpoint");
  *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return d;
}

/// One measured (or warm-up) phase's outcome.
struct PhaseResult {
  LatencyHistogram op;
  LatencyHistogram aux;
  double op_seconds = 0;   ///< Wall time over which the ops ran.
  double aux_seconds = 0;  ///< Wall time over which the aux ops ran.
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
  uint64_t user_bytes = 0;  ///< User bytes written (see kPutUserBytes).
  Checker check;
};

/// One client thread's share of a phase.
struct Client {
  LatencyHistogram op;
  LatencyHistogram aux;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
  uint64_t user_bytes = 0;
  Checker check;
  SpanSink* sink = nullptr;
};

/// Runs `body(client, index)` on `n` threads and folds their results.
template <typename Body>
std::vector<std::unique_ptr<Client>> RunClients(int n, Tracer* tracer,
                                                Body body) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < n; ++t) {
    clients.push_back(std::make_unique<Client>());
    if (tracer != nullptr) clients.back()->sink = tracer->NewSink();
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      Client& c = *clients[t];
      c.start_ns = NowNs();
      body(c, t);
      c.end_ns = NowNs();
    });
  }
  for (std::thread& th : threads) th.join();
  return clients;
}

/// Checks a Get of `serial`: a loaded key returns its serial, an absent
/// one KeyError.  While hot_update runs, a loaded key may be between its
/// Delete and its Put, so KeyError is valid there too.
void CheckGet(const bmeh::Result<uint64_t>& r, uint64_t serial,
              uint64_t records, bool may_be_deleted, Checker* check) {
  if (r.ok()) {
    check->Expect(serial < records && r.ValueOrDie() == serial,
                  "get returned a wrong payload");
  } else if (r.status().IsKeyError()) {
    check->Expect(serial >= records || may_be_deleted,
                  "get missed a loaded key");
  } else {
    check->Fail("get: " + r.status().ToString());
  }
}

PhaseResult PointGet(const Run& run, bmeh::ShardedStore* store,
                     uint64_t gets_per_client, uint64_t streams,
                     Tracer* tracer) {
  const uint64_t n = run.records();
  auto clients = RunClients(run.options.workload->clients, tracer,
                            [&](Client& c, int t) {
    Rng rng = Stream(run.options.seed, streams + static_cast<uint64_t>(t));
    for (uint64_t i = 0; i < gets_per_client; ++i) {
      const uint64_t serial = run.draws.Read(rng);
      const PseudoKey key = run.keys.Key(serial);
      const uint64_t t0 = NowNs();
      bmeh::Result<uint64_t> r{uint64_t{0}};
      {
        RequestSpan span(c.sink, SpanKind::kGet);
        r = store->Get(key);
      }
      const uint64_t t1 = NowNs();
      (serial < n ? c.op : c.aux).Record(t1 - t0);
      CheckGet(r, serial, n, /*may_be_deleted=*/false, &c.check);
    }
  });
  PhaseResult p;
  uint64_t start = UINT64_MAX, end = 0;
  for (const auto& c : clients) {
    p.op.Merge(c->op);
    p.aux.Merge(c->aux);
    p.check.Merge(c->check);
    start = std::min(start, c->start_ns);
    end = std::max(end, c->end_ns);
  }
  p.op_seconds = p.aux_seconds = static_cast<double>(end - start) * 1e-9;
  return p;
}

/// Checks one range result: status, predicate, genuine records (a
/// payload is the serial whose key it is stored under), and strictly
/// increasing ψ order.
void CheckRange(const Run& run, const Query& q, const Status& st,
                const std::vector<bmeh::Record>& out, Checker* check) {
  if (!st.ok()) {
    check->Fail("range: " + st.ToString());
    return;
  }
  bool ok = true;
  for (size_t i = 0; i < out.size() && ok; ++i) {
    const bmeh::Record& r = out[i];
    ok = q.pred.Matches(r.key) && r.payload < run.records() &&
         run.keys.Packed(r.payload) == Pack(r.key) &&
         (i == 0 ||
          bmeh::ShardRouter::PsiLess(out[i - 1].key, r.key, run.schema));
  }
  check->Expect(ok, "range result out of predicate, payload or psi order");
}

uint64_t BruteForceCount(const Run& run, const Query& q) {
  uint64_t count = 0;
  const uint32_t lo0 = q.pred.lo(0), hi0 = q.pred.hi(0);
  const uint32_t lo1 = q.pred.lo(1), hi1 = q.pred.hi(1);
  for (const uint64_t p : run.packed) {
    const uint32_t c0 = static_cast<uint32_t>(p >> KeySpace::kWidth);
    const uint32_t c1 = static_cast<uint32_t>(p & KeySpace::kMaxComponent);
    count += c0 >= lo0 && c0 <= hi0 && c1 >= lo1 && c1 <= hi1;
  }
  return count;
}

PhaseResult RangeScan(const Run& run, bmeh::ShardedStore* store,
                      uint64_t queries, uint64_t streams, Tracer* tracer) {
  std::vector<std::pair<Query, uint64_t>> sampled;  // (query, result count)
  auto clients = RunClients(1, tracer, [&](Client& c, int) {
    Rng rng = Stream(run.options.seed, streams);
    std::vector<bmeh::Record> out;
    for (uint64_t i = 0; i < queries; ++i) {
      const Query q = MakeQuery(rng, run.schema, i);
      const uint64_t t0 = NowNs();
      Status st;
      {
        RequestSpan span(c.sink, SpanKind::kRange);
        st = store->Range(q.pred, &out);
      }
      const uint64_t t1 = NowNs();
      (q.box ? c.op : c.aux).Record(t1 - t0);
      CheckRange(run, q, st, out, &c.check);
      if (i < kBruteForceQueries) sampled.emplace_back(q, out.size());
    }
  });
  PhaseResult p;
  Client& c = *clients[0];
  p.op = c.op;
  p.aux = c.aux;
  p.check = c.check;
  p.op_seconds = p.aux_seconds =
      static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
  for (const auto& [q, count] : sampled) {
    p.check.Expect(BruteForceCount(run, q) == count,
                   "range result count differs from a full count");
  }
  return p;
}

PhaseResult HotUpdate(const Run& run, bmeh::ShardedStore* store,
                      uint64_t commits, uint64_t streams, Tracer* tracer) {
  const uint64_t n = run.records();
  std::atomic<bool> writer_done{false};
  auto clients = RunClients(2, tracer, [&](Client& c, int t) {
    Rng rng = Stream(run.options.seed, streams + static_cast<uint64_t>(t));
    if (t == 0) {  // The writer: Delete then Put of one key, commit by commit.
      uint64_t serial = 0;
      for (uint64_t i = 0; i < commits; ++i) {
        const bool del = i % 2 == 0;
        if (del) serial = run.draws.Update(rng);
        const PseudoKey key = run.keys.Key(serial);
        const uint64_t t0 = NowNs();
        Status st;
        {
          RequestSpan span(c.sink, del ? SpanKind::kDelete : SpanKind::kPut);
          st = del ? store->Delete(key) : store->Put(key, serial);
        }
        c.op.Record(NowNs() - t0);
        c.check.Expect(st.ok(), del ? "delete of a loaded key" : "put back");
        ++c.commits;
        c.user_bytes += del ? kDeleteUserBytes : kPutUserBytes;
        if ((i + 1) % kCheckpointEvery == 0) {
          {
            RequestSpan span(c.sink, SpanKind::kCheckpoint);
            st = store->Checkpoint();
          }
          c.check.Expect(st.ok(), "checkpoint");
          ++c.checkpoints;
        }
      }
      writer_done.store(true, std::memory_order_release);
      return;
    }
    while (!writer_done.load(std::memory_order_acquire)) {  // The reader.
      const uint64_t serial = run.draws.Read(rng);
      const PseudoKey key = run.keys.Key(serial);
      const uint64_t t0 = NowNs();
      bmeh::Result<uint64_t> r{uint64_t{0}};
      {
        RequestSpan span(c.sink, SpanKind::kGet);
        r = store->Get(key);
      }
      c.aux.Record(NowNs() - t0);
      CheckGet(r, serial, n, /*may_be_deleted=*/true, &c.check);
    }
  });
  PhaseResult p;
  const Client& w = *clients[0];
  const Client& r = *clients[1];
  p.op = w.op;
  p.aux = r.aux;
  p.check.Merge(w.check);
  p.check.Merge(r.check);
  p.op_seconds = static_cast<double>(w.end_ns - w.start_ns) * 1e-9;
  p.aux_seconds = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  p.commits = w.commits;
  p.checkpoints = w.checkpoints;
  p.user_bytes = w.user_bytes;
  return p;
}

/// The workload's phase; `warm` selects the short untimed warm-up.
PhaseResult RunPhase(const Run& run, bmeh::ShardedStore* store, bool warm,
                     Tracer* tracer) {
  const uint64_t secs = static_cast<uint64_t>(run.options.seconds);
  const uint64_t streams = warm ? kWarmStreams : kMeasuredStreams;
  switch (run.options.workload->kind) {
    case Workload::kPointGet:
      return PointGet(run, store, warm ? kWarmGetsPerClient
                                       : kGetsPerClientSecond * secs,
                      streams, tracer);
    case Workload::kRangeScan:
      return RangeScan(run, store, warm ? kWarmQueries
                                        : kQueriesPerSecond * secs,
                       streams, tracer);
    case Workload::kHotUpdate:
      break;
  }
  return HotUpdate(run, store, warm ? kWarmCommits : kCommitsPerSecond * secs,
                   streams, tracer);
}

/// Checks the store after a phase: every loaded key still present (a
/// hot_update run ends each Delete with its Put), no shard down.
void CheckStore(const Run& run, bmeh::ShardedStore* store, Checker* check) {
  check->Expect(store->records() == run.records(),
                "record count changed over the run");
  check->Expect(store->down_shards() == 0 && !store->degraded(),
                "a shard is down or degraded");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Prints the environment stamp line, then the result line.
void Report(const Run& run, const std::vector<Metric>& metrics,
            const Checker& check, const std::string& detail) {
  const Options& o = run.options;
  std::string env = "{\"env\": {";
  env += "\"nproc\": " + std::to_string(CpuCount());
  env += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  env += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  env += ", \"commit\": " + JsonString(o.commit);
  env += ", \"workload\": " + JsonString(o.workload->name);
  env += ", \"seed\": " + std::to_string(o.seed);
  env += ", \"records\": " + std::to_string(o.records);
  env += ", \"seconds\": " + std::to_string(o.seconds);
  env += ", \"trace\": " + std::string(o.trace ? "true" : "false");
  env += ", \"client_threads\": " + std::to_string(o.workload->clients);
  env += ", \"shards\": " + std::to_string(kShards);
  env += ", \"op\": " + JsonString(o.workload->op);
  env += ", \"aux\": " + JsonString(o.workload->aux);
  env += ", \"store_dir\": " + JsonString(run.dir);
  env += ", \"store_dir_tmpfs\": " + std::string(run.tmpfs ? "true" : "false");
  env += ", \"fsync\": " +
         JsonString(run.tmpfs ? "called per commit (tmpfs: page-cache no-op)"
                              : "skipped (store dir is not tmpfs)");
  env += "}, \"detail\": {" + detail + "}}";
  std::printf("%s\n", env.c_str());

  bool finite = true;
  std::string line = "{\"correct\": ";
  std::string body;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    if (!body.empty()) body += ", ";
    body += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = check.failed() == 0 && finite;
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(check.attempted());
  line += ", \"failed\": " + std::to_string(check.failed());
  line += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Field(const std::string& name, double v) {
  return JsonString(name) + ": " + JsonNumber(v);
}

/// The untraced run: end-to-end metrics.
int RunEndToEnd(Run& run) {
  Checker check;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  uint64_t written0 = 0;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();  // The previous set-up's store closes and its files go.
    written0 = BytesWritten();
    double seconds = 0;
    d = SetUp(run, /*timed=*/false, nullptr, &check, &seconds);
    if (d == nullptr) break;
    setup_s.push_back(seconds);
  }
  if (d == nullptr) {
    Report(run, {}, check, "");
    return 1;
  }
  bmeh::ShardedStore* store = d->store();
  PhaseResult warm = RunPhase(run, store, /*warm=*/true, nullptr);
  check.Merge(warm.check);
  PhaseResult m = RunPhase(run, store, /*warm=*/false, nullptr);
  check.Merge(m.check);
  CheckStore(run, store, &check);
  const double user_bytes =
      static_cast<double>(run.records() * kPutUserBytes + warm.user_bytes +
                          m.user_bytes);
  const double written = static_cast<double>(BytesWritten() - written0);
  const double live = static_cast<double>(run.records() * kPutUserBytes);

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", Ratio(m.op.count(), m.op_seconds), "1/s"},
      {"aux_per_s", Ratio(m.aux.count(), m.aux_seconds), "1/s"},
      {"op_p50_us", m.op.Percentile(0.50) / 1e3, "us"},
      {"op_p99_us", m.op.Percentile(0.99) / 1e3, "us"},
      {"aux_p50_us", m.aux.Percentile(0.50) / 1e3, "us"},
      {"aux_p99_us", m.aux.Percentile(0.99) / 1e3, "us"},
      {"rss_mb", ProcField("/proc/self/status", "VmHWM:") / 1024.0, "MB"},
      {"space_amp", static_cast<double>(d->FileBytes()) / live, "ratio"},
      {"write_amp", written / user_bytes, "ratio"},
  };
  std::string detail = Field("op_samples", m.op.count());
  detail += ", " + Field("aux_samples", m.aux.count());
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail += ", " + Field("setup_s_" + std::to_string(i), setup_s[i]);
  }
  detail += ", " + Field("commits", m.commits);
  detail += ", " + Field("checkpoints", m.checkpoints);
  d.reset();
  Report(run, metrics, check, detail);
  return 0;
}

struct MutationTotals {
  uint64_t splits = 0;
  uint64_t merges = 0;
};

MutationTotals Mutations(bmeh::ShardedStore* store) {
  MutationTotals t;
  for (int s = 0; s < store->shards(); ++s) {
    const bmeh::BmehMutationStats& m =
        store->shard(s)->tree().mutation_stats();
    t.splits += m.page_splits + m.node_splits + m.forced_splits;
    t.merges += m.page_merges + m.node_merges;
  }
  return t;
}

/// The read-path counters of the store's registry.
struct ReadCounters {
  uint64_t reads = 0;
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
  uint64_t retried = 0;  ///< Reads that needed a retry and then succeeded.

  static ReadCounters Sample(const bmeh::obs::MetricsRegistry& registry) {
    const bmeh::obs::RegistrySnapshot s = registry.Snapshot();
    ReadCounters c;
    c.reads = s.counter("store_gets_total") + s.counter("store_ranges_total");
    c.retries = s.counter("store_read_retries_total");
    c.fallbacks = s.counter("store_read_fallbacks_total");
    for (const char* h :
         {"search_retried_latency_ns", "range_retried_latency_ns"}) {
      if (const auto* hist = s.histogram(h)) c.retried += hist->count;
    }
    return c;
  }
};

/// The traced run: per-layer metrics.
int RunTraced(Run& run) {
  Checker check;
  const uint64_t n = run.records();
  double seconds = 0;

  // Reference: the same set-up, warm-up and work, untraced, for
  // trace.overhead_pct.
  double untraced_ops = 0;
  {
    std::unique_ptr<Deployment> d =
        SetUp(run, /*timed=*/false, nullptr, &check, &seconds);
    if (d == nullptr) {
      Report(run, {}, check, "");
      return 1;
    }
    check.Merge(RunPhase(run, d->store(), true, nullptr).check);
    PhaseResult m = RunPhase(run, d->store(), false, nullptr);
    check.Merge(m.check);
    untraced_ops = Ratio(m.op.count(), m.op_seconds);
  }

  Tracer tracer;
  SpanSink* main_sink = tracer.NewSink();
  bmeh::epoch::EpochManager* epoch = bmeh::epoch::EpochManager::Global();
  const uint64_t written0 = BytesWritten();
  const uint64_t retired0 = epoch->Stats().retired_total;
  std::unique_ptr<Deployment> d =
      SetUp(run, /*timed=*/true, main_sink, &check, &seconds);
  if (d == nullptr) {
    Report(run, {}, check, "");
    return 1;
  }
  bmeh::ShardedStore* store = d->store();
  const uint64_t retired_setup = epoch->Stats().retired_total - retired0;

  PhaseResult warm = RunPhase(run, store, true, nullptr);  // Untraced.
  check.Merge(warm.check);
  tracer.set_phase(kMeasuredPhase);
  const MutationTotals mut0 = Mutations(store);
  const ReadCounters reads0 = ReadCounters::Sample(d->registry());
  const uint64_t retired1 = epoch->Stats().retired_total;
  PhaseResult m = RunPhase(run, store, false, &tracer);
  check.Merge(m.check);
  CheckStore(run, store, &check);
  const MutationTotals mut1 = Mutations(store);
  const ReadCounters reads1 = ReadCounters::Sample(d->registry());
  const bmeh::epoch::EpochStats epoch_end = epoch->Stats();
  const double user_bytes = static_cast<double>(
      n * kPutUserBytes + warm.user_bytes + m.user_bytes);
  const double write_amp =
      static_cast<double>(BytesWritten() - written0) / user_bytes;
  const double space_amp = static_cast<double>(d->FileBytes()) /
                           static_cast<double>(n * kPutUserBytes);

  LadderInput in;
  in.store = store;
  in.keys = &run.keys;
  in.draws = &run.draws;
  in.packed = &run.packed;
  in.seed = run.options.seed;
  in.scratch_dir = run.dir;
  in.skip_fsync = run.skip_fsync();
  LadderResult ladder = RunLadder(in);
  check.Add(ladder.attempted, ladder.failed);

  const double commits = static_cast<double>(m.commits);
  SpanTotals commit = tracer.Totals(kMeasuredPhase, SpanKind::kPut);
  commit.Add(tracer.Totals(kMeasuredPhase, SpanKind::kDelete));
  SpanTotals measured_all;
  for (int k = 0; k < kRequestKinds; ++k) {
    measured_all.Add(tracer.Totals(kMeasuredPhase, static_cast<SpanKind>(k)));
  }
  // Checkpoints of the measured phase where it has them (hot_update),
  // else the set-up's.
  SpanTotals ckpt = tracer.Totals(kMeasuredPhase, SpanKind::kCheckpoint);
  if (ckpt.requests == 0) {
    ckpt = tracer.Totals(kSetupPhase, SpanKind::kCheckpoint);
  }
  constexpr int kR = 0, kW = 1, kS = 2;  // SpanTotals device call kinds
  const SpanTotals setup = tracer.Totals(kSetupPhase, SpanKind::kWrite);
  const SpanTotals setup_ckpt =
      tracer.Totals(kSetupPhase, SpanKind::kCheckpoint);
  const double setup_writes = static_cast<double>(
      setup.device_calls[kW] + setup_ckpt.device_calls[kW]);
  const double traced_ops = Ratio(m.op.count(), m.op_seconds);
  const double reads = static_cast<double>(reads1.reads - reads0.reads);

  std::vector<Metric> metrics = ladder.metrics;
  const std::vector<Metric> phase_metrics = {
      {"bmeh_store.commit_above_device_us",
       Ratio(static_cast<double>(commit.ns - commit.device_ns_total()),
             commits) / 1e3,
       "us"},
      {"bmeh_store.checkpoint_ms", Ratio(ckpt.ns, ckpt.requests) / 1e6, "ms"},
      {"bmeh_store.read_retries_per_mget",
       Ratio(static_cast<double>(reads1.retries - reads0.retries), reads) *
           1e6,
       "count"},
      {"bmeh_store.read_fallbacks",
       static_cast<double>(reads1.fallbacks - reads0.fallbacks), "count"},
      {"bmeh_store.read_first_try_share",
       1.0 - Ratio(static_cast<double>(reads1.retried - reads0.retried +
                                        reads1.fallbacks - reads0.fallbacks),
                   reads),
       "ratio"},
      {"tree.splits_per_kcommit",
       Ratio(static_cast<double>(mut1.splits - mut0.splits), commits) * 1e3,
       "count"},
      {"tree.merges_per_kcommit",
       Ratio(static_cast<double>(mut1.merges - mut0.merges), commits) * 1e3,
       "count"},
      {"epoch.retired_per_commit",
       Ratio(static_cast<double>(epoch_end.retired_total - retired1), commits),
       "count"},
      {"epoch.retired_per_setup_record",
       static_cast<double>(retired_setup) / static_cast<double>(n), "count"},
      {"epoch.unreclaimed_at_end", static_cast<double>(epoch_end.deferred),
       "count"},
      {"pagestore.writes_per_commit", Ratio(commit.device_calls[kW], commits),
       "count"},
      {"pagestore.syncs_per_commit", Ratio(commit.device_calls[kS], commits),
       "count"},
      {"pagestore.reads_per_commit", Ratio(commit.device_calls[kR], commits),
       "count"},
      {"pagestore.write_ns",
       Ratio(measured_all.device_ns[kW], measured_all.device_calls[kW]), "ns"},
      {"pagestore.sync_ns",
       Ratio(measured_all.device_ns[kS], measured_all.device_calls[kS]), "ns"},
      {"pagestore.busy_share",
       Ratio(static_cast<double>(measured_all.device_ns_total()) * 1e-9,
             m.op_seconds),
       "ratio"},
      {"pagestore.pages_per_checkpoint",
       Ratio(ckpt.device_calls[kW], ckpt.requests), "count"},
      {"pagestore.writes_per_setup_record",
       setup_writes / static_cast<double>(n), "count"},
      {"pagestore.syncs_per_setup_batch",
       Ratio(setup.device_calls[kS], setup.requests), "count"},
      {"trace.overhead_pct",
       Ratio(untraced_ops - traced_ops, untraced_ops) * 100,
       "%"},
  };
  metrics.insert(metrics.end(), phase_metrics.begin(), phase_metrics.end());

  std::string detail = Field("space_amp", space_amp);
  detail += ", " + Field("write_amp", write_amp);
  detail += ", " + Field("untraced_ops_per_s", untraced_ops);
  detail += ", " + Field("traced_ops_per_s", traced_ops);
  detail += ", " + Field("commits", m.commits);
  detail += ", " + Field("spans_kept", tracer.kept());
  detail += ", " + Field("spans_dropped", tracer.dropped());
  detail += ", \"overhead_note\": " +
            JsonString("traced devices are wrapped: the registry's "
                       "pagestore_* samples read the wrapper and no page "
                       "latency histogram is charged");
  if (!run.options.spans_path.empty()) {
    const bool ok = tracer.WriteTsv(run.options.spans_path);
    detail += ", \"spans_file\": " +
              JsonString(ok ? run.options.spans_path : "unwritable");
  }
  d.reset();
  Report(run, metrics, check, detail);
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  // The ladder's two-thread rungs count as clients too.
  const int clients =
      std::max(options.workload->clients, options.trace ? 2 : 1);
  if (clients > CpuCount()) {
    std::fprintf(stderr, "refusing %d client threads on %d cpus\n", clients,
                 CpuCount());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(options.store_dir, ec);
  Run run(options);
  run.dir = options.store_dir + "/perfbench-" + std::to_string(getpid());
  fs::remove_all(run.dir, ec);  // Left by a killed run with this pid.
  if (!fs::create_directories(run.dir, ec)) {
    std::fprintf(stderr, "cannot create %s\n", run.dir.c_str());
    return 2;
  }
  run.tmpfs = IsTmpfs(run.dir);
  const int rc = options.trace ? RunTraced(run) : RunEndToEnd(run);
  fs::remove_all(run.dir, ec);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
