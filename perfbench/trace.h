// The traced mode's instruments, both outside the library: spans recorded
// around every call the benchmark makes into ShardedStore, and a PageStore
// decorator that times each device call and records it as a child span of
// the request that made it.  Untraced runs use neither (a null sink makes
// RequestSpan a no-op and the devices are not wrapped).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

/// What a span covers: a ShardedStore call (request) or a PageStore call
/// made inside one (child).
enum class SpanKind : uint8_t {
  kGet,
  kRange,
  kPut,
  kDelete,
  kWrite,
  kCheckpoint,
  kDeviceRead,
  kDeviceWrite,
  kDeviceSync,
};
inline constexpr int kRequestKinds = 6;
inline constexpr int kDeviceKinds = 3;

inline const char* SpanKindName(SpanKind kind) {
  static constexpr const char* kNames[] = {
      "sharded.get",    "sharded.range", "sharded.put",
      "sharded.delete", "sharded.write", "sharded.checkpoint",
      "device.read",    "device.write",  "device.sync"};
  return kNames[static_cast<int>(kind)];
}

/// The part of a run a span belongs to.
enum Phase { kSetupPhase = 0, kMeasuredPhase = 1, kPhases = 2 };

struct Span {
  uint64_t request = 0;  ///< Shared by a request span and its children.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kGet;
  uint8_t sink = 0;  ///< The client thread that recorded it.
};

/// Sums over the request spans of one kind in one phase, including the
/// device calls made inside them.
struct SpanTotals {
  uint64_t requests = 0;
  uint64_t ns = 0;
  std::array<uint64_t, kDeviceKinds> device_calls{};
  std::array<uint64_t, kDeviceKinds> device_ns{};

  uint64_t device_ns_total() const {
    return device_ns[0] + device_ns[1] + device_ns[2];
  }
  void Add(const SpanTotals& o) {
    requests += o.requests;
    ns += o.ns;
    for (int k = 0; k < kDeviceKinds; ++k) {
      device_calls[k] += o.device_calls[k];
      device_ns[k] += o.device_ns[k];
    }
  }
};

/// One client thread's spans and totals.  Spans are kept in memory up to
/// a fixed count per thread (the totals cover every span) and written out
/// when the run ends.
class SpanSink {
 public:
  static constexpr size_t kKeptSpans = size_t{1} << 16;

  SpanSink(const Phase* phase, uint8_t index) : phase_(phase), index_(index) {
    spans_.reserve(kKeptSpans);
  }

  void Keep(const Span& span) {
    if (spans_.size() < kKeptSpans) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }

  SpanTotals& totals(SpanKind kind) {
    return totals_[*phase_][static_cast<int>(kind)];
  }
  const SpanTotals& totals(Phase phase, SpanKind kind) const {
    return totals_[phase][static_cast<int>(kind)];
  }
  uint64_t NextRequest() {
    return (uint64_t{index_} << 48) | ++requests_;
  }
  uint8_t index() const { return index_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  const Phase* phase_;
  uint8_t index_;
  uint64_t requests_ = 0;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  SpanTotals totals_[kPhases][kRequestKinds];
};

/// Owns the sinks of a traced run.  Sinks are created, and the phase is
/// switched, only while no client thread is running.
class Tracer {
 public:
  SpanSink* NewSink() {
    sinks_.push_back(std::make_unique<SpanSink>(
        &phase_, static_cast<uint8_t>(sinks_.size())));
    return sinks_.back().get();
  }

  void set_phase(Phase phase) { phase_ = phase; }

  SpanTotals Totals(Phase phase, SpanKind kind) const {
    SpanTotals sum;
    for (const auto& sink : sinks_) sum.Add(sink->totals(phase, kind));
    return sum;
  }

  uint64_t kept() const {
    uint64_t n = 0;
    for (const auto& sink : sinks_) n += sink->spans().size();
    return n;
  }
  uint64_t dropped() const {
    uint64_t n = 0;
    for (const auto& sink : sinks_) n += sink->dropped();
    return n;
  }

  /// Writes the kept spans as tab-separated lines: request id, thread,
  /// span name, start and duration in ns (start relative to the first
  /// span).  A device span's request id names its parent request.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    uint64_t t0 = UINT64_MAX;
    for (const auto& sink : sinks_) {
      for (const Span& s : sink->spans()) t0 = std::min(t0, s.start_ns);
    }
    std::fprintf(f, "request\tthread\tspan\tstart_ns\tdur_ns\n");
    for (const auto& sink : sinks_) {
      for (const Span& s : sink->spans()) {
        std::fprintf(f, "%llx\t%u\t%s\t%llu\t%llu\n",
                     static_cast<unsigned long long>(s.request), s.sink,
                     SpanKindName(s.kind),
                     static_cast<unsigned long long>(s.start_ns - t0),
                     static_cast<unsigned long long>(s.end_ns - s.start_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  Phase phase_ = kSetupPhase;
  std::vector<std::unique_ptr<SpanSink>> sinks_;
};

/// RAII span around one ShardedStore call.  While it is open, device
/// calls on this thread are charged to it as children.  A null sink
/// records nothing (the untraced mode).
class RequestSpan {
 public:
  RequestSpan(SpanSink* sink, SpanKind kind) : sink_(sink) {
    if (sink_ == nullptr) return;
    span_.request = sink_->NextRequest();
    span_.kind = kind;
    span_.sink = sink_->index();
    current_ = this;
    span_.start_ns = NowNs();
  }

  ~RequestSpan() {
    if (sink_ == nullptr) return;
    span_.end_ns = NowNs();
    current_ = nullptr;
    SpanTotals& t = sink_->totals(span_.kind);
    ++t.requests;
    t.ns += span_.end_ns - span_.start_ns;
    for (int k = 0; k < kDeviceKinds; ++k) {
      t.device_calls[k] += children_.device_calls[k];
      t.device_ns[k] += children_.device_ns[k];
    }
    sink_->Keep(span_);
  }

  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

  /// The span open on this thread, if any.
  static RequestSpan* Current() { return current_; }

  void Child(SpanKind kind, uint64_t start_ns, uint64_t end_ns) {
    const int k = static_cast<int>(kind) - kRequestKinds;
    ++children_.device_calls[k];
    children_.device_ns[k] += end_ns - start_ns;
    sink_->Keep({span_.request, start_ns, end_ns, kind, span_.sink});
  }

 private:
  static inline thread_local RequestSpan* current_ = nullptr;
  SpanSink* sink_;
  Span span_;
  SpanTotals children_;
};

/// Forwards every PageStore virtual to the real device and times Read,
/// Write and Sync as child spans of the open request.
///
/// PageStore::stats() and AttachMetrics() are not virtual, so with this
/// wrapper in place the store attaches its registry to the wrapper: the
/// registry's pagestore_* samples read the wrapper's (empty) StoreStats
/// and the real device charges no page latency histograms.  The traced
/// run reports that difference as part of trace.overhead_pct.
class TimingPageStore : public bmeh::PageStore {
 public:
  explicit TimingPageStore(std::unique_ptr<bmeh::PageStore> inner)
      : inner_(std::move(inner)) {}

  int page_size() const override { return inner_->page_size(); }
  bmeh::Result<bmeh::PageId> Allocate() override { return inner_->Allocate(); }
  bmeh::Status Free(bmeh::PageId id) override { return inner_->Free(id); }
  bmeh::Status Read(bmeh::PageId id, std::span<uint8_t> out) override {
    return Timed(SpanKind::kDeviceRead, [&] { return inner_->Read(id, out); });
  }
  bmeh::Status Write(bmeh::PageId id, std::span<const uint8_t> data) override {
    return Timed(SpanKind::kDeviceWrite,
                 [&] { return inner_->Write(id, data); });
  }
  bmeh::Status Sync() override {
    return Timed(SpanKind::kDeviceSync, [&] { return inner_->Sync(); });
  }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }
  uint64_t total_page_count() const override {
    return inner_->total_page_count();
  }
  bmeh::PageId first_data_page() const override {
    return inner_->first_data_page();
  }
  bmeh::Status Reserve(uint64_t n) override { return inner_->Reserve(n); }
  void ReleaseReservation(uint64_t n) override {
    inner_->ReleaseReservation(n);
  }
  uint64_t reserved_pages() const override { return inner_->reserved_pages(); }
  void SetMaxPages(uint64_t max_pages) override {
    inner_->SetMaxPages(max_pages);
  }
  uint64_t max_pages() const override { return inner_->max_pages(); }

 private:
  template <typename Fn>
  bmeh::Status Timed(SpanKind kind, Fn&& fn) {
    const uint64_t start = NowNs();
    bmeh::Status st = fn();
    if (RequestSpan* r = RequestSpan::Current()) {
      r->Child(kind, start, NowNs());
    }
    return st;
  }

  std::unique_ptr<bmeh::PageStore> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
