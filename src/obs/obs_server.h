// ObsServer: a small epoll-based HTTP/1.1 exposition server — the live
// telemetry plane for a running store, and the socket/event-loop seed for
// the ROADMAP item-3 wire-protocol front end.
//
// Endpoints:
//
//   /metrics   Prometheus text exposition from the attached registry.
//   /healthz   Liveness/health: 200 "ok" when healthy, 503 with a reason
//              body when degraded.  The caller-supplied handler reports
//              store health (down shards, degraded opens); the server
//              merges the watchdog on top — any stalled heartbeat forces
//              503 — so a hung WAL fsync flips health without the
//              handler knowing about threads.  Status codes deliberately
//              mirror `bmeh_cli storeinfo` exit codes (200 <-> 0,
//              503 <-> 2).
//   /statusz   One JSON object: store shape, WAL/LSN watermarks, quota
//              and build info (caller-composed), plus server counters.
//   /tracez    The ring-buffer tracer's recent-span dump (Chrome trace
//              JSON, trace_id in span args).
//   /          Plain-text index of the endpoints above.
//
// Design: one background thread owns a nonblocking listener, a wake pipe
// and every client socket, multiplexed through a single epoll instance.
// Requests are parsed minimally (GET only, headers ignored), responses
// are written with Connection: close.  Stop() (and the destructor) wakes
// the loop via the pipe, closes every socket and joins — graceful even
// with a half-read request in flight.  Handlers run on the server thread,
// so they must only touch thread-safe state (registry snapshots, sampled
// store state under the store's shared lock, watchdog atomics).

#ifndef BMEH_OBS_OBS_SERVER_H_
#define BMEH_OBS_OBS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

namespace bmeh {
namespace obs {

class ObsServer {
 public:
  /// \brief A handler's answer: status code, content type, body.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using HandlerFn = std::function<Response()>;

  struct Options {
    /// Dotted-quad bind address.  Keep the default loopback unless the
    /// scraper really is remote — the plane has no auth.
    std::string bind_addr = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    int port = 0;
    /// Served at /metrics; also charges obs_http_requests_total and
    /// friends for the server's own traffic.  Optional.
    MetricsRegistry* metrics = nullptr;
    /// Served at /tracez.  Optional.
    Tracer* tracer = nullptr;
    /// Merged into /healthz: any stalled heartbeat forces 503.  Optional.
    Watchdog* watchdog = nullptr;
    /// Store-level health (down shards, degraded opens).  Optional: with
    /// no handler and no watchdog stall, /healthz answers 200 "ok".
    HandlerFn healthz;
    /// Store-level status JSON.  Optional: the server falls back to a
    /// minimal build-info object.
    HandlerFn statusz;
  };

  /// \brief Binds, listens and starts the serving thread.  Fails with
  /// IoError when the address/port cannot be bound (port in use).
  static Result<std::unique_ptr<ObsServer>> Start(const Options& options);

  ~ObsServer();  ///< Stop()s if still running.

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// \brief Graceful shutdown: stops accepting, closes every connection
  /// (half-read requests included), joins the thread.  Idempotent.
  void Stop();

  /// \brief The bound port (resolved when Options::port was 0).
  int port() const { return port_; }
  const std::string& bind_addr() const { return bind_addr_; }

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  ObsServer(const Options& options, int listen_fd, int port, int wake_rd,
            int wake_wr);

  void Run();
  Response Route(const std::string& path);
  Response Healthz();
  Response Statusz();

  Options options_;
  std::string bind_addr_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_rd_ = -1;  ///< Stop() writes wake_wr_; the loop reads this.
  int wake_wr_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> requests_{0};
  Counter* requests_total_ = nullptr;
  Counter* bad_requests_total_ = nullptr;
  std::thread thread_;
};

}  // namespace obs
}  // namespace bmeh

#endif  // BMEH_OBS_OBS_SERVER_H_
