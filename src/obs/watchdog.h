// Watchdog: deadline-monitored heartbeats for the store's commit path
// (each leader's WAL append and fsync), per-shard repair work, and the
// checkpoint path — so a stuck fsync or a deadlocked repair surfaces as
// telemetry instead of silent unavailability.
//
// Model: a participant Register()s a named Heartbeat with a deadline,
// Arm()s it while the monitored activity is supposed to make progress,
// and Beat()s it (one relaxed atomic store) every loop iteration / phase
// boundary.  A monitor thread scans the armed heartbeats every
// check_interval; when now - last_beat exceeds the deadline it
//
//   * increments the `store_stalled_total` counter,
//   * emits an always-logged wide event carrying the stuck activity's
//     name and last-heartbeat age, and
//   * marks the heartbeat stalled — AnyStalled() is what flips /healthz
//     to degraded (503) while the stall persists.
//
// A later Beat() clears the stall on the next scan (with a recovery
// event), so transient hangs leave a complete stall/recover trail.
// Detection latency is bounded by deadline + check_interval; keep
// check_interval <= deadline so a stall is raised within 2x the deadline.
//
// Disarmed heartbeats are skipped entirely: activities that are legally
// idle (no checkpoint running, no repair in flight) disarm instead of
// faking beats.
//
// Thread safety: Beat/Arm/Disarm are lock-free; Register/Unregister take
// the watchdog mutex.  Participants must Unregister before the watchdog
// dies, and the watchdog must outlive every registered participant's use
// of its Heartbeat*.

#ifndef BMEH_OBS_WATCHDOG_H_
#define BMEH_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/oplog.h"
#include "src/obs/stopwatch.h"

namespace bmeh {
namespace obs {

class Watchdog {
 public:
  struct Options {
    /// Monitor scan period.  Keep <= the smallest registered deadline.
    uint64_t check_interval_ms = 50;
    /// Charges `store_stalled_total` per raised stall (optional).
    MetricsRegistry* metrics = nullptr;
    /// Receives always-logged "watchdog_stall"/"watchdog_recover" wide
    /// events (optional).
    OpLog* oplog = nullptr;
  };

  /// \brief One monitored activity.  Obtained from Register(); owned by
  /// the watchdog (stable address until Unregister).
  class Heartbeat {
   public:
    /// \brief Marks progress now.  Relaxed store; call freely from the
    /// monitored thread's hot loop.
    void Beat() {
      last_beat_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
    }
    /// \brief Starts monitoring (and counts as a beat, so a fresh arm
    /// never inherits a stale timestamp).
    void Arm() {
      Beat();
      armed_.store(true, std::memory_order_release);
    }
    /// \brief Stops monitoring (activity legally idle).
    void Disarm() { armed_.store(false, std::memory_order_release); }

    bool armed() const { return armed_.load(std::memory_order_acquire); }
    bool stalled() const { return stalled_.load(std::memory_order_acquire); }
    uint64_t last_beat_ns() const {
      return last_beat_ns_.load(std::memory_order_relaxed);
    }
    const std::string& name() const { return name_; }
    uint64_t deadline_ns() const { return deadline_ns_; }

   private:
    friend class Watchdog;
    Heartbeat(std::string name, uint64_t deadline_ns)
        : name_(std::move(name)), deadline_ns_(deadline_ns) {}

    const std::string name_;
    const uint64_t deadline_ns_;
    std::atomic<uint64_t> last_beat_ns_{0};
    std::atomic<bool> armed_{false};
    std::atomic<bool> stalled_{false};
  };

  /// \brief RAII arm/disarm around a monitored critical section (a
  /// checkpoint, a repair).  Null heartbeat = no-op.
  class ArmedScope {
   public:
    explicit ArmedScope(Heartbeat* hb) : hb_(hb) {
      if (hb_ != nullptr) hb_->Arm();
    }
    ~ArmedScope() {
      if (hb_ != nullptr) hb_->Disarm();
    }
    ArmedScope(const ArmedScope&) = delete;
    ArmedScope& operator=(const ArmedScope&) = delete;

   private:
    Heartbeat* hb_;
  };

  explicit Watchdog(const Options& options);
  Watchdog() : Watchdog(Options()) {}
  ~Watchdog();  ///< Stops and joins the monitor thread.

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// \brief Registers a named heartbeat with `deadline_ms`; returned
  /// pointer is stable until Unregister.  Starts disarmed.
  Heartbeat* Register(const std::string& name, uint64_t deadline_ms);

  /// \brief Removes (and frees) `hb`.  The caller's threads must no
  /// longer touch it.  Clears any stall it was contributing.
  void Unregister(Heartbeat* hb);

  /// \brief True while any armed heartbeat is past its deadline — the
  /// /healthz degraded signal.
  bool AnyStalled() const {
    return stalled_now_.load(std::memory_order_acquire) > 0;
  }

  /// \brief Names of the currently stalled heartbeats (for health
  /// bodies / status pages).
  std::vector<std::string> StalledNames() const;

  /// \brief Stalls ever raised (monotone; mirrors store_stalled_total).
  uint64_t stalls_raised() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  /// \brief Runs one synchronous scan (deterministic tests).
  void PollForTesting() { Scan(); }

 private:
  void Run();
  void Scan();

  const Options options_;
  Counter* stalled_total_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Heartbeat>> beats_;
  bool stopping_ = false;
  std::thread thread_;

  std::atomic<uint64_t> stalls_{0};
  std::atomic<int> stalled_now_{0};
};

}  // namespace obs
}  // namespace bmeh

#endif  // BMEH_OBS_WATCHDOG_H_
