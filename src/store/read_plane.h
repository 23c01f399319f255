// ReadPlane: BmehStore's read-side concurrency policy — one operation
// lock with a write-preferring gate, and one optimistic read loop in
// front of it.
//
// Optimistic reads.  Once EnableOptimistic() has flipped the tree into
// concurrent-read mode, Read() runs the owner's walk lock-free under an
// epoch guard.  A conflict means a writer published mid-read, which lasts
// microseconds, so the loop retries fast and shallow before running the
// same walk once more under the gated shared lock.  That fallback needs
// no guard: writers are excluded, and only unreachable objects are ever
// retired.  An unpinned guard (every epoch slot leased) skips straight to
// the fallback: without reclamation cover the lock-free walk is unsafe.
// The conflict-free pass reads no clock, writes no shared cache line and
// allocates nothing; retry state materializes on the first conflict.  See
// DESIGN.md §13.
//
// Write preference.  glibc's rwlock prefers readers, so a stream of
// shared-lock readers can starve a mutator indefinitely.  The gated
// shared lock (LockShared) is taken by fallback reads.  Metrics sampling
// and backup page copies hold the lock shared through mutex(), outside
// the gate.  Mutators hold the lock through LockExclusive(), which keeps
// `writers_pending_` raised for the whole exclusive tenure — acquisition
// wait *and* hold — and gated readers back off on capped timed sleeps
// while it is up.  The writer's wait is then bounded by in-flight readers
// rather than by reader arrival rate, and readers never pile up parked on
// the rwlock itself, so its release is not a futex wake that hands the
// core to a crowd of sleeper-boosted readers before the writer can
// continue (a real mode: it capped a streaming writer at ~13 commits/s on
// one core).  Optimistic readers never touch the lock or the gate.

#ifndef BMEH_STORE_READ_PLANE_H_
#define BMEH_STORE_READ_PLANE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "src/common/backoff.h"
#include "src/common/epoch.h"
#include "src/core/bmeh_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/stopwatch.h"

namespace bmeh {

/// \brief Operation lock, write-preferring gate and optimistic read loop
/// of a concurrently read tree (see file comment).
class ReadPlane {
 public:
  /// Optimistic attempts per read before the locked fallback.
  static constexpr int kOptimisticAttempts = 4;

  /// RAII exclusive hold of the operation lock that keeps the gate raised
  /// until release.  Only ever constructed as a prvalue from
  /// LockExclusive(), hence no move support.
  class ExclusiveHold {
   public:
    explicit ExclusiveHold(const ReadPlane* plane) : plane_(plane) {
      plane_->writers_pending_.fetch_add(1, std::memory_order_acquire);
      lock_ = std::unique_lock<std::shared_mutex>(plane_->mutex_);
    }
    ~ExclusiveHold() {
      lock_.unlock();
      plane_->writers_pending_.fetch_sub(1, std::memory_order_release);
    }
    ExclusiveHold(ExclusiveHold&&) = delete;

   private:
    const ReadPlane* plane_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  /// \brief Turns the optimistic path on over `tree`, flipping the tree
  /// into concurrent-read mode unless an earlier owner already did.  Call
  /// once, before the owner is reachable from another thread.
  void EnableOptimistic(BmehTree* tree) {
    epoch_ = epoch::EpochManager::Global();
    if (!tree->concurrent_reads_enabled()) tree->EnableConcurrentReads(epoch_);
  }

  /// \brief True once EnableOptimistic() ran.
  bool optimistic() const { return epoch_ != nullptr; }

  /// \brief The reclamation domain optimistic reads pin (null until
  /// EnableOptimistic()).
  epoch::EpochManager* epoch() const { return epoch_; }

  /// \brief The operation lock itself, for holds that bypass the gate.
  std::shared_mutex& mutex() const { return mutex_; }

  /// \brief Write-preferring exclusive acquisition (see file comment).
  ExclusiveHold LockExclusive() const { return ExclusiveHold(this); }

  /// \brief Gated shared acquisition: while any mutator waits or holds,
  /// sleep 10 µs, doubling up to a 1 ms cap, instead of parking on the
  /// rwlock.  The cap keeps the wakeup count low across a long hold (a
  /// checkpoint) while adding at most ~1 ms of post-release latency.  No
  /// livelock: the gate drops the moment the last pending mutator
  /// releases.
  std::shared_lock<std::shared_mutex> LockShared() const {
    uint64_t park_us = 10;
    while (writers_pending_.load(std::memory_order_acquire) > 0) {
      SleepUs(park_us);
      park_us = std::min<uint64_t>(park_us * 2, 1000);
    }
    return std::shared_lock<std::shared_mutex>(mutex_);
  }

  /// \brief One read: `read(bool* conflict)` is the owner's walk.  With
  /// the optimistic path on, it runs under an epoch guard and is retried
  /// on conflict; otherwise, or once retries are exhausted or the guard is
  /// unpinned, it runs once more under the gated shared lock, where only a
  /// broken structure can make it conflict (the walk then answers
  /// Corruption).  Metric handles may be null: `retries` counts
  /// conflicted attempts, `fallbacks` optimistic reads that ended under
  /// the lock, and `retried_latency` times reads that conflicted and then
  /// succeeded optimistically.
  template <typename Walk>
  auto Read(Walk&& read, obs::Counter* retries, obs::Counter* fallbacks,
            obs::Histogram* retried_latency) -> decltype(read(nullptr)) {
    bool conflict = false;
    if (epoch_ != nullptr) {
      std::optional<Backoff> backoff;
      uint64_t t0 = 0;
      for (int attempt = 0;;) {
        {
          epoch::Guard guard(epoch_);
          if (!guard.pinned()) break;
          auto result = read(&conflict);
          if (!conflict) {
            if (attempt > 0 && retried_latency != nullptr) {
              retried_latency->Record(obs::MonotonicNanos() - t0);
            }
            return result;
          }
        }
        if (retries != nullptr) retries->Inc();
        if (++attempt >= kOptimisticAttempts) break;
        if (!backoff.has_value()) {
          if (retried_latency != nullptr) t0 = obs::MonotonicNanos();
          backoff.emplace(kRetryPolicy, backoff_seed_.fetch_add(
                                            1, std::memory_order_relaxed));
        }
        SleepUs(backoff->NextDelayUs());  // Outside the guard.
      }
      if (fallbacks != nullptr) fallbacks->Inc();
    }
    auto lock = LockShared();
    return read(&conflict);
  }

 private:
  /// 1–100 µs decorrelated jitter within a 1 ms sleep budget.
  static constexpr BackoffPolicy kRetryPolicy{
      .max_attempts = kOptimisticAttempts,
      .base_delay_us = 1,
      .max_delay_us = 100,
      .total_budget_us = 1000};

  epoch::EpochManager* epoch_ = nullptr;  // Set once, before any reader.
  std::atomic<uint64_t> backoff_seed_{0x853c49e6748fea9bull};
  // Every mutation writes the lock and the gate; their own cache line
  // keeps the lock-free readers, which load epoch_ on every call, from
  // missing on it.
  alignas(64) mutable std::shared_mutex mutex_;
  mutable std::atomic<int> writers_pending_{0};
};

}  // namespace bmeh

#endif  // BMEH_STORE_READ_PLANE_H_
