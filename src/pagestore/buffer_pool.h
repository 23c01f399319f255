// BufferPool: a pin-counted LRU page cache over a PageStore.
//
// Used by the frozen tree (src/store/frozen_tree.h), whose probes read one
// store page per directory node and data page, and directly testable as a
// substrate.  Frames are pinned through the RAII PageHandle; unpinned
// frames are evicted in LRU order, writing back dirty contents.

#ifndef BMEH_PAGESTORE_BUFFER_POOL_H_
#define BMEH_PAGESTORE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/pagestore/page_store.h"

namespace bmeh {

class BufferPool;

/// \brief RAII pin on a cached page frame.
///
/// The frame stays in memory (and is never evicted) while at least one
/// handle references it.  Call MarkDirty() after mutating data().
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  /// \brief True iff this handle pins a frame.
  bool valid() const { return pool_ != nullptr; }

  PageId id() const { return id_; }
  std::span<uint8_t> data();
  std::span<const uint8_t> data() const;

  /// \brief Marks the frame dirty so eviction/flush writes it back.
  void MarkDirty();

  /// \brief Releases the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId id) : pool_(pool), id_(id) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
};

/// \brief Pin-counted LRU cache of PageStore pages.
class BufferPool {
 public:
  /// \brief A pool of `capacity` frames over `store` (not owned).
  BufferPool(PageStore* store, int capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Pins page `id`, reading it from the store on a miss.
  Result<PageHandle> Fetch(PageId id);

  /// \brief Allocates a fresh zeroed page and pins it (already dirty).
  Result<PageHandle> New();

  /// \brief Drops the page from the cache (if present) and frees it in the
  /// store.  The page must not be pinned.
  Status Delete(PageId id);

  /// \brief Writes back all dirty frames (keeps them cached).
  Status FlushAll();

  int capacity() const { return capacity_; }
  // The hit/miss/eviction counters are relaxed atomics: the pool itself
  // is single-writer, but observers snapshot the counters from other
  // threads.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// \brief Fraction of Fetch calls served from memory (0 when idle).
  double hit_rate() const {
    const uint64_t h = hits(), m = misses();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / double(h + m);
  }

  /// \brief Registers a sampling source exposing `bufferpool_*` counters
  /// and the hit rate (in millionths, gauges being integral) on
  /// `registry`.  The registry must outlive the pool (the destructor
  /// detaches); pass nullptr to detach.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// \brief Number of frames currently cached.
  size_t cached_count() const { return frames_.size(); }

 private:
  friend class PageHandle;

  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    int pins = 0;
    bool dirty = false;
    // Position in lru_ when pins == 0.
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(PageId id);
  Status EvictOne();

  PageStore* store_;
  int capacity_;
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  // front = least recently used
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_source_ = 0;
};

}  // namespace bmeh

#endif  // BMEH_PAGESTORE_BUFFER_POOL_H_
