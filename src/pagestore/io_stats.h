// Disk-access accounting.
//
// The paper's §5 measures are defined in logical disk accesses: a read or a
// write of one directory node page or one data page.  IoCounter is the
// single place those accesses are charged; the experiment harness snapshots
// it around each operation.  The convention from DESIGN.md §2.5 applies:
// the tree root is pinned in memory, so root *reads* are not charged (the
// structures simply do not call the counter for root reads).

#ifndef BMEH_PAGESTORE_IO_STATS_H_
#define BMEH_PAGESTORE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace bmeh {

/// \brief Raw access counters for a storage device or a cost model.
struct IoStats {
  uint64_t dir_reads = 0;    ///< Directory-node page reads.
  uint64_t dir_writes = 0;   ///< Directory-node page writes.
  uint64_t data_reads = 0;   ///< Data page reads.
  uint64_t data_writes = 0;  ///< Data page writes.

  uint64_t reads() const { return dir_reads + data_reads; }
  uint64_t writes() const { return dir_writes + data_writes; }
  uint64_t total() const { return reads() + writes(); }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.dir_reads = dir_reads - other.dir_reads;
    d.dir_writes = dir_writes - other.dir_writes;
    d.data_reads = data_reads - other.data_reads;
    d.data_writes = data_writes - other.data_writes;
    return d;
  }

  std::string ToString() const {
    return "IoStats{dir_r=" + std::to_string(dir_reads) +
           ", dir_w=" + std::to_string(dir_writes) +
           ", data_r=" + std::to_string(data_reads) +
           ", data_w=" + std::to_string(data_writes) + "}";
  }
};

/// \brief Mutable counter the index structures charge logical accesses to.
///
/// Counters are atomic so that concurrent readers, which charge their own
/// probes, share a structure without data races: BmehStore's lock-free
/// reads charge the tree's counter beside its writer (read_plane.h).
class IoCounter {
 public:
  void CountDirRead(uint64_t n = 1) {
    dir_reads_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDirWrite(uint64_t n = 1) {
    dir_writes_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDataRead(uint64_t n = 1) {
    data_reads_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDataWrite(uint64_t n = 1) {
    data_writes_.fetch_add(n, std::memory_order_relaxed);
  }

  /// \brief A consistent-enough snapshot of the counters.
  IoStats stats() const {
    IoStats s;
    s.dir_reads = dir_reads_.load(std::memory_order_relaxed);
    s.dir_writes = dir_writes_.load(std::memory_order_relaxed);
    s.data_reads = data_reads_.load(std::memory_order_relaxed);
    s.data_writes = data_writes_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    dir_reads_.store(0, std::memory_order_relaxed);
    dir_writes_.store(0, std::memory_order_relaxed);
    data_reads_.store(0, std::memory_order_relaxed);
    data_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> dir_reads_{0};
  std::atomic<uint64_t> dir_writes_{0};
  std::atomic<uint64_t> data_reads_{0};
  std::atomic<uint64_t> data_writes_{0};
};

}  // namespace bmeh

#endif  // BMEH_PAGESTORE_IO_STATS_H_
