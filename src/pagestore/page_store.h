// PageStore: the block device abstraction.
//
// Two implementations: an in-memory store for simulation and tests, and a
// POSIX-file-backed store (4 KiB pages behind a write-once header page)
// used by the BMEH-tree's save/load path and the persistence tests.  A
// third, FaultInjectingPageStore (fault_injecting_page_store.h), decorates
// any of them with deterministic failure injection for crash testing.

#ifndef BMEH_PAGESTORE_PAGE_STORE_H_
#define BMEH_PAGESTORE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/pagestore/page.h"

namespace bmeh {

/// \brief Physical-access statistics of a PageStore.
struct StoreStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;
  /// Read attempts repeated after a transient I/O error or a checksum
  /// mismatch (each retry counts once, successful or not).
  uint64_t read_retries = 0;
  /// Page trailer verifications that failed (counted per failed attempt).
  uint64_t checksum_failures = 0;
  /// Pages a layer above has quarantined after verified corruption
  /// (recorded here so one snapshot tells the whole integrity story).
  uint64_t pages_quarantined = 0;
  /// Allocate()/Reserve() calls refused (quota, ENOSPC, OOM) or rolled
  /// back after a failed page write.
  uint64_t alloc_failures = 0;
  /// Peak number of simultaneously live pages — the high-water allocation
  /// mark the store would need as a quota to never refuse.
  uint64_t high_water_pages = 0;
};

/// \brief Abstract fixed-size page device.
///
/// Resource-exhaustion contract: an Allocate() or Reserve() that fails
/// with Status::ResourceExhausted leaves the store exactly as it was —
/// no bookkeeping, no on-disk bytes, nothing — so the caller may retry
/// once space frees.  Multi-page operations use the reservation protocol
/// to fail *up front* instead of mid-flight: Reserve(n) either sets aside
/// n allocation slots (free pages plus permitted growth under the quota)
/// or refuses with ResourceExhausted before anything is touched.  A
/// subsequent Allocate() consumes an outstanding reserved slot first; the
/// protocol is single-writer — the operation holding the reservation is
/// the one allocating — matching the stores' single-threaded use.
class PageStore {
 public:
  /// QuotaHeadroom() value meaning "no limit configured".
  static constexpr uint64_t kUnlimitedHeadroom = ~uint64_t{0};

  virtual ~PageStore();

  /// \brief Size of every page in bytes.
  virtual int page_size() const = 0;

  /// \brief Allocates a page (possibly recycling a freed one).
  virtual Result<PageId> Allocate() = 0;

  /// \brief Returns a page to the free list.
  virtual Status Free(PageId id) = 0;

  /// \brief Reads page `id` into `out` (out.size() must equal page_size()).
  virtual Status Read(PageId id, std::span<uint8_t> out) = 0;

  /// \brief Writes page `id` from `data` (size must equal page_size()).
  virtual Status Write(PageId id, std::span<const uint8_t> data) = 0;

  /// \brief Number of currently live (allocated, not freed) pages.
  virtual uint64_t live_page_count() const = 0;

  /// \brief Total pages the store occupies — header/metadata and freed
  /// pages included.  This is the quantity SetMaxPages() bounds.
  virtual uint64_t total_page_count() const = 0;

  /// \brief Makes every acknowledged write durable (fsync for file-backed
  /// stores; a no-op where there is no volatile cache to flush).
  virtual Status Sync() { return Status::OK(); }

  /// \brief Id the store's first Allocate() on a fresh device returns
  /// (page ids below it are reserved for store metadata).  Deterministic
  /// per backend, which lets layers above place bootstrap pages — e.g.
  /// BmehStore's superblock — at a known id.
  virtual PageId first_data_page() const { return 0; }

  /// \brief Sets aside `n` allocation slots so the next `n` Allocate()
  /// calls cannot fail for lack of space, or fails with ResourceExhausted
  /// (store untouched) when the quota cannot cover them.  Reservations
  /// are additive; release what goes unused with ReleaseReservation().
  virtual Status Reserve(uint64_t n);

  /// \brief Returns `n` unused reserved slots to the general pool.
  virtual void ReleaseReservation(uint64_t n);

  /// \brief Reserved-but-unconsumed allocation slots.
  virtual uint64_t reserved_pages() const { return reserved_; }

  /// \brief Caps the store at `max_pages` total pages (0 = unlimited).
  /// For file-backed stores the cap counts every page in the file, header
  /// and free pages included — it bounds the file size, so freed pages
  /// remain allocatable under the cap while growth past it is refused
  /// with ResourceExhausted.
  virtual void SetMaxPages(uint64_t max_pages) { max_pages_ = max_pages; }
  virtual uint64_t max_pages() const { return max_pages_; }

  const StoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StoreStats{}; }

  /// \brief Lets the owning layer (e.g. BmehStore) record that it
  /// quarantined a page after this store reported verified corruption.
  void NoteQuarantined(uint64_t n = 1) { stats_.pages_quarantined += n; }

  /// \brief Hooks this store into a MetricsRegistry: registers a sampling
  /// source that exposes StoreStats and the page counts as `pagestore_*`
  /// counters/gauges, and charges physical page read/write latency into
  /// the `page_read_latency_ns` / `page_write_latency_ns` histograms.
  /// The registry must outlive the store (the destructor detaches).
  /// Pass nullptr to detach.  Not attached = zero overhead beyond one
  /// branch per read/write.
  ///
  /// StoreStats and the page counts are owner-synchronized plain fields.
  /// When the owner mutates the store from several threads (e.g.
  /// BmehStore's commit leaders), pass its operation lock as
  /// `sample_guard`: the sampling source then takes it shared, making
  /// Snapshot() safe against concurrent mutation.  Null (the default)
  /// keeps the single-threaded-owner behaviour.
  ///
  /// `prefix` labels the sampled names (e.g. "shard3_" publishes
  /// shard3_pagestore_reads_total) so several devices can share one
  /// registry without overwriting each other's sample; the latency
  /// histograms stay unprefixed and aggregate across devices.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     std::shared_mutex* sample_guard = nullptr,
                     const std::string& prefix = "");

 protected:
  /// Allocation slots obtainable right now without violating the quota:
  /// recyclable free pages plus permitted growth.  kUnlimitedHeadroom
  /// when no limit applies.  Includes slots already reserved (Reserve
  /// accounts for those separately against this total).
  virtual uint64_t QuotaHeadroom() const { return kUnlimitedHeadroom; }

  /// Consumes one allocation slot at the top of an Allocate()
  /// implementation: an outstanding reservation if any, else a headroom
  /// check.  On ResourceExhausted nothing is consumed.
  Status TakeAllocationSlot(bool* from_reservation);

  /// Undoes TakeAllocationSlot after the allocation failed downstream.
  void ReturnAllocationSlot(bool from_reservation);

  StoreStats stats_;
  uint64_t reserved_ = 0;
  uint64_t max_pages_ = 0;
  /// Latency histograms charged by the concrete Read/Write paths; null
  /// (the default) means un-instrumented.
  obs::Histogram* read_latency_ = nullptr;
  obs::Histogram* write_latency_ = nullptr;

 private:
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_source_ = 0;
};

/// \brief Heap-backed page store.
///
/// Allocation failures are survivable: heap exhaustion (std::bad_alloc)
/// and the optional SetMaxPages() cap both surface as ResourceExhausted
/// with the store unchanged, mirroring the file store's disk-full
/// behaviour so the two backends stay interchangeable in tests.
class InMemoryPageStore : public PageStore {
 public:
  explicit InMemoryPageStore(int page_size = kDefaultPageSize);

  int page_size() const override { return page_size_; }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, std::span<uint8_t> out) override;
  Status Write(PageId id, std::span<const uint8_t> data) override;
  uint64_t live_page_count() const override;
  uint64_t total_page_count() const override { return pages_.size(); }

 protected:
  uint64_t QuotaHeadroom() const override;

 private:
  bool IsLive(PageId id) const;

  int page_size_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;  // nullptr == freed slot
  std::vector<PageId> free_list_;
};

/// \brief POSIX-file-backed page store.
///
/// Layout: page 0 is a header (magic, page size, store epoch) that
/// Create() writes once; the pages after it hold data, and the file's
/// size is the page count.  The free list lives only in memory.  Open()
/// starts with every page live, and the owner hands it the free list
/// with AdoptFreeList() once it knows which pages are unreachable
/// (BmehStore does on every open).  A freed page is erased: it holds
/// zeros on disk, so a recycled page reads as zeros without another
/// write, and a link that reaches a page allocated but not yet written
/// finds no stale bytes there.
///
/// On-disk integrity (format v2): every physical page — header, live,
/// and free alike — ends in a 16-byte self-checksum trailer
///
///     [version u8 | pad u8*3 | page id u32 | store epoch u32 | crc u32]
///
/// appended after the page_size() caller-visible payload bytes, so a
/// physical page occupies page_size() + kPageTrailerSize bytes and the
/// payload contract of Read/Write is unchanged.  The CRC32 covers payload
/// plus trailer prefix and is seeded with the page id mixed with the
/// store's epoch (a random per-file value drawn at Create), which makes a
/// misdirected read or write detectable: a page's bytes only verify at
/// the id and in the file they were written for.  Read() verifies the
/// trailer and retries transient I/O errors and checksum mismatches up to
/// 3 times, sleeping 200, 400 and 800 us first (a re-read catches an
/// in-flight torn read); only after the last retry does it surface
/// Status::DataLoss (IoError when the reads themselves failed).
/// stats() exposes read_retries / checksum_failures / pages_quarantined.
///
/// Files written by the pre-checksum v1 format are still opened: they are
/// detected by their old header magic and served without verification
/// (format_version() == 1); `bmeh_cli fsck --repair` rewrites such a
/// store into a fresh v2 file.  In-place upgrade is impossible because v1
/// payloads occupy the whole physical page, so there is no room for a
/// trailer at the v1 offsets.
///
/// Crash consistency: nothing on disk records which pages are free, so
/// there is nothing to go stale.  A page that grows the file is written
/// (as zeros) by Allocate(), so the file never has a hole, and an open
/// after a crash sizes the store by the file like any other open.
///
/// The file is flock()ed exclusively for the lifetime of the object, so a
/// second Open/Create of the same path (from this or another process)
/// fails with IoError instead of silently corrupting the store.
class FilePageStore : public PageStore {
 public:
  /// Bytes of self-checksum trailer appended to every physical v2 page.
  static constexpr int kPageTrailerSize = 16;
  /// Trailer format version byte written by this code.
  static constexpr uint8_t kPageFormatV2 = 2;

  ~FilePageStore() override;

  /// \brief Creates a new store file (truncating any existing file).
  static Result<std::unique_ptr<FilePageStore>> Create(
      const std::string& path, int page_size = kDefaultPageSize);

  /// \brief Opens an existing store file.  Reads the magic, page size
  /// and epoch from the header and sizes the store by the file; every
  /// page starts live, and the caller hands over the free list with
  /// AdoptFreeList() once it has determined which pages are unreachable.
  /// A header page that fails verification is tolerated
  /// (header_damaged()).
  static Result<std::unique_ptr<FilePageStore>> Open(const std::string& path);

  /// \brief Last-ditch open for the salvage tooling, used when even
  /// Open() rejects the file because the header page is
  /// destroyed (bad magic or implausible page size).  Ignores the header
  /// entirely: the caller supplies the page size, the file is sized by
  /// st_size, and the store epoch is recovered from the first page whose
  /// trailer is self-consistent under its own claimed epoch.  v2 files
  /// only — a v1 file without its header has nothing to verify against.
  static Result<std::unique_ptr<FilePageStore>> OpenIgnoringHeader(
      const std::string& path, int page_size);

  int page_size() const override { return page_size_; }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, std::span<uint8_t> out) override;
  Status Write(PageId id, std::span<const uint8_t> data) override;
  uint64_t live_page_count() const override;
  uint64_t total_page_count() const override { return page_count_; }
  PageId first_data_page() const override { return 1; }

  /// \brief Fsyncs the file (and first rewrites the header while
  /// header_damaged()).  Once an fsync has failed the error is sticky:
  /// the kernel may have dropped the dirty pages, so later "successful"
  /// fsyncs must not be reported as durability (the PostgreSQL
  /// fsync-gate lesson).
  Status Sync() override;

  /// \brief Replaces the free list wholesale with `pages` (each must be a
  /// valid non-header page, listed once) and erases each of them — safe
  /// even after a crash, because adopted pages are by definition
  /// unreachable from any live structure.
  Status AdoptFreeList(const std::vector<PageId>& pages);

  /// \brief Total pages in the file, including the header page.
  uint64_t page_count() const { return page_count_; }

  /// \brief On-disk format: 1 = legacy trailer-free pages (verification
  /// off), 2 = self-checksumming pages.
  int format_version() const { return format_version_; }

  /// \brief Random per-file value folded into every page checksum (0 for
  /// v1 files).
  uint32_t epoch() const { return epoch_; }

  /// \brief Whether the header page failed verification at open (or was
  /// ignored by OpenIgnoringHeader).  The next Sync rewrites the header
  /// and heals it; it is the only write of the header after Create.
  bool header_damaged() const { return header_damaged_; }

  /// \brief Verifies the trailer of physical page `id` without touching
  /// the free-list bookkeeping — usable on live, free, and header pages
  /// alike (the scrubber's primitive).  Performs a single read attempt,
  /// no retries.  Returns OK, DataLoss (trailer mismatch), or IoError.
  /// On a v1 store, reads the page and returns OK (nothing to verify).
  Status VerifyPage(PageId id);

  /// \brief Testing hook: the next `n` physical page reads fail with a
  /// transient IoError before reaching the kernel (exercises the retry
  /// loop without a faulty disk).
  void InjectTransientReadErrorsForTesting(int n) {
    inject_read_errors_ = n;
  }

  /// \brief Testing hook: the next `n` physical page reads return the
  /// page with one payload byte flipped (models an in-flight torn/bit-rot
  /// read that a re-read resolves).
  void CorruptNextReadsForTesting(int n) { inject_read_corruptions_ = n; }

  /// \brief Testing hook: closes the file descriptor as a process crash
  /// would, leaving the on-disk state exactly as the last completed write
  /// left it.  Every subsequent operation fails with IoError.
  void CrashForTesting();

  /// \brief Testing hook: skip the physical fsync in Sync().
  /// Process-level crash tests do not need the kernel flush and save two
  /// orders of magnitude of wall clock on ext4.
  void DisableFsyncForTesting() { fsync_enabled_ = false; }

 protected:
  uint64_t QuotaHeadroom() const override;

 private:
  explicit FilePageStore(int fd) : fd_(fd) {}
  /// Opens `path` with `flags` and takes its flock; the returned store
  /// owns the descriptor and has no geometry yet.
  static Result<std::unique_ptr<FilePageStore>> OpenLocked(
      const std::string& path, int flags);
  /// Sets the page count from the file's size; every page starts live.
  Status SizeByFile();
  Status WriteHeader();
  /// Physical page size: payload plus trailer (v2) or payload alone (v1).
  int physical_page_size() const {
    return format_version_ >= 2 ? page_size_ + kPageTrailerSize : page_size_;
  }
  void FillTrailer(PageId id, std::span<uint8_t> physical) const;
  Status CheckTrailer(PageId id, std::span<const uint8_t> physical) const;
  /// One pread of the physical page + trailer verification; no retries.
  Status ReadPhysicalOnce(PageId id, std::span<uint8_t> physical);
  /// Verified read of the payload with the retry/backoff loop.
  Status ReadRaw(PageId id, std::span<uint8_t> out);
  /// Composes payload + trailer and writes the physical page.
  Status WriteRaw(PageId id, std::span<const uint8_t> data);

  int fd_ = -1;
  int page_size_ = 0;
  int format_version_ = 2;
  uint32_t epoch_ = 0;
  uint64_t page_count_ = 1;  // includes the header page
  bool fsync_enabled_ = true;
  bool header_damaged_ = false;
  int inject_read_errors_ = 0;
  int inject_read_corruptions_ = 0;
  // First fsync failure, remembered forever (see Sync()).
  Status sticky_sync_error_;
  // The free list, newest free page last; Allocate() pops the back.
  std::vector<PageId> free_list_;
  // Membership mirror, to reject use-after-free and double free.
  std::unordered_set<PageId> free_set_;
};

/// \brief Fsyncs directory `dir` so that renames and creates inside it
/// are durable — data fsyncs alone do not persist directory entries.
///
/// Failures are sticky per directory path, process-wide, for the same
/// reason FilePageStore::Sync() failures are sticky on the file: after a
/// failed fsync the kernel may have dropped the dirty entries, so a later
/// "successful" fsync of the same directory must not be reported as
/// durability (the PostgreSQL fsync-gate lesson, applied to metadata).
/// An open() failure is not sticky — nothing was flushed or dropped, and
/// the caller may retry once the path problem clears.
Status SyncDirectory(const std::string& dir);

/// \brief True when `path` exists; `*is_dir` (optional) receives whether
/// it is a directory.
bool PathExists(const std::string& path, bool* is_dir = nullptr);

/// \brief The directory containing `path` ("." when it has no slash).
std::string ParentDir(const std::string& path);

/// \brief Creates directory `dir` unless it already exists, then fsyncs
/// its parent so the new entry survives a crash.  Invalid when `dir`
/// exists and is not a directory.
Status EnsureDir(const std::string& dir);

/// \brief Reads the whole file at `path` into `out`.
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out);

/// \brief Publishes `bytes` as `dir/name` the crash-safe way: write a
/// temp file, fsync it, rename it over the final name, fsync `dir`.  A
/// crash at any point leaves either the complete file or none.  Every
/// syscall absorbs EINTR; a failed fsync is an IoError, never ignored.
Status WriteFileDurable(const std::string& dir, const std::string& name,
                        std::span<const uint8_t> bytes);

/// \brief Seals a text manifest: appends a "crc %08x" line holding the
/// CRC-32 of `body` and publishes the result with WriteFileDurable.  The
/// one format of every text manifest (MANIFEST, BACKUPSET, SHARDBACKUP).
Status WriteSealedText(const std::string& dir, const std::string& name,
                       std::string body);

/// \brief Reads a file written by WriteSealedText and returns its body
/// without the seal.  Corruption when the seal is missing, unreadable or
/// does not match; `what` names the artifact in the message.
Result<std::string> ReadSealedText(const std::string& path,
                                   const std::string& what);

namespace internal {

/// \brief Testing seam: the next `count` SyncDirectory() calls fail as if
/// the directory fsync itself failed — and, like a real failure, stick to
/// the directory path they hit.  Process-global; not for concurrent tests.
void InjectDirSyncErrorsForTesting(int count);

/// \brief Clears every sticky directory-fsync failure and any armed
/// injection, so tests do not leak state into each other.
void ResetStickyDirSyncErrorsForTesting();

/// \brief Testing seam for the EINTR-retry loops around the file page
/// store's syscalls (pread / pwrite / open / fsync / ftruncate, and the
/// same calls in the durable file helpers above).  Arms the injector so
/// that, starting with the `nth` intercepted syscall (0-based), the next
/// `count` syscalls fail with EINTR before reaching the kernel.  Every
/// syscall site must absorb the interruption and retry — EINTR is a
/// signal delivery, not an I/O failure.  Pass (UINT64_MAX, 0) to disarm
/// (the default state).  Process-global; not for concurrent tests.
void InjectEintrForTesting(uint64_t nth, uint64_t count);

/// \brief How many injected EINTRs the retry loops have absorbed since
/// process start (asserts that the injection actually hit a loop).
uint64_t EintrRetriesForTesting();

}  // namespace internal

}  // namespace bmeh

#endif  // BMEH_PAGESTORE_PAGE_STORE_H_
