#include "src/pagestore/page_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>
#include <random>
#include <unordered_map>

#include "src/common/backoff.h"
#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"

namespace bmeh {

namespace {

// Sticky directory-fsync failure state (see SyncDirectory in the header).
// Process-wide because directory durability is a property of the path,
// not of any one PageStore instance.
std::mutex& DirSyncMutex() {
  static std::mutex m;
  return m;
}
std::unordered_map<std::string, std::string>& DirSyncFailures() {
  static auto* failures = new std::unordered_map<std::string, std::string>();
  return *failures;
}
int g_inject_dir_sync_errors = 0;

}  // namespace

void internal::InjectDirSyncErrorsForTesting(int count) {
  std::lock_guard<std::mutex> lock(DirSyncMutex());
  g_inject_dir_sync_errors = count < 0 ? 0 : count;
}

void internal::ResetStickyDirSyncErrorsForTesting() {
  std::lock_guard<std::mutex> lock(DirSyncMutex());
  DirSyncFailures().clear();
  g_inject_dir_sync_errors = 0;
}

// ---------------------------------------------------------------------------
// PageStore: reservation protocol shared by every backend
// ---------------------------------------------------------------------------

PageStore::~PageStore() {
  if (metrics_ != nullptr) metrics_->RemoveSource(metrics_source_);
}

void PageStore::AttachMetrics(obs::MetricsRegistry* registry,
                              std::shared_mutex* sample_guard,
                              const std::string& prefix) {
  if (metrics_ != nullptr) {
    metrics_->RemoveSource(metrics_source_);
    metrics_ = nullptr;
    metrics_source_ = 0;
  }
  if (registry == nullptr) {
    read_latency_ = nullptr;
    write_latency_ = nullptr;
    return;
  }
  read_latency_ = registry->GetHistogram("page_read_latency_ns");
  write_latency_ = registry->GetHistogram("page_write_latency_ns");
  metrics_ = registry;
  // StoreStats and the page counts are owner-synchronized plain fields,
  // so they are sampled at snapshot time rather than mirrored on every
  // operation.  `sample_guard`, when provided, is the owner's operation
  // lock — taken shared so sampling cannot race the owner's mutators.
  // `prefix` labels the sampled names (e.g. "shard3_pagestore_reads_total")
  // so devices sharing a registry — one per shard of a sharded store —
  // don't overwrite each other's sample at Snapshot() time.
  metrics_source_ = registry->AddSource(
      [this, sample_guard, prefix](obs::RegistrySnapshot* s) {
    std::shared_lock<std::shared_mutex> guard_lock;
    if (sample_guard != nullptr) {
      guard_lock = std::shared_lock<std::shared_mutex>(*sample_guard);
    }
    const StoreStats& st = stats_;
    s->counters[prefix + "pagestore_reads_total"] = st.reads;
    s->counters[prefix + "pagestore_writes_total"] = st.writes;
    s->counters[prefix + "pagestore_allocs_total"] = st.allocs;
    s->counters[prefix + "pagestore_frees_total"] = st.frees;
    s->counters[prefix + "pagestore_read_retries_total"] = st.read_retries;
    s->counters[prefix + "pagestore_checksum_failures_total"] =
        st.checksum_failures;
    s->counters[prefix + "pagestore_pages_quarantined_total"] =
        st.pages_quarantined;
    s->counters[prefix + "pagestore_alloc_failures_total"] =
        st.alloc_failures;
    s->gauges[prefix + "pagestore_live_pages"] =
        static_cast<int64_t>(live_page_count());
    s->gauges[prefix + "pagestore_total_pages"] =
        static_cast<int64_t>(total_page_count());
    s->gauges[prefix + "pagestore_high_water_pages"] =
        static_cast<int64_t>(st.high_water_pages);
    s->gauges[prefix + "pagestore_reserved_pages"] =
        static_cast<int64_t>(reserved_pages());
    s->gauges[prefix + "pagestore_max_pages"] =
        static_cast<int64_t>(max_pages());
  });
}

Status PageStore::Reserve(uint64_t n) {
  if (n == 0) return Status::OK();
  const uint64_t headroom = QuotaHeadroom();
  if (headroom != kUnlimitedHeadroom && reserved_ + n > headroom) {
    ++stats_.alloc_failures;
    return Status::ResourceExhausted(
        "cannot reserve " + std::to_string(n) + " pages: only " +
        std::to_string(headroom - std::min(reserved_, headroom)) +
        " available under the quota of " + std::to_string(max_pages_) +
        " pages");
  }
  reserved_ += n;
  return Status::OK();
}

void PageStore::ReleaseReservation(uint64_t n) {
  reserved_ -= std::min(n, reserved_);
}

Status PageStore::TakeAllocationSlot(bool* from_reservation) {
  if (reserved_ > 0) {
    --reserved_;
    *from_reservation = true;
    return Status::OK();
  }
  *from_reservation = false;
  if (QuotaHeadroom() == 0) {
    ++stats_.alloc_failures;
    return Status::ResourceExhausted(
        "page quota of " + std::to_string(max_pages_) +
        " pages exhausted");
  }
  return Status::OK();
}

void PageStore::ReturnAllocationSlot(bool from_reservation) {
  if (from_reservation) ++reserved_;
}

// ---------------------------------------------------------------------------
// InMemoryPageStore
// ---------------------------------------------------------------------------

InMemoryPageStore::InMemoryPageStore(int page_size) : page_size_(page_size) {
  BMEH_CHECK(page_size >= 16) << "page_size too small: " << page_size;
}

bool InMemoryPageStore::IsLive(PageId id) const {
  return id < pages_.size() && pages_[id] != nullptr;
}

uint64_t InMemoryPageStore::QuotaHeadroom() const {
  if (max_pages_ == 0) return kUnlimitedHeadroom;
  const uint64_t grow =
      pages_.size() >= max_pages_ ? 0 : max_pages_ - pages_.size();
  return free_list_.size() + grow;
}

Result<PageId> InMemoryPageStore::Allocate() {
  ++stats_.allocs;
  bool from_reservation = false;
  BMEH_RETURN_NOT_OK(TakeAllocationSlot(&from_reservation));
  PageId id;
  // Ordered so a bad_alloc anywhere leaves pages_ and free_list_ exactly
  // as they were (the recycled slot is only popped after its buffer
  // exists; a throwing push_back never commits the new slot).
  try {
    if (!free_list_.empty()) {
      id = free_list_.back();
      pages_[id] = std::make_unique<uint8_t[]>(page_size_);
      free_list_.pop_back();
    } else {
      id = static_cast<PageId>(pages_.size());
      pages_.push_back(std::make_unique<uint8_t[]>(page_size_));
    }
  } catch (const std::bad_alloc&) {
    ReturnAllocationSlot(from_reservation);
    ++stats_.alloc_failures;
    return Status::ResourceExhausted("out of memory allocating a " +
                                     std::to_string(page_size_) +
                                     "-byte page");
  }
  std::memset(pages_[id].get(), 0, page_size_);
  stats_.high_water_pages =
      std::max(stats_.high_water_pages, live_page_count());
  return id;
}

Status InMemoryPageStore::Free(PageId id) {
  if (!IsLive(id)) {
    return Status::Invalid("Free of non-live page " + std::to_string(id));
  }
  ++stats_.frees;
  pages_[id].reset();
  free_list_.push_back(id);
  return Status::OK();
}

Status InMemoryPageStore::Read(PageId id, std::span<uint8_t> out) {
  if (!IsLive(id)) {
    return Status::IoError("Read of non-live page " + std::to_string(id));
  }
  if (out.size() != static_cast<size_t>(page_size_)) {
    return Status::Invalid("Read buffer size mismatch");
  }
  ++stats_.reads;
  obs::ScopedLatency timer(read_latency_);
  std::memcpy(out.data(), pages_[id].get(), page_size_);
  return Status::OK();
}

Status InMemoryPageStore::Write(PageId id, std::span<const uint8_t> data) {
  if (!IsLive(id)) {
    return Status::IoError("Write of non-live page " + std::to_string(id));
  }
  if (data.size() != static_cast<size_t>(page_size_)) {
    return Status::Invalid("Write buffer size mismatch");
  }
  ++stats_.writes;
  obs::ScopedLatency timer(write_latency_);
  std::memcpy(pages_[id].get(), data.data(), page_size_);
  return Status::OK();
}

uint64_t InMemoryPageStore::live_page_count() const {
  return pages_.size() - free_list_.size();
}

// ---------------------------------------------------------------------------
// FilePageStore
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kMagicV1 = 0x424d4548;  // "BMEH": legacy, no trailers
constexpr uint32_t kMagicV2 = 0x32484d42;  // "BMH2": self-checksumming pages
constexpr size_t kHeaderSize = 64;

/// Seed binding a page's checksum to its identity and its file: the same
/// bytes at another id (misdirected write / read) or in another store
/// (stale replacement device) no longer verify.
uint32_t TrailerSeed(PageId id, uint32_t epoch) {
  return (id * 2654435761u) ^ epoch;
}

/// Errnos that mean "out of space / out of resources right now", not "the
/// device is broken": the operation may succeed verbatim once space or
/// descriptors free up.  Distinguishing them matters because callers treat
/// ResourceExhausted as retryable and IoError as poison.
bool IsExhaustionErrno(int err) {
  return err == ENOSPC || err == EDQUOT || err == ENOMEM || err == EMFILE ||
         err == ENFILE;
}

/// Classifies an errno-reported syscall failure (see IsExhaustionErrno).
/// fsync failures must NOT go through this: a failed fsync may have
/// dropped dirty pages, so it is never safe to report as transient
/// whatever its errno claims.
Status ErrnoStatus(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  return IsExhaustionErrno(err) ? Status::ResourceExhausted(msg)
                                : Status::IoError(msg);
}

/// EINTR fault injection (see internal::InjectEintrForTesting): while
/// armed, intercepted syscalls in the window fail with EINTR before
/// reaching the kernel, proving every loop below absorbs the
/// interruption.  Disarmed (the default) this is one relaxed load per
/// syscall.
std::atomic<uint64_t> g_eintr_start{UINT64_MAX};
std::atomic<uint64_t> g_eintr_count{0};
std::atomic<uint64_t> g_eintr_calls{0};
std::atomic<uint64_t> g_eintr_absorbed{0};

bool SimulateEintr() {
  const uint64_t start = g_eintr_start.load(std::memory_order_relaxed);
  if (start == UINT64_MAX) return false;
  const uint64_t k = g_eintr_calls.fetch_add(1, std::memory_order_relaxed);
  if (k < start || k >= start + g_eintr_count.load(std::memory_order_relaxed)) {
    return false;
  }
  g_eintr_absorbed.fetch_add(1, std::memory_order_relaxed);
  errno = EINTR;
  return true;
}

/// open(2) that survives EINTR — open is interruptible like any other
/// slow syscall (e.g. on a network or FUSE filesystem), and a signal
/// during open is not an I/O failure.
int OpenRetryEintr(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    if (SimulateEintr()) continue;
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// pread that survives EINTR and legal partial transfers.  POSIX allows a
/// read to return fewer bytes than requested without error; treating that
/// as failure misreports a healthy device, so loop on the remainder and
/// only report the final short count (EOF) or errno.
Status PreadFull(int fd, uint8_t* buf, size_t n, off_t off,
                 const std::string& what) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = SimulateEintr()
                          ? -1
                          : ::pread(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(what + ": " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError(what + ": short read (" + std::to_string(done) +
                             "/" + std::to_string(n) + " bytes)");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// fsync(2) that survives EINTR.  Any other failure is returned as is:
/// the caller must treat it as lost durability, never as transient.
int FsyncRetryEintr(int fd) {
  for (;;) {
    if (SimulateEintr()) continue;
    const int rc = ::fsync(fd);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

/// ftruncate(2) that survives EINTR.
int FtruncateRetryEintr(int fd, off_t length) {
  for (;;) {
    if (SimulateEintr()) continue;
    const int rc = ::ftruncate(fd, length);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

/// pwrite counterpart of PreadFull.
Status PwriteFull(int fd, const uint8_t* buf, size_t n, off_t off,
                  const std::string& what) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = SimulateEintr()
                          ? -1
                          : ::pwrite(fd, buf + done, n - done, off + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      // ENOSPC/EDQUOT here is the real-disk-full path: surface it as the
      // retryable code so the layers above roll back instead of poisoning.
      return ErrnoStatus(what, errno);
    }
    if (r == 0) {
      return Status::IoError(what + ": short write (" + std::to_string(done) +
                             "/" + std::to_string(n) + " bytes)");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

uint32_t FreshEpoch() {
  std::random_device rd;
  uint32_t e = static_cast<uint32_t>(rd()) ^ (static_cast<uint32_t>(rd()) << 1);
  return e != 0 ? e : 0x9e3779b9u;
}

}  // namespace

namespace internal {

void InjectEintrForTesting(uint64_t nth, uint64_t count) {
  g_eintr_start.store(UINT64_MAX, std::memory_order_relaxed);  // disarm first
  g_eintr_calls.store(0, std::memory_order_relaxed);
  g_eintr_count.store(count, std::memory_order_relaxed);
  g_eintr_start.store(nth, std::memory_order_relaxed);
}

uint64_t EintrRetriesForTesting() {
  return g_eintr_absorbed.load(std::memory_order_relaxed);
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Durable file helpers
// ---------------------------------------------------------------------------

Status SyncDirectory(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(DirSyncMutex());
    auto it = DirSyncFailures().find(dir);
    if (it != DirSyncFailures().end()) {
      return Status::IoError("fsync dir: " + dir + ": " + it->second +
                             " (sticky: durability of earlier entries is "
                             "unknown)");
    }
    if (g_inject_dir_sync_errors > 0) {
      --g_inject_dir_sync_errors;
      DirSyncFailures().emplace(dir, "injected failure");
      return Status::IoError("fsync dir: " + dir + ": injected failure");
    }
  }
  const int fd = OpenRetryEintr(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir for fsync: " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = FsyncRetryEintr(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    const std::string reason = std::strerror(saved);
    std::lock_guard<std::mutex> lock(DirSyncMutex());
    DirSyncFailures().emplace(dir, reason);
    return Status::IoError("fsync dir: " + dir + ": " + reason);
  }
  return Status::OK();
}

bool PathExists(const std::string& path, bool* is_dir) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  if (is_dir != nullptr) *is_dir = S_ISDIR(st.st_mode);
  return true;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status EnsureDir(const std::string& dir) {
  bool is_dir = false;
  if (PathExists(dir, &is_dir)) {
    if (!is_dir) return Status::Invalid(dir + " exists and is not a directory");
    return Status::OK();
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::IoError("cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  // Persist the new directory's own entry: a crash must not drop it (and
  // everything later written inside it) from its parent.
  return SyncDirectory(ParentDir(dir));
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = OpenRetryEintr(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  Status result;
  if (::fstat(fd, &st) != 0) {
    result = Status::IoError("stat " + path + ": " + std::strerror(errno));
  } else {
    out->resize(static_cast<size_t>(st.st_size));
    result = PreadFull(fd, out->data(), out->size(), 0, "read " + path);
  }
  ::close(fd);
  return result;
}

Status WriteFileDurable(const std::string& dir, const std::string& name,
                        std::span<const uint8_t> bytes) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd =
      OpenRetryEintr(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp_path + ": " +
                           std::strerror(errno));
  }
  Status st =
      PwriteFull(fd, bytes.data(), bytes.size(), 0, "write " + tmp_path);
  if (st.ok() && FsyncRetryEintr(fd) != 0) {
    st = Status::IoError("fsync " + tmp_path + ": " + std::strerror(errno));
  }
  ::close(fd);
  if (st.ok() && ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    st = Status::IoError("cannot publish " + final_path + ": " +
                         std::strerror(errno));
  }
  if (!st.ok()) {
    std::remove(tmp_path.c_str());
    return st;
  }
  // The rename is not durable until the directory entry is synced.
  return SyncDirectory(dir);
}

Status WriteSealedText(const std::string& dir, const std::string& name,
                       std::string body) {
  char seal[32];
  std::snprintf(seal, sizeof(seal), "crc %08x\n",
                Crc32(body.data(), body.size()));
  body += seal;
  return WriteFileDurable(
      dir, name,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()),
                               body.size()));
}

Result<std::string> ReadSealedText(const std::string& path,
                                   const std::string& what) {
  std::vector<uint8_t> raw;
  BMEH_RETURN_NOT_OK(ReadWholeFile(path, &raw));
  std::string text(raw.begin(), raw.end());
  const size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return Status::Corruption(what + " missing its crc seal: " + path);
  }
  uint32_t want = 0;
  if (std::sscanf(text.c_str() + crc_pos, "crc %x", &want) != 1) {
    return Status::Corruption(what + " crc seal unreadable: " + path);
  }
  if (Crc32(text.data(), crc_pos) != want) {
    return Status::Corruption(what + " checksum mismatch: " + path);
  }
  text.resize(crc_pos);
  return text;
}

FilePageStore::~FilePageStore() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::OpenLocked(
    const std::string& path, int flags) {
  const int fd = OpenRetryEintr(path.c_str(), flags, 0644);
  if (fd < 0) {
    return ErrnoStatus("open(" + path + ")", errno);
  }
  auto store = std::unique_ptr<FilePageStore>(new FilePageStore(fd));
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    return Status::IoError("store file already open: " + path);
  }
  return store;
}

Status FilePageStore::SizeByFile() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError(std::string("fstat: ") + std::strerror(errno));
  }
  const uint64_t physical = static_cast<uint64_t>(physical_page_size());
  page_count_ = std::max<uint64_t>(
      (static_cast<uint64_t>(st.st_size) + physical - 1) / physical, 1);
  stats_.high_water_pages = live_page_count();
  return Status::OK();
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Create(
    const std::string& path, int page_size) {
  if (page_size < 64) {
    return Status::Invalid("page_size too small: " + std::to_string(page_size));
  }
  BMEH_ASSIGN_OR_RETURN(auto store, OpenLocked(path, O_RDWR | O_CREAT));
  // Truncate only after the lock is held, so a concurrent Create cannot
  // wipe a store another handle is using.
  if (FtruncateRetryEintr(store->fd_, 0) != 0) {
    return ErrnoStatus("ftruncate(" + path + ")", errno);
  }
  store->page_size_ = page_size;
  store->epoch_ = FreshEpoch();
  BMEH_RETURN_NOT_OK(store->WriteHeader());
  return store;
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path) {
  BMEH_ASSIGN_OR_RETURN(auto store, OpenLocked(path, O_RDWR));
  uint8_t header[kHeaderSize];
  if (!PreadFull(store->fd_, header, sizeof(header), 0, "header pread").ok()) {
    return Status::Corruption("short read of header in " + path);
  }
  const uint32_t magic = GetU32(header);
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption("bad magic in " + path);
  }
  store->format_version_ = magic == kMagicV2 ? 2 : 1;
  store->page_size_ = static_cast<int>(GetU32(header + 4));
  if (store->page_size_ < 64 || store->page_size_ > (1 << 24)) {
    return Status::DataLoss("implausible page size " +
                            std::to_string(store->page_size_) +
                            " in header of " + path + " (header corrupt?)");
  }
  if (store->format_version_ >= 2) {
    store->epoch_ = GetU32(header + 28);
    // Verify the whole header page against its trailer.  A damaged header
    // is tolerated: nothing past the fields above is read, and the next
    // Sync rewrites the page, healing it.
    std::vector<uint8_t> page0(store->physical_page_size());
    Status vst =
        PreadFull(store->fd_, page0.data(), page0.size(), 0, "page 0 pread");
    if (vst.ok()) vst = store->CheckTrailer(0, page0);
    if (!vst.ok()) {
      ++store->stats_.checksum_failures;
      store->header_damaged_ = true;
    }
  }
  BMEH_RETURN_NOT_OK(store->SizeByFile());
  return store;
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::OpenIgnoringHeader(
    const std::string& path, int page_size) {
  if (page_size < 64) {
    return Status::Invalid("page_size too small: " + std::to_string(page_size));
  }
  BMEH_ASSIGN_OR_RETURN(auto store, OpenLocked(path, O_RDWR));
  store->page_size_ = page_size;
  store->header_damaged_ = true;  // by assumption: that is why we are here
  BMEH_RETURN_NOT_OK(store->SizeByFile());
  // Recover the epoch: a trailer whose CRC verifies under its own claimed
  // epoch at its own offset was written by this store for this slot — a
  // forged match would need a preimage of the seeded CRC.
  const int physical = store->physical_page_size();
  std::vector<uint8_t> phys(physical);
  for (PageId id = 1; id < store->page_count_; ++id) {
    const off_t off = static_cast<off_t>(id) * physical;
    if (!PreadFull(store->fd_, phys.data(), phys.size(), off, "pread").ok()) {
      continue;
    }
    const uint8_t* t = phys.data() + page_size;
    if (t[0] != kPageFormatV2 || GetU32(t + 4) != id) continue;
    const uint32_t claimed = GetU32(t + 8);
    if (GetU32(t + 12) == Crc32(phys.data(), page_size + 12,
                                TrailerSeed(id, claimed))) {
      store->epoch_ = claimed;
      return store;
    }
  }
  return Status::DataLoss(
      "no self-consistent page trailer in " + path +
      "; cannot recover the store epoch (wrong page size, v1 file, or "
      "total corruption)");
}

Status FilePageStore::WriteHeader() {
  // The whole physical page 0 is written (zero padded) so its trailer
  // covers every byte — a flip anywhere in the header page is detectable.
  // The page count, live count and free head keep Create's values (1, 0,
  // none) and nothing reads them: an open sizes the store by the file.
  std::vector<uint8_t> page0(physical_page_size(), 0);
  PutU32(page0.data(), kMagicV2);
  PutU32(page0.data() + 4, static_cast<uint32_t>(page_size_));
  PutU64(page0.data() + 8, 1);
  PutU64(page0.data() + 16, 0);
  PutU32(page0.data() + 24, kInvalidPageId);
  PutU32(page0.data() + 28, epoch_);
  FillTrailer(0, page0);
  BMEH_RETURN_NOT_OK(PwriteFull(fd_, page0.data(), page0.size(), 0,
                                "header pwrite"));
  header_damaged_ = false;
  return Status::OK();
}

void FilePageStore::FillTrailer(PageId id, std::span<uint8_t> physical) const {
  uint8_t* t = physical.data() + page_size_;
  std::memset(t, 0, kPageTrailerSize);
  t[0] = kPageFormatV2;
  PutU32(t + 4, id);
  PutU32(t + 8, epoch_);
  const uint32_t crc = Crc32(physical.data(), page_size_ + 12,
                             TrailerSeed(id, epoch_));
  PutU32(t + 12, crc);
}

Status FilePageStore::CheckTrailer(PageId id,
                                   std::span<const uint8_t> physical) const {
  const uint8_t* t = physical.data() + page_size_;
  const std::string where = "page " + std::to_string(id);
  if (t[0] != kPageFormatV2) {
    return Status::DataLoss(where + ": bad trailer version byte " +
                            std::to_string(t[0]));
  }
  if (GetU32(t + 4) != id) {
    return Status::DataLoss(where + ": trailer claims page " +
                            std::to_string(GetU32(t + 4)) +
                            " (misdirected I/O?)");
  }
  if (GetU32(t + 8) != epoch_) {
    return Status::DataLoss(where + ": trailer from foreign store epoch");
  }
  const uint32_t want = Crc32(physical.data(), page_size_ + 12,
                              TrailerSeed(id, epoch_));
  if (GetU32(t + 12) != want) {
    return Status::DataLoss(where + ": checksum mismatch");
  }
  return Status::OK();
}

Status FilePageStore::ReadPhysicalOnce(PageId id,
                                       std::span<uint8_t> physical) {
  if (inject_read_errors_ > 0) {
    --inject_read_errors_;
    return Status::IoError("injected transient pread error on page " +
                           std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * physical_page_size();
  BMEH_RETURN_NOT_OK(PreadFull(fd_, physical.data(), physical.size(), off,
                               "pread page " + std::to_string(id)));
  if (inject_read_corruptions_ > 0) {
    --inject_read_corruptions_;
    physical[physical.size() / 3] ^= 0x40;
  }
  if (format_version_ >= 2) {
    Status st = CheckTrailer(id, physical);
    if (!st.ok()) {
      ++stats_.checksum_failures;
      return st;
    }
  }
  return Status::OK();
}

Status FilePageStore::ReadRaw(PageId id, std::span<uint8_t> out) {
  if (format_version_ < 2) {
    // Legacy pages carry no trailer: a single direct read, no
    // verification possible.
    const off_t off = static_cast<off_t>(id) * physical_page_size();
    return PreadFull(fd_, out.data(), out.size(), off,
                     "pread page " + std::to_string(id));
  }
  std::vector<uint8_t> physical(physical_page_size());
  Status st;
  for (int attempt = 0; attempt <= max_read_retries_; ++attempt) {
    if (attempt > 0) {
      ++stats_.read_retries;
      if (retry_backoff_us_ > 0) {
        SleepUs(static_cast<uint64_t>(retry_backoff_us_) << (attempt - 1));
      }
    }
    st = ReadPhysicalOnce(id, physical);
    if (st.ok()) {
      std::memcpy(out.data(), physical.data(), out.size());
      return Status::OK();
    }
    // Both failure modes are worth a re-read: transient EIO obviously,
    // and a checksum mismatch because the first read may have raced a
    // concurrent write (a torn read) or hit a transient transfer error —
    // only corruption at rest fails every attempt.
  }
  if (st.IsIoError()) {
    return Status::IoError("page " + std::to_string(id) + " unreadable after " +
                           std::to_string(max_read_retries_ + 1) +
                           " attempts: " + st.message());
  }
  return Status::DataLoss("page " + std::to_string(id) +
                          " failed verification after " +
                          std::to_string(max_read_retries_ + 1) +
                          " attempts: " + st.message());
}

Status FilePageStore::WriteRaw(PageId id, std::span<const uint8_t> data) {
  const off_t off = static_cast<off_t>(id) * physical_page_size();
  if (format_version_ < 2) {
    return PwriteFull(fd_, data.data(), data.size(), off,
                      "pwrite page " + std::to_string(id));
  }
  std::vector<uint8_t> physical(physical_page_size());
  std::memcpy(physical.data(), data.data(), data.size());
  FillTrailer(id, physical);
  return PwriteFull(fd_, physical.data(), physical.size(), off,
                    "pwrite page " + std::to_string(id));
}

Status FilePageStore::VerifyPage(PageId id) {
  if (id >= page_count_) {
    return Status::Invalid("VerifyPage: no page " + std::to_string(id));
  }
  std::vector<uint8_t> physical(physical_page_size());
  return ReadPhysicalOnce(id, physical);
}

uint64_t FilePageStore::QuotaHeadroom() const {
  if (max_pages_ == 0) return kUnlimitedHeadroom;
  const uint64_t grow =
      page_count_ >= max_pages_ ? 0 : max_pages_ - page_count_;
  return free_list_.size() + grow;
}

Result<PageId> FilePageStore::Allocate() {
  ++stats_.allocs;
  bool from_reservation = false;
  BMEH_RETURN_NOT_OK(TakeAllocationSlot(&from_reservation));
  PageId id;
  if (!free_list_.empty()) {
    // Free() erased the page, so it already reads as zeros.
    id = free_list_.back();
    free_list_.pop_back();
    free_set_.erase(id);
  } else {
    // Growth writes the zero page, so the file never has a hole and a
    // full disk surfaces here, not at the caller's first Write.
    id = static_cast<PageId>(page_count_);
    Status wst = WriteRaw(id, std::vector<uint8_t>(page_size_, 0));
    if (!wst.ok()) {
      // The failed pwrite may have extended the file with a partial page;
      // trim it so an open (which sizes the store by the file) never sees
      // a garbage page past the logical end.  Nothing else changed, so the
      // store is exactly as before the call.
      if (FtruncateRetryEintr(fd_, static_cast<off_t>(page_count_) *
                                       physical_page_size()) != 0) {
        BMEH_LOG(Warning) << "could not trim partially allocated page "
                          << id << ": " << std::strerror(errno);
      }
      ReturnAllocationSlot(from_reservation);
      ++stats_.alloc_failures;
      return wst;
    }
    ++page_count_;
  }
  stats_.high_water_pages =
      std::max(stats_.high_water_pages, live_page_count());
  return id;
}

Status FilePageStore::Free(PageId id) {
  if (id == 0 || id >= page_count_ || free_set_.count(id) != 0) {
    return Status::Invalid("Free of invalid page " + std::to_string(id));
  }
  // Erase the page.  If that fails it stays live, so Allocate() never
  // hands out a page that still holds old bytes.
  BMEH_RETURN_NOT_OK(WriteRaw(id, std::vector<uint8_t>(page_size_, 0)));
  ++stats_.frees;
  free_set_.insert(id);
  free_list_.push_back(id);
  return Status::OK();
}

Status FilePageStore::AdoptFreeList(const std::vector<PageId>& pages) {
  for (PageId id : pages) {
    if (id == 0 || id >= page_count_) {
      return Status::Invalid("AdoptFreeList: invalid page " +
                             std::to_string(id));
    }
  }
  // Reset to "everything live", then free (and so erase) the adopted
  // pages one by one.
  free_list_.clear();
  free_set_.clear();
  for (PageId id : pages) {
    BMEH_RETURN_NOT_OK(Free(id));
  }
  stats_.frees -= pages.size();  // adoption is bookkeeping, not workload
  return Status::OK();
}

Status FilePageStore::Read(PageId id, std::span<uint8_t> out) {
  if (id == 0 || id >= page_count_ || free_set_.count(id) != 0) {
    return Status::IoError("Read of invalid page " + std::to_string(id));
  }
  if (out.size() != static_cast<size_t>(page_size_)) {
    return Status::Invalid("Read buffer size mismatch");
  }
  ++stats_.reads;
  obs::ScopedLatency timer(read_latency_);
  return ReadRaw(id, out);
}

Status FilePageStore::Write(PageId id, std::span<const uint8_t> data) {
  if (id == 0 || id >= page_count_ || free_set_.count(id) != 0) {
    return Status::IoError("Write of invalid page " + std::to_string(id));
  }
  if (data.size() != static_cast<size_t>(page_size_)) {
    return Status::Invalid("Write buffer size mismatch");
  }
  ++stats_.writes;
  obs::ScopedLatency timer(write_latency_);
  return WriteRaw(id, data);
}

uint64_t FilePageStore::live_page_count() const {
  return page_count_ - 1 - free_list_.size();
}

Status FilePageStore::Sync() {
  if (!sticky_sync_error_.ok()) {
    return sticky_sync_error_;
  }
  if (header_damaged_) BMEH_RETURN_NOT_OK(WriteHeader());
  if (fsync_enabled_ && FsyncRetryEintr(fd_) != 0) {
    sticky_sync_error_ =
        Status::IoError(std::string("fsync: ") + std::strerror(errno));
    return sticky_sync_error_;
  }
  return Status::OK();
}

void FilePageStore::CrashForTesting() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bmeh
