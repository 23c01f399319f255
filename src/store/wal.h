// Wal: the write-ahead log that makes BmehStore mutations durable between
// whole-tree checkpoints.
//
// The log is an append-only chain of PageStore pages living in the same
// file as the checkpoints.  Each page is:
//
//     [magic "BMWL" u32 | next page id u32 | records...]
//
// and each record is:
//
//     [body_len u16 | body | crc u32]
//     body = [op u8 | dims u8 | component u32 * dims | payload u64 (insert)]
//
// A body_len of 0 marks the end of a page's records (fresh pages are
// zeroed, so the marker is implicit).  The CRC covers the body and is
// seeded with the record's offset in the page, so stale bytes from a
// recycled page can never verify at a new position.  Every append rewrites
// the whole tail page — one page-sized write per mutation, the same cost
// discipline as the superblock flip.
//
// Batches.  AppendBatch() encodes many mutations as one record chain
// framed by a pair of marker records:
//
//     [kOpBatchBegin count] rec... [kOpBatchCommit count]
//     marker body = [op u8 | 0 u8 | count u32]
//
// packed so every touched page is written exactly once (the old tail is
// rewritten with appended records, full fresh pages follow in chain
// order).  Replay buffers the members of an open batch and only delivers
// them when the commit marker verifies; a batch cut by a crash — at any
// page-write boundary — is discarded whole and the log truncated back to
// the last committed record, so a batch is all-or-nothing on recovery.
//
// Durability is batched: Append()/AppendBatch() only issue page writes;
// the owner decides when to make them durable (MaybeSync() honours the
// configured sync_every, Sync() forces it).  A record is only
// *guaranteed* durable after the store sync that covers it; replay after
// a crash recovers a prefix of the appended records that always includes
// every record covered by a completed sync, and discards any torn tail
// via the CRC.

#ifndef BMEH_STORE_WAL_H_
#define BMEH_STORE_WAL_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/encoding/pseudo_key.h"
#include "src/pagestore/page_store.h"

namespace bmeh {

/// \brief Append-only page-chain mutation log over a PageStore.
class Wal {
 public:
  static constexpr uint8_t kOpInsert = 1;
  static constexpr uint8_t kOpDelete = 2;
  /// Batch framing markers (never surfaced through Replay's callback).
  static constexpr uint8_t kOpBatchBegin = 3;
  static constexpr uint8_t kOpBatchCommit = 4;

  /// First four bytes of every WAL chain page ("BMWL") — public so the
  /// offline tooling (scrub/fsck) can recognize log pages in a sweep.
  static constexpr uint32_t kPageMagic = 0x424d574c;

  /// \brief One logged mutation.
  struct LogRecord {
    uint8_t op = 0;
    PseudoKey key;
    uint64_t payload = 0;  ///< Meaningful for kOpInsert only.
    /// Log sequence number.  Not serialized: a record's LSN is its
    /// ordinal position in the log (base_lsn() + index), so it is
    /// implicit on disk and filled in when Replay() delivers the record.
    /// Zero means "not assigned" (records being built for Append).
    uint64_t lsn = 0;
  };

  using ReplayFn = std::function<Status(const LogRecord&)>;

  /// \brief `store` must outlive the Wal.  `sync_every` batches fsyncs:
  /// MaybeSync() flushes after every `sync_every` appended records
  /// (0 = never sync on append; the owner syncs at checkpoints only).
  Wal(PageStore* store, uint64_t sync_every)
      : store_(store), sync_every_(sync_every) {}

  /// \brief First page of the chain (kInvalidPageId when the log is empty).
  PageId head() const { return head_; }
  bool empty() const { return head_ == kInvalidPageId; }

  /// \brief Valid records currently in the log (appended + replayed).
  uint64_t record_count() const { return record_count_; }

  /// \brief LSN of the first record in the current log incarnation.  LSNs
  /// are monotonic across checkpoints: TruncateDeferred() advances the
  /// base by the records it discards, and the owner persists the base in
  /// the superblock so identity survives reopen.  A fresh log starts at 1.
  uint64_t base_lsn() const { return base_lsn_; }

  /// \brief Restores the base LSN recorded by the owner (called before
  /// Replay() when opening an existing store).
  void SetBaseLsn(uint64_t base) { base_lsn_ = base; }

  /// \brief LSN the next appended record will receive.
  uint64_t next_lsn() const { return base_lsn_ + record_count_; }

  /// \brief Pages currently owned by the log, in chain order.
  const std::vector<PageId>& pages() const { return pages_; }

  /// \brief Appends one record (page writes only; see MaybeSync).
  /// Records too large to fit an empty page are rejected with Invalid
  /// before any allocation or write.
  ///
  /// Atomic under failure: when a page cannot be allocated (quota /
  /// ENOSPC — the page is pre-reserved, so this is detected up front) or
  /// a write fails cleanly, every effect is rolled back and the log —
  /// in memory and on disk — is exactly as before the call; the same
  /// append can be retried once the condition clears.  Only when the
  /// rollback itself fails does the error escalate to a non-transient
  /// IoError (the owner should stop mutating).
  Status Append(const LogRecord& rec);

  /// \brief Appends `recs` as one all-or-nothing batch: the records are
  /// framed by begin/commit markers and packed so every touched page is
  /// written exactly once — the amortized-I/O path group commit rides on.
  /// After a crash anywhere inside the append, Replay discards the whole
  /// batch; once the commit marker is on disk (and synced), the whole
  /// batch survives.  A size-1 batch degenerates to Append(); an empty
  /// batch is a no-op.
  ///
  /// Atomic under failure with the same contract as Append(): the pages
  /// the batch needs are reserved up front (one ResourceExhausted before
  /// anything is touched), and a mid-flight write failure rolls every
  /// in-memory and on-disk effect back so the batch can be retried.
  Status AppendBatch(std::span<const LogRecord> recs);

  /// \brief Pages a batch of `recs` would have to allocate if appended
  /// now — what AppendBatch() reserves up front.  Exposed for tests and
  /// capacity planning.
  uint64_t PagesNeededFor(std::span<const LogRecord> recs) const;

  /// \brief Syncs the store if `sync_every` unsynced records accumulated.
  Status MaybeSync();

  /// \brief Forces a store sync and resets the batch counter.
  Status Sync();

  /// \brief Tells the log its pages were made durable by an external sync
  /// (e.g. a superblock publish), resetting the batch counter.
  void NoteSynced() { unsynced_ = 0; }

  /// \brief Walks the chain at `head`, invoking `fn` for every valid
  /// record in append order, and positions the append cursor after the
  /// last valid record.  Replay stops — without error — at the first sign
  /// of a torn tail: an unreadable page, a bad page magic, a bad CRC, or a
  /// malformed body.  Batch members are buffered and delivered only when
  /// their commit marker verifies; a batch left open at the cut (the
  /// crash-inside-AppendBatch signature) is discarded whole and the
  /// cursor rewound to the last committed record.  `fn` errors are propagated.  When `sanitize_tail`
  /// is true (the normal recovery path), the tail page is rewritten with
  /// any truncated garbage zeroed out so that stale bytes and dangling
  /// chain links cannot resurface on later appends; pass false for
  /// read-only inspection.
  Status Replay(PageId head, const ReplayFn& fn, bool sanitize_tail = true);

  /// \brief Whether the last Replay() stopped before the chain's natural
  /// end (torn tail, bad magic/CRC, unreadable page).  Expected after a
  /// crash; only noteworthy together with replay_hit_data_loss().
  bool replay_truncated() const { return replay_truncated_; }

  /// \brief Whether the last Replay() was cut short by a page the store
  /// reported as verified-corrupt (Status::DataLoss) rather than a torn
  /// tail.  Torn tails are a benign crash artifact; DataLoss means
  /// acknowledged records may have been destroyed by bit rot, and the
  /// owner should surface degradation instead of staying silent.
  bool replay_hit_data_loss() const { return replay_hit_data_loss_; }

  /// \brief Resets the log to empty, advancing base_lsn() past the
  /// discarded records so LSNs stay monotonic, and hands the log's pages
  /// (in chain order) to the caller to free once nothing reads them.
  /// Called after a checkpoint made the logged mutations redundant.
  std::vector<PageId> TruncateDeferred();

  // ---- Archive segments -------------------------------------------------
  //
  // A WAL archive segment is a standalone file holding a contiguous run
  // of log records, written when a checkpoint is about to truncate them
  // (or by an online backup copying the live tail).  Layout:
  //
  //     [magic "BMWA" u32 | version u32 | lo_lsn u64 | count u64]
  //     count records, each in the page wire format
  //     [body_len u16 | body | crc u32]  (CRC seeded by file offset)
  //
  // LSNs are implicit: record i carries lo_lsn + i.  The reader verifies
  // every CRC and the declared count, so a torn or tampered segment is
  // refused rather than partially applied.

  /// First four bytes of an archive segment file ("BMWA").
  static constexpr uint32_t kArchiveMagic = 0x424d5741;

  /// \brief Serializes `recs` (whose first record carries LSN `lo_lsn`)
  /// into an archive segment image.
  static std::vector<uint8_t> EncodeArchiveSegment(
      std::span<const LogRecord> recs, uint64_t lo_lsn);

  /// \brief Parses and fully verifies a segment image, appending the
  /// records — with LSNs assigned — to `out` and reporting the segment's
  /// LSN range.  Any malformed byte refuses the whole segment.
  static Status DecodeArchiveSegment(std::span<const uint8_t> bytes,
                                     std::vector<LogRecord>* out,
                                     uint64_t* lo_lsn, uint64_t* count);

  /// \brief Name of the segment file holding LSNs starting at `lo_lsn`
  /// ("wal-<16 hex digits>.seg" — zero-padded, so lexicographic order is
  /// LSN order).
  static std::string SegmentFileName(uint64_t lo_lsn);

  /// \brief Atomically writes `recs` (first record = LSN `lo_lsn`) as a
  /// sealed segment file in `dir`: temp file, fsync, rename, directory
  /// fsync — a crash leaves either the complete sealed segment or no
  /// segment, never a torn one.  Reports the final name via `filename`
  /// when non-null.
  static Status WriteSegmentFile(const std::string& dir,
                                 std::span<const LogRecord> recs,
                                 uint64_t lo_lsn,
                                 std::string* filename = nullptr);

  /// \brief Reads and fully verifies a segment file written by
  /// WriteSegmentFile, appending its records (LSNs assigned) to `out`.
  static Status ReadSegmentFile(const std::string& path,
                                std::vector<LogRecord>* out,
                                uint64_t* lo_lsn, uint64_t* count);

 private:
  /// Serialized size of `rec` including length prefix and CRC.
  static size_t WireSize(const LogRecord& rec);
  /// Serialized size of a batch begin/commit marker record.
  static size_t MarkerWireSize();
  /// Writes `rec` into `buf` at `off` (which seeds the CRC).
  static void Encode(const LogRecord& rec, uint8_t* buf, size_t off);
  /// Writes a batch marker (`op` is kOpBatchBegin/kOpBatchCommit) into
  /// `buf` at `off`.
  static void EncodeMarker(uint8_t op, uint32_t count, uint8_t* buf,
                           size_t off);
  /// Starts a fresh tail page image in tail_buf_.
  void InitTailBuffer(PageId id);

  PageStore* store_;
  uint64_t sync_every_;
  PageId head_ = kInvalidPageId;
  PageId tail_ = kInvalidPageId;
  std::vector<uint8_t> tail_buf_;
  size_t tail_used_ = 0;
  uint64_t record_count_ = 0;
  uint64_t base_lsn_ = 1;
  uint64_t unsynced_ = 0;
  bool replay_truncated_ = false;
  bool replay_hit_data_loss_ = false;
  std::vector<PageId> pages_;
};

}  // namespace bmeh

#endif  // BMEH_STORE_WAL_H_
