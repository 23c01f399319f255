#include "src/store/wal.h"

#include <cstdio>
#include <unordered_set>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/pagestore/undo_journal.h"

namespace bmeh {

namespace {

constexpr uint32_t kWalMagic = Wal::kPageMagic;  // "BMWL"
constexpr size_t kPageHeaderSize = 8;            // magic + next
constexpr size_t kLenSize = 2;
constexpr size_t kCrcSize = 4;

size_t BodySize(uint8_t op, int dims) {
  return 2 + 4 * static_cast<size_t>(dims) +
         (op == Wal::kOpInsert ? 8 : 0);
}

// Marker body: [op u8 | 0 u8 | count u32].
constexpr size_t kMarkerBodySize = 6;

bool IsMutationOp(uint8_t op) {
  return op == Wal::kOpInsert || op == Wal::kOpDelete;
}

// Archive segment header: magic + version + lo_lsn + count.
constexpr uint32_t kArchiveVersion = 1;
constexpr size_t kArchiveHeaderSize = 24;

/// Parses a mutation record body (already CRC-verified) into `rec`.
/// Returns false on any structural mismatch.
bool ParseMutationBody(const uint8_t* body, uint16_t len,
                       Wal::LogRecord* rec) {
  const uint8_t op = body[0];
  const int dims = body[1];
  if (!IsMutationOp(op) || dims < 1 || dims > kMaxDims ||
      len != BodySize(op, dims)) {
    return false;
  }
  rec->op = op;
  std::array<uint32_t, kMaxDims> comps{};
  for (int j = 0; j < dims; ++j) {
    comps[j] = GetU32(body + 2 + 4 * j);
  }
  rec->key = PseudoKey(std::span<const uint32_t>(comps.data(), dims));
  if (op == Wal::kOpInsert) rec->payload = GetU64(body + 2 + 4 * dims);
  return true;
}

}  // namespace

size_t Wal::WireSize(const LogRecord& rec) {
  return kLenSize + BodySize(rec.op, rec.key.dims()) + kCrcSize;
}

size_t Wal::MarkerWireSize() {
  return kLenSize + kMarkerBodySize + kCrcSize;
}

void Wal::EncodeMarker(uint8_t op, uint32_t count, uint8_t* buf,
                       size_t off) {
  const uint16_t len = static_cast<uint16_t>(kMarkerBodySize);
  PutU16(buf + off, len);
  uint8_t* body = buf + off + kLenSize;
  body[0] = op;
  body[1] = 0;
  PutU32(body + 2, count);
  const uint32_t crc = Crc32(body, len, static_cast<uint32_t>(off));
  PutU32(body + len, crc);
}

void Wal::Encode(const LogRecord& rec, uint8_t* buf, size_t off) {
  const uint16_t len =
      static_cast<uint16_t>(BodySize(rec.op, rec.key.dims()));
  PutU16(buf + off, len);
  uint8_t* body = buf + off + kLenSize;
  body[0] = rec.op;
  body[1] = static_cast<uint8_t>(rec.key.dims());
  for (int j = 0; j < rec.key.dims(); ++j) {
    PutU32(body + 2 + 4 * j, rec.key.component(j));
  }
  if (rec.op == kOpInsert) PutU64(body + 2 + 4 * rec.key.dims(), rec.payload);
  const uint32_t crc = Crc32(body, len, static_cast<uint32_t>(off));
  PutU32(body + len, crc);
}

void Wal::InitTailBuffer(PageId id) {
  tail_buf_.assign(store_->page_size(), 0);
  PutU32(tail_buf_.data(), kWalMagic);
  PutU32(tail_buf_.data() + 4, kInvalidPageId);
  tail_ = id;
  tail_used_ = kPageHeaderSize;
}

uint64_t Wal::PagesNeededFor(std::span<const LogRecord> recs) const {
  const size_t page_size = static_cast<size_t>(store_->page_size());
  uint64_t fresh = 0;
  size_t cursor = tail_used_;
  bool have_page = !empty();
  auto place = [&](size_t need) {
    if (!have_page || cursor + need > page_size) {
      ++fresh;
      have_page = true;
      cursor = kPageHeaderSize;
    }
    cursor += need;
  };
  if (recs.size() > 1) place(MarkerWireSize());
  for (const LogRecord& rec : recs) place(WireSize(rec));
  if (recs.size() > 1) place(MarkerWireSize());
  return fresh;
}

Status Wal::AppendBatch(std::span<const LogRecord> recs) {
  if (recs.empty()) return Status::OK();
  const size_t page_size = static_cast<size_t>(store_->page_size());
  for (const LogRecord& rec : recs) {
    if (!IsMutationOp(rec.op)) {
      return Status::Invalid("bad WAL op " + std::to_string(rec.op));
    }
    if (WireSize(rec) > page_size - kPageHeaderSize) {
      // Would not fit even an empty page: sealing the tail cannot help,
      // and Encode would overrun tail_buf_.
      return Status::Invalid("WAL record of " +
                             std::to_string(WireSize(rec)) +
                             " bytes exceeds page capacity of " +
                             std::to_string(page_size - kPageHeaderSize));
    }
  }

  // Snapshot the append cursor: the append either completes, or every
  // in-memory and on-disk effect is undone so the caller can retry it
  // once the failure (typically page exhaustion) clears.
  const PageId old_head = head_;
  const PageId old_tail = tail_;
  const size_t old_tail_used = tail_used_;
  const size_t old_page_count = pages_.size();
  std::vector<uint8_t> old_tail_buf = tail_buf_;

  PageOpJournal journal(store_);
  // Reserve every fresh page up front so a full device refuses the whole
  // append here, before anything is touched.
  const uint64_t fresh_pages = PagesNeededFor(recs);
  if (fresh_pages > 0) {
    BMEH_RETURN_NOT_OK(journal.Reserve(fresh_pages));
  }

  // Places the next `need` bytes: starts the chain, or seals a full tail
  // (links it to a fresh page and writes it out for the last time) and
  // continues in the fresh page, so every page is written once, in chain
  // order.  Only the old tail holds committed records, so only its seal
  // is guarded; a fresh page rolls back by being freed.  A link names a
  // page only once it is allocated, and an allocated page reads as zeros,
  // so a crash between writes leaves either no commit marker or a link
  // that cannot verify as a WAL page.
  auto place = [&](size_t need) -> Status {
    if (!empty() && tail_used_ + need <= page_size) return Status::OK();
    BMEH_ASSIGN_OR_RETURN(const PageId id, journal.Allocate());
    if (empty()) {
      head_ = id;
    } else {
      PutU32(tail_buf_.data() + 4, id);
      BMEH_RETURN_NOT_OK(
          tail_ == old_tail
              ? journal.GuardedWrite(tail_, tail_buf_, old_tail_buf)
              : store_->Write(tail_, tail_buf_));
    }
    InitTailBuffer(id);
    pages_.push_back(id);
    return Status::OK();
  };
  // A batch is framed by begin/commit markers; a lone record is bare.
  const bool framed = recs.size() > 1;
  const uint32_t count = static_cast<uint32_t>(recs.size());
  auto marker = [&](uint8_t op) -> Status {
    BMEH_RETURN_NOT_OK(place(MarkerWireSize()));
    EncodeMarker(op, count, tail_buf_.data(), tail_used_);
    tail_used_ += MarkerWireSize();
    return Status::OK();
  };
  Status st = framed ? marker(kOpBatchBegin) : Status::OK();
  for (size_t i = 0; st.ok() && i < recs.size(); ++i) {
    st = place(WireSize(recs[i]));
    if (!st.ok()) break;
    Encode(recs[i], tail_buf_.data(), tail_used_);
    tail_used_ += WireSize(recs[i]);
  }
  if (st.ok() && framed) st = marker(kOpBatchCommit);
  if (st.ok()) st = store_->Write(tail_, tail_buf_);
  if (!st.ok()) {
    Status rb = journal.RollbackNow();
    head_ = old_head;
    tail_ = old_tail;
    tail_used_ = old_tail_used;
    tail_buf_ = std::move(old_tail_buf);
    pages_.resize(old_page_count);
    // A failed rollback left disk and memory diverged — report that
    // (non-transient) instead of the original error so the owner poisons.
    return rb.ok() ? st : rb;
  }
  journal.Commit();
  record_count_ += recs.size();
  unsynced_ += recs.size();
  return Status::OK();
}

Status Wal::MaybeSync() {
  if (sync_every_ > 0 && unsynced_ >= sync_every_) {
    return Sync();
  }
  return Status::OK();
}

Status Wal::Sync() {
  BMEH_RETURN_NOT_OK(store_->Sync());
  unsynced_ = 0;
  return Status::OK();
}

Status Wal::Replay(PageId head, const ReplayFn& fn, bool sanitize_tail) {
  head_ = kInvalidPageId;
  tail_ = kInvalidPageId;
  tail_buf_.clear();
  tail_used_ = 0;
  record_count_ = 0;
  unsynced_ = 0;
  replay_truncated_ = false;
  replay_hit_data_loss_ = false;
  pages_.clear();
  if (head == kInvalidPageId) {
    return Status::OK();
  }

  const size_t page_size = static_cast<size_t>(store_->page_size());
  std::vector<uint8_t> buf(page_size);
  std::unordered_set<PageId> visited;
  std::vector<PageId> chain;  // pages visited, in chain order
  // An open batch: members are buffered and only delivered (and the
  // cursor advanced) when the commit marker verifies, so a batch cut by
  // a crash vanishes whole.
  bool batch_active = false;
  uint32_t batch_expected = 0;
  std::vector<LogRecord> batch_members;
  PageId id = head;
  bool truncated = false;
  // Adopts the position right after the record that ends at `off` on the
  // current page as the new append cursor.  Pages before an adoption
  // point only ever hold delivered records, so the whole visited chain
  // becomes the log's page list.
  auto adopt = [&](size_t off) {
    if (head_ == kInvalidPageId) head_ = head;
    tail_ = id;
    tail_buf_ = buf;
    tail_used_ = off;
    pages_ = chain;
  };
  // Everything below treats any inconsistency as "the log ends here":
  // after a crash the tail may be unwritten (zeros), half-written (CRC
  // mismatch), or dangling (unreadable page) — all are expected states,
  // and the valid prefix before them is exactly what was acknowledged.
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      truncated = true;  // cycle: stale link into an older incarnation
      break;
    }
    const Status read_st = store_->Read(id, buf);
    if (!read_st.ok() || GetU32(buf.data()) != kWalMagic) {
      truncated = true;
      if (read_st.IsDataLoss()) replay_hit_data_loss_ = true;
      break;
    }
    chain.push_back(id);
    const PageId next = GetU32(buf.data() + 4);
    size_t off = kPageHeaderSize;
    bool page_ok = true;
    while (off + kLenSize <= page_size) {
      const uint16_t len = GetU16(buf.data() + off);
      if (len == 0) break;  // end of this page's records
      if (off + kLenSize + len + kCrcSize > page_size) {
        page_ok = false;
        break;
      }
      const uint8_t* body = buf.data() + off + kLenSize;
      const uint32_t crc = GetU32(body + len);
      if (Crc32(body, len, static_cast<uint32_t>(off)) != crc) {
        page_ok = false;
        break;
      }
      const uint8_t op = body[0];
      const int dims = body[1];
      if (op == kOpBatchBegin || op == kOpBatchCommit) {
        if (dims != 0 || len != kMarkerBodySize) {
          page_ok = false;
          break;
        }
        const uint32_t count = GetU32(body + 2);
        if (op == kOpBatchBegin) {
          // A begin inside an open batch is structural nonsense — cut at
          // the last committed record.
          if (batch_active) {
            page_ok = false;
            break;
          }
          batch_active = true;
          batch_expected = count;
          batch_members.clear();
        } else {
          if (!batch_active || count != batch_expected ||
              batch_members.size() != batch_expected) {
            page_ok = false;
            break;
          }
          for (LogRecord& member : batch_members) {
            member.lsn = base_lsn_ + record_count_;
            BMEH_RETURN_NOT_OK(fn(member));
            ++record_count_;
          }
          batch_active = false;
          adopt(off + kLenSize + len + kCrcSize);
        }
        off += kLenSize + len + kCrcSize;
        continue;
      }
      LogRecord rec;
      if (!ParseMutationBody(body, len, &rec)) {
        page_ok = false;
        break;
      }
      off += kLenSize + len + kCrcSize;
      if (batch_active) {
        if (batch_members.size() >= batch_expected) {
          // More members than the frame declared: cut.
          page_ok = false;
          break;
        }
        batch_members.push_back(rec);
        continue;
      }
      rec.lsn = base_lsn_ + record_count_;
      BMEH_RETURN_NOT_OK(fn(rec));
      ++record_count_;
      adopt(off);
    }
    if (!page_ok) {
      truncated = true;
      break;
    }
    id = next;
  }
  if (batch_active) {
    // The chain ended with an uncommitted batch — the on-disk signature
    // of a crash inside AppendBatch.  The buffered members are dropped
    // and the cursor stays at the last committed record; mark the log
    // truncated so the tail past the cursor is sanitized below.
    truncated = true;
  }
  replay_truncated_ = truncated;

  if (tail_ == kInvalidPageId) {
    // Nothing valid anywhere in the chain: the log is effectively empty
    // and the head pages (if any) are garbage for the caller to reclaim.
    return Status::OK();
  }
  head_ = head;
  if (pages_.empty() || pages_.front() != head) {
    // The head itself held a record, so this cannot happen; defensive.
    return Status::Corruption("WAL replay lost its head page");
  }
  // Zero out everything past the last valid record (including any stale
  // next-link) so future appends cannot resurrect discarded bytes.  Never
  // write that back when the cut was a verified-corrupt page: truncating
  // the chain on disk would erase the very evidence that distinguishes
  // "benign torn tail" from "acknowledged records destroyed", and the next
  // open (or a salvage run) would then miss the loss entirely.
  const PageId stale_next = GetU32(tail_buf_.data() + 4);
  std::fill(tail_buf_.begin() + tail_used_, tail_buf_.end(), 0);
  PutU32(tail_buf_.data() + 4, kInvalidPageId);
  if (sanitize_tail && !replay_hit_data_loss_ &&
      (truncated || stale_next != kInvalidPageId)) {
    BMEH_RETURN_NOT_OK(store_->Write(tail_, tail_buf_));
  }
  return Status::OK();
}

Status Wal::ReadRecords(std::vector<LogRecord>* out) const {
  // Every append writes its pages before it returns, so the chain on disk
  // holds exactly the live log: a read-only replay on a second cursor
  // collects it, LSNs included, and anything else is damage.
  Wal reader(store_, 0);
  reader.SetBaseLsn(base_lsn_);
  const size_t before = out->size();
  out->reserve(before + record_count_);
  BMEH_RETURN_NOT_OK(reader.Replay(
      head_,
      [out](const LogRecord& rec) -> Status {
        out->push_back(rec);
        return Status::OK();
      },
      /*sanitize_tail=*/false));
  if (out->size() - before != record_count_) {
    return Status::Corruption(
        "WAL read back " + std::to_string(out->size() - before) +
        " records where the live log holds " +
        std::to_string(record_count_));
  }
  return Status::OK();
}

std::vector<PageId> Wal::TruncateDeferred() {
  std::vector<PageId> owned = std::move(pages_);
  pages_.clear();
  head_ = kInvalidPageId;
  tail_ = kInvalidPageId;
  tail_buf_.clear();
  tail_used_ = 0;
  // The discarded records keep their identity: the next append continues
  // the LSN sequence where the truncated log left off.
  base_lsn_ += record_count_;
  record_count_ = 0;
  unsynced_ = 0;
  return owned;
}

std::vector<uint8_t> Wal::EncodeArchiveSegment(
    std::span<const LogRecord> recs, uint64_t lo_lsn) {
  size_t total = kArchiveHeaderSize;
  for (const LogRecord& rec : recs) total += WireSize(rec);
  std::vector<uint8_t> out(total, 0);
  PutU32(out.data(), kArchiveMagic);
  PutU32(out.data() + 4, kArchiveVersion);
  PutU64(out.data() + 8, lo_lsn);
  PutU64(out.data() + 16, recs.size());
  size_t off = kArchiveHeaderSize;
  for (const LogRecord& rec : recs) {
    Encode(rec, out.data(), off);
    off += WireSize(rec);
  }
  return out;
}

Status Wal::DecodeArchiveSegment(std::span<const uint8_t> bytes,
                                 std::vector<LogRecord>* out,
                                 uint64_t* lo_lsn, uint64_t* count) {
  if (bytes.size() < kArchiveHeaderSize) {
    return Status::Corruption("archive segment shorter than its header");
  }
  if (GetU32(bytes.data()) != kArchiveMagic) {
    return Status::Corruption("bad archive segment magic");
  }
  const uint32_t version = GetU32(bytes.data() + 4);
  if (version != kArchiveVersion) {
    return Status::Corruption("unsupported archive segment version " +
                              std::to_string(version));
  }
  const uint64_t lo = GetU64(bytes.data() + 8);
  const uint64_t n = GetU64(bytes.data() + 16);
  size_t off = kArchiveHeaderSize;
  for (uint64_t i = 0; i < n; ++i) {
    if (off + kLenSize > bytes.size()) {
      return Status::Corruption("archive segment truncated at record " +
                                std::to_string(i));
    }
    const uint16_t len = GetU16(bytes.data() + off);
    if (len == 0 || off + kLenSize + len + kCrcSize > bytes.size()) {
      return Status::Corruption("archive segment truncated at record " +
                                std::to_string(i));
    }
    const uint8_t* body = bytes.data() + off + kLenSize;
    const uint32_t crc = GetU32(body + len);
    if (Crc32(body, len, static_cast<uint32_t>(off)) != crc) {
      return Status::Corruption("archive record checksum mismatch at LSN " +
                                std::to_string(lo + i));
    }
    LogRecord rec;
    if (!ParseMutationBody(body, len, &rec)) {
      return Status::Corruption("malformed archive record at LSN " +
                                std::to_string(lo + i));
    }
    rec.lsn = lo + i;
    out->push_back(rec);
    off += kLenSize + len + kCrcSize;
  }
  if (off != bytes.size()) {
    return Status::Corruption("archive segment has trailing bytes");
  }
  *lo_lsn = lo;
  *count = n;
  return Status::OK();
}

std::string Wal::SegmentFileName(uint64_t lo_lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.seg",
                static_cast<unsigned long long>(lo_lsn));
  return name;
}

Status Wal::WriteSegmentFile(const std::string& dir,
                             std::span<const LogRecord> recs,
                             uint64_t lo_lsn, std::string* filename) {
  const std::string name = SegmentFileName(lo_lsn);
  BMEH_RETURN_NOT_OK(
      WriteFileDurable(dir, name, EncodeArchiveSegment(recs, lo_lsn)));
  if (filename != nullptr) *filename = name;
  return Status::OK();
}

Status Wal::ReadSegmentFile(const std::string& path,
                            std::vector<LogRecord>* out, uint64_t* lo_lsn,
                            uint64_t* count) {
  std::vector<uint8_t> bytes;
  BMEH_RETURN_NOT_OK(ReadWholeFile(path, &bytes));
  Status st = DecodeArchiveSegment(bytes, out, lo_lsn, count);
  if (!st.ok()) {
    return Status(st.code(), path + ": " + st.message());
  }
  return st;
}

}  // namespace bmeh
