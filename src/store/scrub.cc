#include "src/store/scrub.h"

#include <map>
#include <unordered_set>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/store/wal.h"

namespace bmeh {

namespace {

/// The ordered (key -> payload) state a salvage pass accumulates.
using RecordMap = std::map<PseudoKey, uint64_t>;

void ApplySalvagedOp(const Wal::LogRecord& rec, RecordMap* state) {
  if (rec.op == Wal::kOpInsert) {
    state->emplace(rec.key, rec.payload);  // first write wins, as live
  } else {
    state->erase(rec.key);
  }
}

/// Detection proper; the public wrapper charges the metrics so every
/// return path is counted once.
Status ScrubStoreImpl(const std::string& path, ScrubReport* report) {
  BMEH_CHECK(report != nullptr);
  *report = ScrubReport{};
  auto opened = FilePageStore::Open(path);
  if (!opened.ok()) {
    if (opened.status().IsDataLoss() || opened.status().IsCorruption()) {
      // The header page itself is destroyed — detection succeeded, even
      // though nothing past the header can be scanned without it.
      report->structure_damaged = true;
      report->corrupt_pages.push_back(0);
      report->notes.push_back("header unusable: " +
                              opened.status().ToString());
      return Status::OK();
    }
    return opened.status();
  }
  auto file = std::move(opened).ValueOrDie();
  report->format_version = file->format_version();
  report->pages_scanned = file->page_count();
  if (file->header_damaged()) {
    report->structure_damaged = true;
    report->notes.push_back("file header failed verification");
    report->corrupt_pages.push_back(0);
  }

  // Pass 1: every physical page's trailer, independent of reachability —
  // bit rot in a free or leaked page matters too (it will be recycled).
  if (file->format_version() >= 2) {
    for (PageId id = file->header_damaged() ? 1 : 0; id < file->page_count();
         ++id) {
      const Status st = file->VerifyPage(id);
      if (st.IsDataLoss()) {
        report->corrupt_pages.push_back(id);
      } else if (!st.ok()) {
        report->structure_damaged = true;
        report->notes.push_back("page " + std::to_string(id) +
                                " unreadable: " + st.ToString());
      }
    }
  } else {
    report->notes.push_back(
        "legacy v1 store: pages carry no checksums; only structural "
        "checks ran (fsck --repair rewrites into the v2 format)");
  }

  // Pass 2: structural reachability — superblock, image chain, WAL chain.
  const PageId super_page = file->first_data_page();
  uint64_t reachable = 1;  // the header page
  PageId image_head = kInvalidPageId, wal_head = kInvalidPageId;
  uint64_t generation = 0;
  const Status super_st = internal::ReadStoreSuperblock(
      file.get(), super_page, &image_head, &generation, &wal_head);
  if (!super_st.ok()) {
    report->structure_damaged = true;
    report->notes.push_back("superblock unusable: " + super_st.ToString());
    return Status::OK();
  }
  ++reachable;  // the superblock

  if (image_head != kInvalidPageId) {
    // Links only: a link past the file's end fails its read.
    std::vector<PageId> image_pages;
    if (!BmehTree::WalkImageChain(file.get(), image_head, &image_pages,
                                  /*payload=*/nullptr)
             .ok()) {
      report->structure_damaged = true;
      report->notes.push_back(
          "checkpoint image chain cut after " +
          std::to_string(image_pages.size()) + " page(s)");
    }
    reachable += image_pages.size();
  }
  if (wal_head != kInvalidPageId) {
    Wal wal(file.get(), 0);
    const Status replay = wal.Replay(
        wal_head, [](const Wal::LogRecord&) { return Status::OK(); },
        /*sanitize_tail=*/false);
    if (!replay.ok()) {
      report->structure_damaged = true;
      report->notes.push_back("WAL walk failed: " + replay.ToString());
    } else if (wal.replay_hit_data_loss()) {
      report->structure_damaged = true;
      report->notes.push_back("WAL chain cut by a corrupt page after " +
                              std::to_string(wal.record_count()) +
                              " record(s)");
    }
    reachable += wal.pages().size();
  }
  report->pages_reachable = reachable;
  return Status::OK();
}

}  // namespace

Status ScrubStore(const std::string& path, ScrubReport* report,
                  obs::MetricsRegistry* metrics) {
  obs::ScopedLatency timer(
      metrics != nullptr ? metrics->GetHistogram("scrub_latency_ns")
                         : nullptr);
  const Status st = ScrubStoreImpl(path, report);
  if (metrics != nullptr) {
    metrics->GetCounter("scrub_runs_total")->Inc();
    metrics->GetCounter("scrub_pages_scanned_total")
        ->Inc(report->pages_scanned);
    metrics->GetCounter("scrub_corrupt_pages_total")
        ->Inc(report->corrupt_pages.size());
    if (report->structure_damaged) {
      metrics->GetCounter("scrub_structure_damaged_total")->Inc();
    }
  }
  return st;
}

namespace {

/// Best-effort extraction when the tolerant BmehStore open is impossible
/// (superblock and directory both gone): try every page as an image head,
/// keep the candidate tree holding the most records, then overlay records
/// replayed from every WAL chain head found by magic scan.
Status SweepSalvage(FilePageStore* file, const StoreOptions& options,
                    RecordMap* state) {
  std::unique_ptr<BmehTree> best;
  for (PageId id = file->first_data_page(); id < file->page_count(); ++id) {
    TreeLoadReport tr;
    // An image chain page's payload starts with the "BMT1" magic only at
    // the true head, so false positives cannot survive the parse.
    auto cand = BmehTree::LoadFromTolerant(file, id, &tr);
    if (!cand.ok()) continue;
    auto tree = std::move(cand).ValueOrDie();
    if (!(tree->schema() == options.schema)) continue;
    if (best == nullptr ||
        tree->Stats().records > best->Stats().records) {
      best = std::move(tree);
    }
  }
  if (best != nullptr) {
    best->Scan([&](const Record& rec) {
      state->emplace(rec.key, rec.payload);
    });
  }

  // WAL pages announce themselves with a magic; a head is a WAL page no
  // other WAL page links to.  Replaying a chain applies a contiguous run
  // of logged mutations on top of whatever checkpoint was salvaged.
  std::vector<uint8_t> buf(file->page_size());
  std::unordered_set<PageId> wal_pages, linked;
  for (PageId id = file->first_data_page(); id < file->page_count(); ++id) {
    if (!file->Read(id, buf).ok()) continue;
    if (GetU32(buf.data()) != Wal::kPageMagic) continue;
    const PageId next = GetU32(buf.data() + 4);
    wal_pages.insert(id);
    if (next != kInvalidPageId) linked.insert(next);
  }
  for (PageId head : wal_pages) {
    if (linked.count(head) != 0) continue;
    Wal wal(file, 0);
    Status ignored = wal.Replay(
        head,
        [&](const Wal::LogRecord& rec) {
          ApplySalvagedOp(rec, state);
          return Status::OK();
        },
        /*sanitize_tail=*/false);
    (void)ignored;  // a cut chain still contributed its valid prefix
  }
  if (best == nullptr && state->empty()) {
    return Status::DataLoss("no salvageable checkpoint or WAL records");
  }
  return Status::OK();
}

/// Extraction proper; the public wrapper charges the metrics.
Status SalvageStoreImpl(const std::string& src, const std::string& dst,
                        const StoreOptions& options, SalvageReport* report) {
  BMEH_CHECK(report != nullptr);
  *report = SalvageReport{};
  if (src == dst) {
    return Status::Invalid("salvage source and destination must differ");
  }

  // Read the source with raw primitives rather than a BmehStore open:
  // salvage must control the ordering (checkpoint records first, then the
  // WAL ops replayed on top) to avoid resurrecting deleted keys.
  std::unique_ptr<FilePageStore> file;
  auto src_open = FilePageStore::Open(src);
  if (src_open.ok()) {
    file = std::move(src_open).ValueOrDie();
  } else if (src_open.status().IsDataLoss() ||
             src_open.status().IsCorruption()) {
    // The header page is destroyed.  Reopen blind: geometry from the
    // caller, epoch recovered from any self-consistent page trailer.
    BMEH_ASSIGN_OR_RETURN(
        file, FilePageStore::OpenIgnoringHeader(src, options.page_size));
    report->source_degraded = true;
  } else {
    return src_open.status();
  }
  RecordMap state;
  PageId image_head = kInvalidPageId, wal_head = kInvalidPageId;
  uint64_t generation = 0;
  const Status super_st = internal::ReadStoreSuperblock(
      file.get(), file->first_data_page(), &image_head, &generation,
      &wal_head);
  if (super_st.ok()) {
    if (image_head != kInvalidPageId) {
      TreeLoadReport tr;
      auto loaded =
          BmehTree::LoadFromTolerant(file.get(), image_head, &tr);
      if (loaded.ok()) {
        auto tree = std::move(loaded).ValueOrDie();
        if (!(tree->schema() == options.schema)) {
          return Status::Invalid("schema mismatch: store has " +
                                 tree->schema().ToString() +
                                 ", caller expects " +
                                 options.schema.ToString());
        }
        if (tree->degraded() || !tr.chain.ok()) {
          report->source_degraded = true;
        }
        tree->Scan([&](const Record& rec) {
          state.emplace(rec.key, rec.payload);
        });
      } else {
        // The current checkpoint's directory is gone; an older image may
        // still be lying around unreferenced.
        report->source_degraded = true;
        report->used_sweep = true;
      }
    }
    if (!report->used_sweep) {
      Wal wal(file.get(), 0);
      BMEH_RETURN_NOT_OK(wal.Replay(
          wal_head,
          [&](const Wal::LogRecord& rec) {
            ApplySalvagedOp(rec, &state);
            return Status::OK();
          },
          /*sanitize_tail=*/false));
      if (wal.replay_hit_data_loss()) report->source_degraded = true;
    }
  } else {
    report->source_degraded = true;
    report->used_sweep = true;
  }
  if (report->used_sweep) {
    BMEH_RETURN_NOT_OK(SweepSalvage(file.get(), options, &state));
  }
  file.reset();  // release the flock before creating the destination

  // Write the salvaged state into a fresh store: batch (no per-record
  // fsync), one checkpoint at the end makes it durable and WAL-free.
  StoreOptions dst_options = options;
  dst_options.tolerate_corruption = false;
  dst_options.checkpoint_every = 0;
  dst_options.wal_sync_every = 0;
  BMEH_ASSIGN_OR_RETURN(
      auto fresh, FilePageStore::Create(dst, dst_options.page_size));
  BMEH_ASSIGN_OR_RETURN(auto out,
                        BmehStore::Open(std::move(fresh), dst_options));
  for (const auto& [key, payload] : state) {
    BMEH_RETURN_NOT_OK(out->Put(key, payload));
  }
  BMEH_RETURN_NOT_OK(out->Checkpoint());
  BMEH_RETURN_NOT_OK(out->mutable_tree()->Validate());
  report->records_recovered = state.size();
  return Status::OK();
}

}  // namespace

Status SalvageStore(const std::string& src, const std::string& dst,
                    const StoreOptions& options, SalvageReport* report,
                    obs::MetricsRegistry* metrics) {
  obs::ScopedLatency timer(
      metrics != nullptr ? metrics->GetHistogram("scrub_latency_ns")
                         : nullptr);
  const Status st = SalvageStoreImpl(src, dst, options, report);
  if (metrics != nullptr) {
    metrics->GetCounter("salvage_runs_total")->Inc();
    metrics->GetCounter("salvage_records_recovered_total")
        ->Inc(report->records_recovered);
    if (report->used_sweep) {
      metrics->GetCounter("salvage_sweeps_total")->Inc();
    }
  }
  return st;
}

}  // namespace bmeh
