#include "src/mdeh/mdeh.h"

#include <unordered_set>

#include "src/common/bit_util.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::Ref;

namespace {

/// Upper bound on consecutive split attempts for one insertion: a split
/// chain cannot be longer than the total number of addressing bits.
int MaxSplitChain(const KeySchema& schema) { return schema.total_bits() + 8; }

}  // namespace

Mdeh::Mdeh(const KeySchema& schema, const MdehOptions& options)
    : schema_(schema),
      options_(options),
      dir_(schema.dims()),
      pages_(options.page_capacity) {
  BMEH_CHECK(options.page_capacity >= 1);
  BMEH_CHECK(options.dir_entries_per_page >= 1);
}

IndexTuple Mdeh::TupleFor(const PseudoKey& key) const {
  IndexTuple t{};
  for (int j = 0; j < schema_.dims(); ++j) {
    t[j] = static_cast<uint32_t>(bit_util::ExtractBits(
        key.component(j), schema_.width(j), 0, dir_.depth(j)));
  }
  return t;
}

void Mdeh::ChargeGroupWrite(const std::vector<uint64_t>& addresses) {
  if (options_.element_granular_updates) {
    io_.CountDirWrite(addresses.size());
    return;
  }
  std::unordered_set<uint64_t> dir_pages;
  for (uint64_t a : addresses) dir_pages.insert(DirPageOf(a));
  io_.CountDirWrite(dir_pages.size());
}

void Mdeh::ChargeDirRewrite(uint64_t old_entries, uint64_t new_entries) {
  if (options_.element_granular_updates) {
    io_.CountDirRead(old_entries);
    io_.CountDirWrite(new_entries);
    return;
  }
  const uint64_t epp = options_.dir_entries_per_page;
  io_.CountDirRead((old_entries + epp - 1) / epp);
  io_.CountDirWrite((new_entries + epp - 1) / epp);
}

Status Mdeh::Insert(const PseudoKey& key, uint64_t payload) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  const int max_attempts = MaxSplitChain(schema_);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    IndexTuple t = TupleFor(key);
    io_.CountDirRead();
    Entry& e = dir_.at(t);
    if (e.ref.is_nil()) {
      // Paper's P = NIL branch: allocate a page for the whole region.
      uint32_t pid = pages_.Create();
      std::vector<uint64_t> addrs = dir_.GroupAddresses(t);
      dir_.SetGroupRef(t, Ref::Page(pid));
      ChargeGroupWrite(addrs);
      BMEH_CHECK_OK(pages_.Mutate(pid)->Insert({key, payload}));
      io_.CountDataWrite();
      ++records_;
      return Status::OK();
    }
    BMEH_DCHECK(e.ref.is_page()) << "MDEH directory must point to pages";
    const DataPage* page = pages_.Get(e.ref.id);
    io_.CountDataRead();
    if (page->Contains(key)) {
      return Status::AlreadyExists("key " + key.ToString() +
                                   " already present");
    }
    if (!page->full()) {
      BMEH_CHECK_OK(pages_.Mutate(e.ref.id)->Insert({key, payload}));
      io_.CountDataWrite();
      ++records_;
      return Status::OK();
    }
    BMEH_RETURN_NOT_OK(SplitOnce(t));
  }
  return Status::CapacityError(
      "insertion did not converge: pseudo-key resolution exhausted for " +
      key.ToString());
}

Status Mdeh::SplitOnce(const IndexTuple& t_in) {
  const Entry proto = dir_.at(t_in);
  BMEH_DCHECK(proto.ref.is_page());

  // Hard per-dimension limit: a group's local depth cannot exceed the
  // pseudo-key width (all bits consumed).
  std::array<int, kMaxDims> limits{};
  for (int j = 0; j < schema_.dims(); ++j) limits[j] = schema_.width(j);
  const int m = hashdir::ChooseSplitDim(
      proto, std::span<const int>(limits.data(), schema_.dims()),
      schema_.dims());
  if (m < 0) {
    return Status::CapacityError(
        "page region cannot split: all pseudo-key bits consumed");
  }

  IndexTuple t = t_in;
  if (proto.h[m] + 1 > dir_.depth(m)) {
    // Directory doubling along dimension m (paper §2.2).
    if (dir_.entry_count() * 2 > options_.max_directory_entries) {
      return Status::CapacityError("directory would exceed cap of " +
                                   std::to_string(
                                       options_.max_directory_entries));
    }
    const uint64_t old_entries = dir_.entry_count();
    dir_.Double(m);
    ChargeDirRewrite(old_entries, dir_.entry_count());
    // The key's tuple gains one index bit in dimension m; re-derive the
    // tuple from any member: the group containing (2 * t[m]) is the same
    // region's lower half.
    t[m] *= 2;
  }

  // Split the group: records move by their (h_m)-th dimension-m key bit
  // (offset from the MSB; MDEH consumes bits from offset 0).
  const int split_bit = proto.h[m];
  DataPage* old_page = pages_.Mutate(proto.ref.id);
  const uint32_t new_pid = pages_.Create();
  DataPage* new_page = pages_.Mutate(new_pid);

  std::vector<uint64_t> addrs = dir_.GroupAddresses(t);
  dir_.SplitGroup(t, m, Ref::Page(proto.ref.id), Ref::Page(new_pid));
  ChargeGroupWrite(addrs);

  const int w = schema_.width(m);
  old_page->Partition(
      [&](const Record& rec) {
        return bit_util::BitAt(rec.key.component(m), w, split_bit) == 1;
      },
      new_page);
  io_.CountDataWrite(2);

  // Immediate deletion of empty pages (paper §2.1): if all records landed
  // on one side, drop the empty page and leave NIL behind.
  auto drop_if_empty = [&](DataPage* page, bool right_half) {
    if (!page->empty()) return;
    // Find a member tuple of the half that owns `page`.
    IndexTuple half = t;
    const int H = dir_.depth(m);
    const int new_h = proto.h[m] + 1;
    uint64_t bit = bit_util::Pow2(H - new_h);
    half[m] = right_half ? static_cast<uint32_t>(t[m] | bit)
                         : static_cast<uint32_t>(t[m] & ~bit);
    dir_.SetGroupRef(half, Ref::Nil());
    pages_.Destroy(page->id());
  };
  drop_if_empty(new_page, /*right_half=*/true);
  drop_if_empty(old_page, /*right_half=*/false);
  return Status::OK();
}

Result<uint64_t> Mdeh::Search(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  IndexTuple t = TupleFor(key);
  io_.CountDirRead();
  const Entry& e = dir_.at(t);
  if (e.ref.is_nil()) {
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  io_.CountDataRead();
  auto payload = pages_.Get(e.ref.id)->Lookup(key);
  if (!payload) {
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  return *payload;
}

Status Mdeh::Delete(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  IndexTuple t = TupleFor(key);
  io_.CountDirRead();
  const Entry& e = dir_.at(t);
  if (e.ref.is_nil()) {
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  DataPage* page = pages_.Mutate(e.ref.id);
  io_.CountDataRead();
  BMEH_RETURN_NOT_OK(page->Remove(key));
  io_.CountDataWrite();
  --records_;
  if (options_.merge_on_delete) {
    MergeAfterDelete(t);
    ShrinkDirectory();
    // Immediate deletion of an emptied page that had no merge partner.
    IndexTuple t2 = TupleFor(key);
    const Entry e2 = dir_.at(t2);
    if (e2.ref.is_page() && pages_.Get(e2.ref.id)->empty()) {
      std::vector<uint64_t> addrs = dir_.GroupAddresses(t2);
      dir_.SetGroupRef(t2, Ref::Nil());
      ChargeGroupWrite(addrs);
      pages_.Destroy(e2.ref.id);
    }
  } else if (page->empty()) {
    std::vector<uint64_t> addrs = dir_.GroupAddresses(t);
    dir_.SetGroupRef(t, Ref::Nil());
    ChargeGroupWrite(addrs);
    pages_.Destroy(page->id());
  }
  return Status::OK();
}

void Mdeh::MergeAfterDelete(const IndexTuple& t) {
  // Reverse splits while the group and its last-split buddy fit together.
  for (;;) {
    const Entry e = dir_.at(t);
    if (e.ref.is_nil() && e.h == std::array<uint8_t, kMaxDims>{}) return;
    // The split to undo is the one recorded in e.m.
    const int m = e.m;
    if (e.h[m] == 0) {
      // Nothing left to undo along the recorded dimension.
      return;
    }
    IndexTuple buddy = dir_.BuddyGroup(t, m);
    const Entry be = dir_.at(buddy);
    if (be.h != e.h) return;  // buddy split further; cannot merge
    if (be.ref.is_node() || e.ref.is_node()) return;
    const int sz = (e.ref.is_page() ? pages_.Get(e.ref.id)->size() : 0);
    const int bsz = (be.ref.is_page() ? pages_.Get(be.ref.id)->size() : 0);
    if (sz + bsz > options_.page_capacity) return;
    if (e.ref.is_page() && be.ref.is_page() && e.ref.id == be.ref.id) return;

    // Merge the records into one page (or keep NIL if both empty).
    Ref merged = Ref::Nil();
    if (sz + bsz > 0) {
      if (e.ref.is_page() && be.ref.is_page()) {
        const DataPage* src = pages_.Get(be.ref.id);
        io_.CountDataRead(2);
        DataPage* dst = pages_.Mutate(e.ref.id);
        for (const Record& rec : src->records()) {
          BMEH_CHECK_OK(dst->Insert(rec));
        }
        pages_.Destroy(be.ref.id);
        io_.CountDataWrite();
      }
      const DataPage* target =
          pages_.Get(e.ref.is_page() ? e.ref.id : be.ref.id);
      merged = Ref::Page(target->id());
      if (target->empty()) {
        pages_.Destroy(target->id());
        merged = Ref::Nil();
      }
    } else {
      if (e.ref.is_page()) pages_.Destroy(e.ref.id);
      if (be.ref.is_page()) pages_.Destroy(be.ref.id);
    }
    std::vector<uint64_t> addrs = dir_.GroupAddresses(t);
    std::vector<uint64_t> baddrs = dir_.GroupAddresses(buddy);
    addrs.insert(addrs.end(), baddrs.begin(), baddrs.end());
    dir_.MergeGroup(t, m, merged);
    ChargeGroupWrite(addrs);
  }
}

void Mdeh::ShrinkDirectory() {
  for (;;) {
    const int dim = dir_.history().last_event_dim();
    if (dim < 0 || !dir_.CanHalve(dim)) return;
    const uint64_t old_entries = dir_.entry_count();
    dir_.Halve(dim);
    ChargeDirRewrite(old_entries, dir_.entry_count());
  }
}

Status Mdeh::RangeSearch(const RangePredicate& pred,
                         std::vector<Record>* out) {
  hashdir::RangeWalkStats stats;
  hashdir::RangeWalkCallbacks cbs;
  // MDEH has a single "node": the whole directory.  Directory-page reads
  // are charged per distinct directory page among visited cells.
  std::unordered_set<uint64_t> dir_pages;
  cbs.get_node = [this](uint32_t, int) -> const DirNode* { return &dir_; };
  cbs.visit_cell = [this, &dir_pages](uint32_t, uint64_t address) {
    if (dir_pages.insert(DirPageOf(address)).second) io_.CountDirRead();
  };
  cbs.visit_page = [this](uint32_t page_id, const RangePredicate& p,
                          std::vector<Record>* o) {
    io_.CountDataRead();
    for (const Record& rec : pages_.Get(page_id)->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  // Root ref: node id 0 stands for the directory itself.
  return hashdir::RangeWalk(schema_, pred, Ref::Node(0), cbs, out, &stats);
}

IndexStructureStats Mdeh::Stats() const {
  IndexStructureStats s;
  s.directory_entries = dir_.entry_count();
  uint64_t used = 0;
  for (uint64_t a = 0; a < dir_.entry_count(); ++a) {
    if (!dir_.at_address(a).ref.is_nil()) ++used;
  }
  s.directory_entries_used = used;
  s.directory_nodes = 1;
  s.directory_levels = 1;
  s.data_pages = pages_.live_count();
  s.records = records_;
  return s;
}

Status Mdeh::Validate() const {
  const int d = schema_.dims();
  // Depth sanity.
  for (int j = 0; j < d; ++j) {
    if (dir_.depth(j) > schema_.width(j)) {
      return Status::Corruption("global depth exceeds key width");
    }
  }
  // Group consistency + page region containment + record accounting.
  uint64_t seen_records = 0;
  std::unordered_set<uint32_t> seen_pages;
  Status bad = Status::OK();
  dir_.ForEachGroup([&](const IndexTuple& rep, const Entry& e) {
    if (!bad.ok()) return;
    // Every member of the group must hold an identical entry.
    dir_.ForEachInGroup(rep, [&](const IndexTuple& member) {
      if (!bad.ok()) return;
      if (!dir_.at(member).SameShape(e, d)) {
        bad = Status::Corruption("group member entry mismatch at " +
                                 dir_.at(member).ToString(d));
      }
    });
    if (!bad.ok()) return;
    for (int j = 0; j < d; ++j) {
      if (e.h[j] > dir_.depth(j)) {
        bad = Status::Corruption("local depth exceeds global depth");
        return;
      }
    }
    if (e.ref.is_node()) {
      bad = Status::Corruption("MDEH entry points to a node");
      return;
    }
    if (e.ref.is_nil()) return;
    if (!pages_.Alive(e.ref.id)) {
      bad = Status::Corruption("dangling page ref " + std::to_string(e.ref.id));
      return;
    }
    if (!seen_pages.insert(e.ref.id).second) {
      bad = Status::Corruption("page " + std::to_string(e.ref.id) +
                               " referenced by two groups");
      return;
    }
    const DataPage* page = pages_.Get(e.ref.id);
    if (page->size() > options_.page_capacity) {
      bad = Status::Corruption("page over capacity");
      return;
    }
    seen_records += page->size();
    // Every record must lie in the group's region.
    for (const Record& rec : page->records()) {
      for (int j = 0; j < d; ++j) {
        uint64_t key_prefix = bit_util::ExtractBits(
            rec.key.component(j), schema_.width(j), 0, e.h[j]);
        uint64_t group_prefix =
            bit_util::IndexPrefix(rep[j], dir_.depth(j), e.h[j]);
        if (key_prefix != group_prefix) {
          bad = Status::Corruption("record " + rec.key.ToString() +
                                   " outside its page region");
          return;
        }
      }
    }
  });
  BMEH_RETURN_NOT_OK(bad);
  if (seen_records != records_) {
    return Status::Corruption("record count mismatch: directory sees " +
                              std::to_string(seen_records) + ", index has " +
                              std::to_string(records_));
  }
  if (seen_pages.size() != pages_.live_count()) {
    return Status::Corruption("orphaned data pages: " +
                              std::to_string(pages_.live_count()) +
                              " live vs " + std::to_string(seen_pages.size()) +
                              " referenced");
  }
  return Status::OK();
}

}  // namespace bmeh
