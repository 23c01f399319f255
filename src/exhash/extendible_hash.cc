#include "src/exhash/extendible_hash.h"

#include <unordered_set>

#include "src/common/bit_util.h"
#include "src/encoding/pseudo_key.h"

namespace bmeh {

namespace {
/// Directory entries per directory disk page, for I/O accounting.
constexpr uint64_t kDirEntriesPerPage = 64;

uint64_t DirPages(uint64_t entries) {
  return (entries + kDirEntriesPerPage - 1) / kDirEntriesPerPage;
}
}  // namespace

ExtendibleHash::ExtendibleHash(const ExtendibleHashOptions& options)
    : options_(options), dir_(1), pages_(options.page_capacity) {
  BMEH_CHECK(options.page_capacity >= 1);
  BMEH_CHECK(options.key_bits >= 1 && options.key_bits <= 32);
}

uint64_t ExtendibleHash::IndexOf(uint32_t key) const {
  return bit_util::ExtractBits(key, options_.key_bits, 0, depth_);
}

uint64_t ExtendibleHash::GroupBase(uint64_t index) const {
  const int free = depth_ - dir_[index].h;
  return (index >> free) << free;
}

Status ExtendibleHash::Insert(uint32_t key, uint64_t payload) {
  if (options_.key_bits < 32 &&
      key > (uint32_t{1} << options_.key_bits) - 1) {
    return Status::Invalid("key exceeds key_bits");
  }
  const Record rec{PseudoKey({key}), payload};
  for (int attempt = 0; attempt < options_.key_bits + 4; ++attempt) {
    const uint64_t i = IndexOf(key);
    io_.CountDirRead();
    const Element e = dir_[i];
    if (e.is_nil()) {
      const uint32_t pid = pages_.Create();
      const uint64_t base = GroupBase(i);
      const uint64_t size = uint64_t{1} << (depth_ - e.h);
      for (uint64_t j = base; j < base + size; ++j) dir_[j].page_id = pid;
      io_.CountDirWrite(DirPages(size));
      BMEH_CHECK_OK(pages_.Mutate(pid)->Insert(rec));
      io_.CountDataWrite();
      ++records_;
      return Status::OK();
    }
    const DataPage* page = pages_.Get(e.page_id);
    io_.CountDataRead();
    if (page->Contains(rec.key)) {
      return Status::AlreadyExists("key " + std::to_string(key) +
                                   " already present");
    }
    if (!page->full()) {
      BMEH_CHECK_OK(pages_.Mutate(e.page_id)->Insert(rec));
      io_.CountDataWrite();
      ++records_;
      return Status::OK();
    }
    BMEH_RETURN_NOT_OK(SplitOnce(i));
  }
  return Status::CapacityError("insertion did not converge");
}

Status ExtendibleHash::SplitOnce(uint64_t index) {
  Element e = dir_[index];
  BMEH_DCHECK(!e.is_nil());
  if (e.h >= options_.key_bits) {
    return Status::CapacityError("all key bits consumed");
  }
  if (e.h == depth_) {
    // Directory doubling: entry of the (H+1)-bit prefix i inherits the
    // entry of its H-bit prefix i >> 1.
    if (dir_.size() * 2 > options_.max_directory_entries) {
      return Status::CapacityError("directory cap exceeded");
    }
    std::vector<Element> bigger(dir_.size() * 2);
    for (uint64_t i = 0; i < bigger.size(); ++i) bigger[i] = dir_[i >> 1];
    io_.CountDirRead(DirPages(dir_.size()));
    dir_ = std::move(bigger);
    ++depth_;
    io_.CountDirWrite(DirPages(dir_.size()));
    index = index * 2;  // any member of the (now larger) group
  }

  // Split the group by key bit e.h (0-based from the MSB).
  const uint64_t base = GroupBase(index);
  const uint64_t size = uint64_t{1} << (depth_ - e.h);
  const uint32_t new_pid = pages_.Create();
  DataPage* old_page = pages_.Mutate(e.page_id);
  DataPage* new_page = pages_.Mutate(new_pid);
  for (uint64_t j = base; j < base + size; ++j) {
    const int bit =
        static_cast<int>((j >> (depth_ - e.h - 1)) & 1);
    dir_[j].page_id = (bit == 1) ? new_pid : e.page_id;
    dir_[j].h = static_cast<uint8_t>(e.h + 1);
  }
  io_.CountDirWrite(DirPages(size));
  old_page->Partition(
      [&](const Record& r) {
        return bit_util::BitAt(r.key.component(0), options_.key_bits,
                               e.h) == 1;
      },
      new_page);
  io_.CountDataWrite(2);

  auto drop_if_empty = [&](DataPage* page) {
    if (!page->empty()) return;
    for (uint64_t j = base; j < base + size; ++j) {
      if (dir_[j].page_id == page->id()) dir_[j].page_id = ~uint32_t{0};
    }
    pages_.Destroy(page->id());
  };
  drop_if_empty(new_page);
  drop_if_empty(old_page);
  return Status::OK();
}

Result<uint64_t> ExtendibleHash::Search(uint32_t key) {
  const uint64_t i = IndexOf(key);
  io_.CountDirRead();
  const Element e = dir_[i];
  if (e.is_nil()) {
    return Status::KeyError("key " + std::to_string(key) + " not found");
  }
  io_.CountDataRead();
  auto payload = pages_.Get(e.page_id)->Lookup(PseudoKey({key}));
  if (!payload) {
    return Status::KeyError("key " + std::to_string(key) + " not found");
  }
  return *payload;
}

Status ExtendibleHash::Delete(uint32_t key) {
  const uint64_t i = IndexOf(key);
  io_.CountDirRead();
  const Element e = dir_[i];
  if (e.is_nil()) {
    return Status::KeyError("key " + std::to_string(key) + " not found");
  }
  DataPage* page = pages_.Mutate(e.page_id);
  io_.CountDataRead();
  BMEH_RETURN_NOT_OK(page->Remove(PseudoKey({key})));
  io_.CountDataWrite();
  --records_;
  MergeAfterDelete(i);
  return Status::OK();
}

void ExtendibleHash::MergeAfterDelete(uint64_t index) {
  // Merge with the buddy group while the union fits in one page; then drop
  // an emptied page; then shrink the directory while no entry needs the
  // deepest bit.
  for (;;) {
    const Element e = dir_[index];
    if (e.h == 0) break;
    const uint64_t buddy = index ^ (uint64_t{1} << (depth_ - e.h));
    const Element be = dir_[buddy];
    if (be.h != e.h) break;
    const int sz = e.is_nil() ? 0 : pages_.Get(e.page_id)->size();
    const int bsz = be.is_nil() ? 0 : pages_.Get(be.page_id)->size();
    if (sz + bsz > options_.page_capacity) break;
    if (!e.is_nil() && !be.is_nil() && e.page_id == be.page_id) break;

    uint32_t merged = ~uint32_t{0};
    if (!e.is_nil() && !be.is_nil()) {
      DataPage* target = pages_.Mutate(e.page_id);
      const DataPage* src = pages_.Get(be.page_id);
      io_.CountDataRead(2);
      for (const Record& rec : src->records()) {
        BMEH_CHECK_OK(target->Insert(rec));
      }
      pages_.Destroy(be.page_id);
      io_.CountDataWrite();
      merged = target->id();
    } else if (!e.is_nil()) {
      merged = e.page_id;
    } else if (!be.is_nil()) {
      merged = be.page_id;
    }
    if (merged != ~uint32_t{0} && pages_.Get(merged)->empty()) {
      pages_.Destroy(merged);
      merged = ~uint32_t{0};
    }
    const int free = depth_ - e.h + 1;
    const uint64_t base = (index >> free) << free;
    const uint64_t size = uint64_t{1} << free;
    for (uint64_t j = base; j < base + size; ++j) {
      dir_[j].page_id = merged;
      dir_[j].h = static_cast<uint8_t>(e.h - 1);
    }
    io_.CountDirWrite(DirPages(size));
  }
  // Drop an emptied page that had no merge partner.
  {
    const Element e = dir_[index];
    if (!e.is_nil() && pages_.Get(e.page_id)->empty()) {
      const uint64_t base = GroupBase(index);
      const uint64_t size = uint64_t{1} << (depth_ - e.h);
      for (uint64_t j = base; j < base + size; ++j) {
        dir_[j].page_id = ~uint32_t{0};
      }
      io_.CountDirWrite(DirPages(size));
      pages_.Destroy(e.page_id);
    }
  }
  // Directory halving.
  for (;;) {
    if (depth_ == 0) return;
    bool can_halve = true;
    for (const Element& el : dir_) {
      if (el.h >= depth_) {
        can_halve = false;
        break;
      }
    }
    if (!can_halve) return;
    std::vector<Element> smaller(dir_.size() / 2);
    for (uint64_t i = 0; i < smaller.size(); ++i) smaller[i] = dir_[2 * i];
    dir_ = std::move(smaller);
    --depth_;
    io_.CountDirWrite(DirPages(dir_.size()));
  }
}

Status ExtendibleHash::RangeSearch(
    uint32_t lo, uint32_t hi,
    std::vector<std::pair<uint32_t, uint64_t>>* out) {
  if (lo > hi) return Status::Invalid("lo > hi");
  const uint64_t i_lo = IndexOf(lo);
  const uint64_t i_hi = IndexOf(hi);
  std::unordered_set<uint32_t> seen;
  uint64_t i = i_lo;
  while (i <= i_hi) {
    io_.CountDirRead();
    const Element e = dir_[i];
    const uint64_t size = uint64_t{1} << (depth_ - e.h);
    if (!e.is_nil() && seen.insert(e.page_id).second) {
      io_.CountDataRead();
      for (const Record& rec : pages_.Get(e.page_id)->records()) {
        const uint32_t k = rec.key.component(0);
        if (k >= lo && k <= hi) out->emplace_back(k, rec.payload);
      }
    }
    i = GroupBase(i) + size;  // jump to the next group
    if (size == 0) break;     // unreachable; defensive
  }
  return Status::OK();
}

Status ExtendibleHash::Validate() const {
  std::unordered_set<uint32_t> seen_pages;
  uint64_t seen_records = 0;
  uint64_t i = 0;
  while (i < dir_.size()) {
    const Element e = dir_[i];
    if (e.h > depth_) return Status::Corruption("local depth > global");
    const uint64_t base = GroupBase(i);
    if (base != i) return Status::Corruption("group scan misaligned");
    const uint64_t size = uint64_t{1} << (depth_ - e.h);
    for (uint64_t j = base; j < base + size; ++j) {
      if (dir_[j].page_id != e.page_id || dir_[j].h != e.h) {
        return Status::Corruption("group member mismatch at " +
                                  std::to_string(j));
      }
    }
    if (!e.is_nil()) {
      if (!pages_.Alive(e.page_id)) {
        return Status::Corruption("dangling page ref");
      }
      if (!seen_pages.insert(e.page_id).second) {
        return Status::Corruption("page referenced by two groups");
      }
      const DataPage* page = pages_.Get(e.page_id);
      if (page->size() > options_.page_capacity) {
        return Status::Corruption("page over capacity");
      }
      seen_records += page->size();
      for (const Record& rec : page->records()) {
        const uint64_t prefix = bit_util::ExtractBits(
            rec.key.component(0), options_.key_bits, 0, e.h);
        if (prefix != bit_util::IndexPrefix(i, depth_, e.h)) {
          return Status::Corruption("record outside its page region");
        }
      }
    }
    i = base + size;
  }
  if (seen_records != records_) {
    return Status::Corruption("record count mismatch");
  }
  if (seen_pages.size() != pages_.live_count()) {
    return Status::Corruption("orphaned pages");
  }
  return Status::OK();
}

}  // namespace bmeh
