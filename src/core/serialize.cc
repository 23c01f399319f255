// Persistence for the BMEH-tree: the whole structure is serialized into a
// compact byte stream and stored across a chain of PageStore pages
// (each page: [next page id | payload length | payload]), written and read
// through a BufferPool.  Round-trips through both the in-memory store and
// the POSIX FilePageStore (see persistence tests).

#include <cstring>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/core/bmeh_tree.h"
#include "src/pagestore/buffer_pool.h"
#include "src/pagestore/undo_journal.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::Ref;
using hashdir::RefKind;

namespace {

constexpr uint32_t kTreeMagic = 0x424d5431;  // "BMT1"

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 4);
    std::memcpy(buf_.data() + n, &v, 4);
  }
  void U64(uint64_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 8);
    std::memcpy(buf_.data() + n, &v, 8);
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Truncated();
    return data_[pos_++];
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Truncated() const {
    return Status::Corruption("truncated BMEH tree image at offset " +
                              std::to_string(pos_));
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Writes `bytes` across a chain of store pages; returns the head page id.
///
/// All-or-nothing: the chain's worst-case page count is reserved before
/// the first allocation, so a full store refuses here with the store
/// untouched; and a mid-chain allocation or write failure rolls the
/// partial chain back (every allocated page freed, the reservation
/// released) instead of leaking half an image.
Result<PageId> WriteChain(PageStore* store, std::span<const uint8_t> bytes) {
  const size_t payload_cap = store->page_size() - 8;
  size_t n_pages = (bytes.size() + payload_cap - 1) / payload_cap;
  if (n_pages == 0) n_pages = 1;
  PageOpJournal journal(store);
  BMEH_RETURN_NOT_OK(journal.Reserve(n_pages));
  // Allocate pages first so each page can record its successor.
  std::vector<PageId> ids(n_pages);
  for (size_t i = 0; i < n_pages; ++i) {
    BMEH_ASSIGN_OR_RETURN(ids[i], journal.Allocate());
  }
  std::vector<uint8_t> page(store->page_size());
  size_t off = 0;
  for (size_t i = 0; i < n_pages; ++i) {
    std::fill(page.begin(), page.end(), 0);
    const uint32_t next =
        (i + 1 < n_pages) ? ids[i + 1] : kInvalidPageId;
    const uint32_t len = static_cast<uint32_t>(
        std::min(payload_cap, bytes.size() - off));
    std::memcpy(page.data(), &next, 4);
    std::memcpy(page.data() + 4, &len, 4);
    if (len > 0) std::memcpy(page.data() + 8, bytes.data() + off, len);
    BMEH_RETURN_NOT_OK(store->Write(ids[i], page));
    off += len;
  }
  journal.Commit();
  return ids[0];
}

/// Outcome of a tolerant chain read: the readable prefix plus how (and
/// whether) the chain ended early.
struct ChainPrefix {
  std::vector<uint8_t> bytes;
  std::vector<PageId> pages;  ///< Chain pages successfully read, in order.
  bool complete = true;       ///< Reached the kInvalidPageId terminator.
  bool data_loss = false;     ///< The cut was a verified-corrupt page.
};

/// Reads a chain written by WriteChain up to the first unreadable or
/// structurally invalid page; never fails, only stops early.
ChainPrefix ReadChainPrefix(PageStore* store, PageId head) {
  ChainPrefix out;
  std::vector<uint8_t> buf(store->page_size());
  PageId id = head;
  std::unordered_set<PageId> visited;
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      out.complete = false;  // cycle: stale or corrupted link
      break;
    }
    const Status st = store->Read(id, buf);
    if (!st.ok()) {
      out.complete = false;
      out.data_loss = st.IsDataLoss();
      break;
    }
    uint32_t next, len;
    std::memcpy(&next, buf.data(), 4);
    std::memcpy(&len, buf.data() + 4, 4);
    if (len > static_cast<uint32_t>(store->page_size() - 8)) {
      out.complete = false;
      break;
    }
    out.pages.push_back(id);
    out.bytes.insert(out.bytes.end(), buf.data() + 8, buf.data() + 8 + len);
    id = next;
  }
  return out;
}

/// Reads a chain written by WriteChain (strict: any gap is an error).
Result<std::vector<uint8_t>> ReadChain(PageStore* store, PageId head) {
  BufferPool pool(store, /*capacity=*/8);
  std::vector<uint8_t> out;
  PageId id = head;
  std::unordered_set<PageId> visited;
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      return Status::Corruption("page chain cycle at page " +
                                std::to_string(id));
    }
    BMEH_ASSIGN_OR_RETURN(PageHandle h, pool.Fetch(id));
    auto page = h.data();
    uint32_t next, len;
    std::memcpy(&next, page.data(), 4);
    std::memcpy(&len, page.data() + 4, 4);
    if (len > static_cast<uint32_t>(store->page_size() - 8)) {
      return Status::Corruption("page chain payload overflow");
    }
    out.insert(out.end(), page.data() + 8, page.data() + 8 + len);
    id = next;
  }
  return out;
}

}  // namespace

Status BmehTree::CollectImagePages(PageStore* store, PageId head,
                                   std::vector<PageId>* out) {
  PageId id = head;
  std::unordered_set<PageId> visited;
  std::vector<uint8_t> buf(store->page_size());
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      return Status::Corruption("page chain cycle at page " +
                                std::to_string(id));
    }
    out->push_back(id);
    BMEH_RETURN_NOT_OK(store->Read(id, buf));
    uint32_t next;
    std::memcpy(&next, buf.data(), 4);
    id = next;
  }
  return Status::OK();
}

Status BmehTree::FreeImage(PageStore* store, PageId head) {
  PageId id = head;
  std::unordered_set<PageId> visited;
  std::vector<uint8_t> buf(store->page_size());
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      return Status::Corruption("page chain cycle at page " +
                                std::to_string(id));
    }
    BMEH_RETURN_NOT_OK(store->Read(id, buf));
    uint32_t next;
    std::memcpy(&next, buf.data(), 4);
    BMEH_RETURN_NOT_OK(store->Free(id));
    id = next;
  }
  return Status::OK();
}

Result<PageId> BmehTree::SaveTo(PageStore* store) {
  if (degraded()) {
    // Serializing now would replace the (partially corrupt but still
    // diagnosable) on-disk state with a clean-looking image that silently
    // lacks the lost records.  Salvage to a fresh store instead.
    return Status::DataLoss("refusing to serialize a degraded tree (" +
                            std::to_string(quarantined_.size()) +
                            " quarantined buckets)");
  }
  ByteWriter w;
  const int d = schema_.dims();
  w.U32(kTreeMagic);
  w.U32(static_cast<uint32_t>(d));
  for (int j = 0; j < d; ++j) w.U32(static_cast<uint32_t>(schema_.width(j)));
  w.U32(static_cast<uint32_t>(options_.page_capacity));
  for (int j = 0; j < d; ++j) w.U32(static_cast<uint32_t>(options_.xi[j]));
  w.U64(options_.max_nodes);
  w.U8(options_.merge_on_delete ? 1 : 0);
  w.U32(root_id_);
  w.U32(static_cast<uint32_t>(levels_));
  w.U64(records_);

  w.U64(nodes_.live_count());
  nodes_.ForEach([&](uint32_t id, const DirNode& node) {
    w.U32(id);
    const auto& hist = node.history();
    w.U32(static_cast<uint32_t>(hist.event_count()));
    for (int i = 0; i < hist.event_count(); ++i) {
      w.U8(static_cast<uint8_t>(hist.event_dim(i)));
    }
    for (uint64_t a = 0; a < node.entry_count(); ++a) {
      const Entry& e = node.at_address(a);
      w.U8(static_cast<uint8_t>(e.ref.kind));
      w.U32(e.ref.id);
      for (int j = 0; j < d; ++j) w.U8(e.h[j]);
      w.U8(e.m);
    }
  });

  w.U64(pages_.live_count());
  pages_.ForEach([&](uint32_t id, const DataPage& page) {
    w.U32(id);
    w.U32(static_cast<uint32_t>(page.size()));
    for (const Record& rec : page.records()) {
      for (int j = 0; j < d; ++j) w.U32(rec.key.component(j));
      w.U64(rec.payload);
    }
  });

  return WriteChain(store, w.bytes());
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadFrom(PageStore* store,
                                                     PageId head) {
  return LoadImpl(store, head, nullptr);
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadFromTolerant(
    PageStore* store, PageId head, TreeLoadReport* report) {
  BMEH_CHECK(report != nullptr);
  *report = TreeLoadReport{};
  auto res = LoadImpl(store, head, report);
  if (!res.ok()) {
    // Page-section damage is absorbed inside LoadImpl, so any error
    // means the header/directory part could not be rebuilt.
    report->directory_lost = true;
  }
  return res;
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadImpl(PageStore* store,
                                                     PageId head,
                                                     TreeLoadReport* report) {
  std::vector<uint8_t> bytes;
  bool chain_complete = true;
  if (report == nullptr) {
    BMEH_ASSIGN_OR_RETURN(bytes, ReadChain(store, head));
  } else {
    ChainPrefix prefix = ReadChainPrefix(store, head);
    bytes = std::move(prefix.bytes);
    chain_complete = prefix.complete;
    report->complete = prefix.complete;
    report->data_loss = prefix.data_loss;
    report->chain_pages = std::move(prefix.pages);
  }
  ByteReader r(bytes);
  BMEH_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kTreeMagic) {
    return Status::Corruption("bad BMEH tree magic");
  }
  BMEH_ASSIGN_OR_RETURN(uint32_t d32, r.U32());
  const int d = static_cast<int>(d32);
  if (d < 1 || d > kMaxDims) {
    return Status::Corruption("bad dimension count " + std::to_string(d));
  }
  std::array<int, kMaxDims> widths{};
  for (int j = 0; j < d; ++j) {
    BMEH_ASSIGN_OR_RETURN(uint32_t wj, r.U32());
    if (wj < 1 || wj > 32) return Status::Corruption("bad key width");
    widths[j] = static_cast<int>(wj);
  }
  KeySchema schema(std::span<const int>(widths.data(), d));

  TreeOptions options;
  BMEH_ASSIGN_OR_RETURN(uint32_t b, r.U32());
  options.page_capacity = static_cast<int>(b);
  for (int j = 0; j < d; ++j) {
    BMEH_ASSIGN_OR_RETURN(uint32_t xij, r.U32());
    options.xi[j] = static_cast<int>(xij);
  }
  BMEH_ASSIGN_OR_RETURN(options.max_nodes, r.U64());
  BMEH_ASSIGN_OR_RETURN(uint8_t merge, r.U8());
  options.merge_on_delete = (merge != 0);
  if (options.page_capacity < 1) return Status::Corruption("bad capacity");

  auto tree = std::make_unique<BmehTree>(schema, options);
  // Discard the constructor's fresh root; rebuild everything from the
  // image.
  tree->nodes_.Destroy(tree->root_id_);

  BMEH_ASSIGN_OR_RETURN(uint32_t root, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint32_t levels, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint64_t records, r.U64());
  tree->root_id_ = root;
  tree->levels_ = static_cast<int>(levels);
  tree->records_ = records;
  if (report != nullptr) report->records_declared = records;

  // Defensive bound on ids so a corrupted image cannot force a gigantic
  // arena allocation.
  constexpr uint32_t kMaxImageId = uint32_t{1} << 26;

  BMEH_ASSIGN_OR_RETURN(uint64_t n_nodes, r.U64());
  for (uint64_t n = 0; n < n_nodes; ++n) {
    BMEH_ASSIGN_OR_RETURN(uint32_t id, r.U32());
    if (id > kMaxImageId) return Status::Corruption("node id out of range");
    if (tree->nodes_.Alive(id)) {
      return Status::Corruption("duplicate node id in image");
    }
    tree->nodes_.CreateAt(id);
    DirNode* node = tree->nodes_.Mutate(id);
    BMEH_ASSIGN_OR_RETURN(uint32_t n_events, r.U32());
    if (n_events > 32u * kMaxDims) {
      return Status::Corruption("bad node event count");
    }
    for (uint32_t i = 0; i < n_events; ++i) {
      BMEH_ASSIGN_OR_RETURN(uint8_t dim, r.U8());
      if (dim >= d) return Status::Corruption("bad doubling dimension");
      if (node->depth(dim) >= schema.width(dim)) {
        return Status::Corruption("node deeper than key width");
      }
      node->Double(dim);
    }
    for (uint64_t a = 0; a < node->entry_count(); ++a) {
      Entry e;
      BMEH_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      if (kind > static_cast<uint8_t>(RefKind::kNode)) {
        return Status::Corruption("bad ref kind");
      }
      e.ref.kind = static_cast<RefKind>(kind);
      BMEH_ASSIGN_OR_RETURN(e.ref.id, r.U32());
      if (!e.ref.is_nil() && e.ref.id > kMaxImageId) {
        return Status::Corruption("ref id out of range");
      }
      for (int j = 0; j < d; ++j) {
        BMEH_ASSIGN_OR_RETURN(e.h[j], r.U8());
        if (e.h[j] > node->depth(j)) {
          return Status::Corruption("entry local depth exceeds node depth");
        }
      }
      BMEH_ASSIGN_OR_RETURN(e.m, r.U8());
      if (e.m >= d) return Status::Corruption("bad entry split dimension");
      node->at_address(a) = e;
    }
  }
  if (!tree->nodes_.Alive(tree->root_id_)) {
    return Status::Corruption("root node missing from image");
  }

  // ---- data pages ----
  // Everything before this point had to parse: without the directory
  // there is no tree.  From here on, a cut chain (tolerant mode only)
  // degrades gracefully — the records that fell past the cut turn into
  // quarantined empty buckets instead of a failed load.
  const bool tolerate_cut = (report != nullptr && !chain_complete);
  auto parse_page = [&](uint32_t* created) -> Status {
    BMEH_ASSIGN_OR_RETURN(uint32_t id, r.U32());
    if (id > kMaxImageId) return Status::Corruption("page id out of range");
    if (tree->pages_.Alive(id)) {
      return Status::Corruption("duplicate page id in image");
    }
    tree->pages_.CreateAt(id);
    *created = id;
    DataPage* page = tree->pages_.Mutate(id);
    BMEH_ASSIGN_OR_RETURN(uint32_t size, r.U32());
    if (size > static_cast<uint32_t>(options.page_capacity)) {
      return Status::Corruption("page record count over capacity");
    }
    for (uint32_t i = 0; i < size; ++i) {
      std::array<uint32_t, kMaxDims> comps{};
      for (int j = 0; j < d; ++j) {
        BMEH_ASSIGN_OR_RETURN(comps[j], r.U32());
      }
      Record rec;
      rec.key = PseudoKey(std::span<const uint32_t>(comps.data(), d));
      BMEH_ASSIGN_OR_RETURN(rec.payload, r.U64());
      if (!schema.Validate(rec.key).ok()) {
        return Status::Corruption("record key outside schema domain");
      }
      if (!page->Insert(rec).ok()) {
        return Status::Corruption("duplicate record key in page image");
      }
    }
    return Status::OK();
  };

  uint64_t n_pages = 0;
  bool pages_cut = false;
  {
    auto n = r.U64();
    if (n.ok()) {
      n_pages = std::move(n).ValueOrDie();
    } else if (tolerate_cut) {
      pages_cut = true;
    } else {
      return n.status();
    }
  }
  for (uint64_t n = 0; n < n_pages && !pages_cut; ++n) {
    uint32_t created = kInvalidPageId;
    const Status st = parse_page(&created);
    if (!st.ok()) {
      if (!tolerate_cut) return st;
      // A half-parsed bucket is as lost as an unparsed one: drop it so
      // the quarantine sweep below rebuilds it as an empty placeholder.
      if (created != kInvalidPageId) tree->pages_.Destroy(created);
      pages_cut = true;
    }
  }
  if (!pages_cut && !r.AtEnd() && !tolerate_cut) {
    return Status::Corruption("trailing bytes in BMEH tree image");
  }
  if (tolerate_cut) {
    // Any bucket the directory references but the prefix did not deliver
    // is lost: give it an empty placeholder page and quarantine it.
    tree->nodes_.ForEach([&](uint32_t, const DirNode& node) {
      node.ForEachGroup([&](const IndexTuple&, const Entry& e) {
        if (e.ref.is_page() && !tree->pages_.Alive(e.ref.id)) {
          tree->pages_.CreateAt(e.ref.id);
          tree->quarantined_.insert(e.ref.id);
        }
      });
    });
    report->quarantined_pages = tree->quarantined_.size();
  }
  BMEH_RETURN_NOT_OK(tree->Validate());
  return tree;
}

}  // namespace bmeh
