// Persistence for the BMEH-tree: the checkpoint image.  The whole tree is
// serialized into one byte stream — a header, then every directory node
// and every data page through the image codecs (EncodeNode beside
// DirNode, DataPage::Serialize), each prefixed by its arena id — and the
// stream is stored across a chain of PageStore pages, each
// [next page id u32 | payload length u32 | payload].  WalkImageChain is
// the only reader of the chain's links; docs/FORMATS.md has the layout.

#include <unordered_set>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/core/bmeh_tree.h"
#include "src/pagestore/undo_journal.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::Ref;

namespace {

constexpr uint32_t kTreeMagic = 0x424d5431;  // "BMT1"
constexpr size_t kChainHeaderSize = 8;      // next + payload length

/// Writes `bytes` across a chain of store pages; returns the chain's pages
/// in chain order, the head first.
///
/// All-or-nothing: the chain's worst-case page count is reserved before
/// the first allocation, so a full store refuses here with the store
/// untouched; and a mid-chain allocation or write failure rolls the
/// partial chain back (every allocated page freed, the reservation
/// released) instead of leaking half an image.
Result<std::vector<PageId>> WriteChain(PageStore* store,
                                       std::span<const uint8_t> bytes) {
  const size_t payload_cap = store->page_size() - kChainHeaderSize;
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
    PutU32(page.data(), next);
    PutU32(page.data() + 4, len);
    if (len > 0) {
      std::memcpy(page.data() + kChainHeaderSize, bytes.data() + off, len);
    }
    BMEH_RETURN_NOT_OK(store->Write(ids[i], page));
    off += len;
  }
  journal.Commit();
  return ids;
}

}  // namespace

Status BmehTree::WalkImageChain(PageStore* store, PageId head,
                                std::vector<PageId>* pages,
                                std::vector<uint8_t>* payload) {
  std::vector<uint8_t> buf(store->page_size());
  std::unordered_set<PageId> visited;
  PageId id = head;
  while (id != kInvalidPageId) {
    if (!visited.insert(id).second) {
      return Status::Corruption("page chain cycle at page " +
                                std::to_string(id));
    }
    BMEH_RETURN_NOT_OK(store->Read(id, buf));
    if (payload != nullptr) {
      const uint32_t len = GetU32(buf.data() + 4);
      if (len > buf.size() - kChainHeaderSize) {
        return Status::Corruption("page chain payload overflow");
      }
      const uint8_t* data = buf.data() + kChainHeaderSize;
      payload->insert(payload->end(), data, data + len);
    }
    pages->push_back(id);
    id = GetU32(buf.data());
  }
  return Status::OK();
}

Result<PageId> BmehTree::SaveTo(PageStore* store,
                                std::vector<PageId>* pages) {
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
    hashdir::EncodeNode(node, &w);
  });

  w.U64(pages_.live_count());
  pages_.ForEach([&](uint32_t id, const DataPage& page) {
    w.U32(id);
    page.Serialize(&w);
  });

  BMEH_ASSIGN_OR_RETURN(std::vector<PageId> written,
                        WriteChain(store, w.bytes()));
  const PageId head = written.front();
  if (pages != nullptr) *pages = std::move(written);
  return head;
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadFrom(
    PageStore* store, PageId head, std::vector<PageId>* pages) {
  TreeLoadReport report;
  BMEH_ASSIGN_OR_RETURN(auto tree,
                        LoadImpl(store, head, /*tolerant=*/false, &report));
  if (pages != nullptr) *pages = std::move(report.chain_pages);
  return tree;
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadFromTolerant(
    PageStore* store, PageId head, TreeLoadReport* report) {
  BMEH_CHECK(report != nullptr);
  *report = TreeLoadReport{};
  auto res = LoadImpl(store, head, /*tolerant=*/true, report);
  if (!res.ok()) {
    // Page-section damage is absorbed inside LoadImpl, so any error
    // means the header/directory part could not be rebuilt.
    report->directory_lost = true;
  }
  return res;
}

Result<std::unique_ptr<BmehTree>> BmehTree::LoadImpl(PageStore* store,
                                                     PageId head,
                                                     bool tolerant,
                                                     TreeLoadReport* report) {
  std::vector<uint8_t> bytes;
  report->chain =
      WalkImageChain(store, head, &report->chain_pages, &bytes);
  if (!tolerant) BMEH_RETURN_NOT_OK(report->chain);
  ByteReader r(bytes);
  BMEH_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kTreeMagic) {
    return Status::Corruption("bad BMEH tree magic");
  }
  BMEH_ASSIGN_OR_RETURN(uint32_t d32, r.U32());
  // A corrupt count reads no further than the image's end; FromWidths
  // refuses it.
  std::vector<int> widths;
  for (uint32_t j = 0; j < d32; ++j) {
    BMEH_ASSIGN_OR_RETURN(uint32_t wj, r.U32());
    widths.push_back(static_cast<int>(wj));
  }
  auto decoded = KeySchema::FromWidths(widths);
  if (!decoded.ok()) return Status::Corruption(decoded.status().message());
  const KeySchema schema = *decoded;
  const int d = schema.dims();

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
  tree->SetRoot(root);
  tree->levels_ = static_cast<int>(levels);
  tree->records_ = records;
  report->records_declared = records;

  // Defensive bound on arena ids so a corrupted image cannot force a
  // gigantic arena allocation.
  constexpr uint32_t kMaxImageId = uint32_t{1} << 26;

  BMEH_ASSIGN_OR_RETURN(uint64_t n_nodes, r.U64());
  for (uint64_t n = 0; n < n_nodes; ++n) {
    BMEH_ASSIGN_OR_RETURN(uint32_t id, r.U32());
    if (id > kMaxImageId) return Status::Corruption("node id out of range");
    if (tree->nodes_.Alive(id)) {
      return Status::Corruption("duplicate node id in image");
    }
    BMEH_ASSIGN_OR_RETURN(DirNode node, hashdir::DecodeNode(&r, schema));
    for (uint64_t a = 0; a < node.entry_count(); ++a) {
      const Ref& ref = node.at_address(a).ref;
      if (!ref.is_nil() && ref.id > kMaxImageId) {
        return Status::Corruption("ref id out of range");
      }
    }
    tree->nodes_.CreateAt(id);
    *tree->nodes_.Mutate(id) = std::move(node);
  }
  if (!tree->nodes_.Alive(tree->root_id_)) {
    return Status::Corruption("root node missing from image");
  }

  // ---- data pages ----
  // Everything before this point had to parse: without the directory
  // there is no tree.  From here on, a cut chain (tolerant mode only)
  // degrades gracefully — the records that fell past the cut turn into
  // quarantined empty buckets instead of a failed load.
  const bool tolerate_cut = tolerant && !report->chain.ok();
  auto parse_page = [&]() -> Status {
    BMEH_ASSIGN_OR_RETURN(uint32_t id, r.U32());
    if (id > kMaxImageId) return Status::Corruption("page id out of range");
    if (tree->pages_.Alive(id)) {
      return Status::Corruption("duplicate page id in image");
    }
    BMEH_ASSIGN_OR_RETURN(
        DataPage page,
        DataPage::Deserialize(&r, id, options.page_capacity, schema));
    tree->pages_.CreateAt(id);
    *tree->pages_.Mutate(id) = std::move(page);
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
    const Status st = parse_page();
    if (!st.ok()) {
      if (!tolerate_cut) return st;
      // A half-parsed bucket is as lost as an unparsed one: the
      // quarantine sweep below rebuilds it as an empty placeholder.
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
