#include "src/store/frozen_tree.h"

#include <unordered_map>

#include "src/common/bytes.h"
#include "src/hashdir/descent.h"
#include "src/hashdir/range_walk.h"
#include "src/pagestore/undo_journal.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::Ref;

namespace {

constexpr uint32_t kFrozenMagic = 0x424d465a;  // "BMFZ"
constexpr uint8_t kNodePageType = 1;
constexpr uint8_t kDataPageType = 2;

}  // namespace

Result<PageId> FrozenBmehTree::Freeze(const BmehTree& tree,
                                      PageStore* store) {
  const int d = tree.schema().dims();

  // Pass 1: reserve a store page for every node and data page.  Every
  // allocation is journaled, so a freeze that fails frees what it took.
  PageOpJournal journal(store);
  std::unordered_map<uint32_t, PageId> node_page;
  std::unordered_map<uint32_t, PageId> data_page;
  Status bad = Status::OK();
  tree.nodes().ForEach([&](uint32_t id, const DirNode&) {
    if (!bad.ok()) return;
    auto p = journal.Allocate();
    if (!p.ok()) {
      bad = p.status();
      return;
    }
    node_page[id] = *p;
  });
  BMEH_RETURN_NOT_OK(bad);
  tree.data_pages().ForEach([&](uint32_t id, const DataPage&) {
    if (!bad.ok()) return;
    auto p = journal.Allocate();
    if (!p.ok()) {
      bad = p.status();
      return;
    }
    data_page[id] = *p;
  });
  BMEH_RETURN_NOT_OK(bad);

  // Every page is encoded into `w`, then written zero-padded to a page.
  ByteWriter w;
  std::vector<uint8_t> buf;
  auto write_page = [&](PageId page, const char* too_big) -> Status {
    if (w.size() > static_cast<size_t>(store->page_size())) {
      return Status::CapacityError(too_big);
    }
    buf.assign(w.bytes().begin(), w.bytes().end());
    buf.resize(store->page_size(), 0);
    return store->Write(page, buf);
  };

  // Pass 2: write data pages.
  tree.data_pages().ForEach([&](uint32_t id, const DataPage& page) {
    if (!bad.ok()) return;
    w.Clear();
    w.U8(kDataPageType);
    page.Serialize(&w);
    bad = write_page(data_page[id],
                     "data page does not fit in one store page; use a "
                     "larger page size or smaller b");
  });
  BMEH_RETURN_NOT_OK(bad);

  // Pass 3: write directory nodes with child refs translated to store
  // page ids.
  tree.nodes().ForEach([&](uint32_t id, const DirNode& node) {
    if (!bad.ok()) return;
    DirNode copy = node;
    for (uint64_t a = 0; a < copy.entry_count(); ++a) {
      Ref& ref = copy.at_address(a).ref;
      if (ref.is_node()) {
        ref.id = node_page.at(ref.id);
      } else if (ref.is_page()) {
        ref.id = data_page.at(ref.id);
      }
    }
    w.Clear();
    w.U8(kNodePageType);
    hashdir::EncodeNode(copy, &w);
    bad = write_page(node_page[id],
                     "directory node does not fit in one store page; use a "
                     "larger page size or smaller phi");
  });
  BMEH_RETURN_NOT_OK(bad);

  // Metadata page.
  BMEH_ASSIGN_OR_RETURN(PageId meta, journal.Allocate());
  w.Clear();
  w.U32(kFrozenMagic);
  w.U8(static_cast<uint8_t>(d));
  for (int j = 0; j < d; ++j) {
    w.U8(static_cast<uint8_t>(tree.schema().width(j)));
  }
  w.U32(static_cast<uint32_t>(tree.page_capacity()));
  w.U32(static_cast<uint32_t>(tree.height()));
  w.U64(tree.Stats().records);
  w.U32(node_page.at(tree.root_id()));
  BMEH_RETURN_NOT_OK(write_page(meta, "metadata page overflow"));
  journal.Commit();
  return meta;
}

FrozenBmehTree::FrozenBmehTree(PageStore* store, const KeySchema& schema,
                               int page_capacity, int levels,
                               uint64_t records, PageId root_page,
                               int pool_pages)
    : store_(store),
      schema_(schema),
      page_capacity_(page_capacity),
      levels_(levels),
      records_(records),
      root_page_(root_page),
      pool_(std::make_unique<BufferPool>(store, pool_pages)) {}

Result<std::unique_ptr<FrozenBmehTree>> FrozenBmehTree::Open(
    PageStore* store, PageId meta, int pool_pages) {
  std::vector<uint8_t> buf(store->page_size());
  BMEH_RETURN_NOT_OK(store->Read(meta, buf));
  ByteReader r(buf);
  BMEH_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kFrozenMagic) {
    return Status::Corruption("bad frozen-tree magic");
  }
  BMEH_ASSIGN_OR_RETURN(uint8_t d, r.U8());
  std::vector<int> widths;
  for (int j = 0; j < d; ++j) {
    BMEH_ASSIGN_OR_RETURN(uint8_t wj, r.U8());
    widths.push_back(wj);
  }
  auto schema = KeySchema::FromWidths(widths);
  if (!schema.ok()) return Status::Corruption(schema.status().message());
  BMEH_ASSIGN_OR_RETURN(uint32_t b, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint32_t levels, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint64_t records, r.U64());
  BMEH_ASSIGN_OR_RETURN(uint32_t root_page, r.U32());
  if (b < 1 || levels < 1) return Status::Corruption("bad frozen header");

  auto tree = std::unique_ptr<FrozenBmehTree>(new FrozenBmehTree(
      store, *schema, static_cast<int>(b), static_cast<int>(levels), records,
      root_page, pool_pages));
  // Decode and pin the root once; later probes do not pay for it.
  BMEH_ASSIGN_OR_RETURN(DirNode root, tree->FetchNode(root_page));
  tree->root_ = std::make_unique<DirNode>(std::move(root));
  tree->base_reads_ = store->stats().reads;
  return tree;
}

Result<DirNode> FrozenBmehTree::FetchNode(PageId page) {
  BMEH_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  ByteReader r(h.data());
  BMEH_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type != kNodePageType) {
    return Status::Corruption("expected a frozen node page");
  }
  return hashdir::DecodeNode(&r, schema_);
}

Result<DataPage> FrozenBmehTree::FetchDataPage(PageId page) {
  BMEH_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  ByteReader r(h.data());
  BMEH_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type != kDataPageType) {
    return Status::Corruption("expected a frozen data page");
  }
  return DataPage::Deserialize(&r, page, page_capacity_, schema_);
}

Result<uint64_t> FrozenBmehTree::Search(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  const DirNode* node = root_.get();
  std::unique_ptr<DirNode> current;
  std::array<uint16_t, kMaxDims> consumed{};
  for (int level = 0; level <= levels_; ++level) {
    IndexTuple t = hashdir::TupleInNode(schema_, *node, key, consumed);
    const Entry e = node->at(t);
    if (e.ref.is_nil()) {
      return Status::KeyError("key " + key.ToString() + " not found");
    }
    if (e.ref.is_page()) {
      BMEH_ASSIGN_OR_RETURN(DataPage page, FetchDataPage(e.ref.id));
      auto payload = page.Lookup(key);
      if (!payload) {
        return Status::KeyError("key " + key.ToString() + " not found");
      }
      return *payload;
    }
    for (int j = 0; j < schema_.dims(); ++j) {
      consumed[j] = static_cast<uint16_t>(consumed[j] + e.h[j]);
    }
    BMEH_ASSIGN_OR_RETURN(DirNode next, FetchNode(e.ref.id));
    current = std::make_unique<DirNode>(std::move(next));
    node = current.get();
  }
  return Status::Corruption("frozen tree deeper than its recorded height");
}

Status FrozenBmehTree::RangeSearch(const RangePredicate& pred,
                                   std::vector<Record>* out) {
  // Per-query caches keep decoded nodes/pages alive for the walk.
  std::unordered_map<uint32_t, std::unique_ptr<DirNode>> nodes;
  Status bad = Status::OK();

  hashdir::RangeWalkCallbacks cbs;
  cbs.get_node = [&](uint32_t id, int) -> const DirNode* {
    if (id == root_page_) return root_.get();
    auto it = nodes.find(id);
    if (it != nodes.end()) return it->second.get();
    auto fetched = FetchNode(id);
    if (!fetched.ok()) {
      bad = fetched.status();
      return nullptr;
    }
    auto owned = std::make_unique<DirNode>(std::move(fetched).ValueOrDie());
    const DirNode* raw = owned.get();
    nodes.emplace(id, std::move(owned));
    return raw;
  };
  cbs.visit_page = [&](uint32_t id, const RangePredicate& p,
                       std::vector<Record>* o) {
    auto page = FetchDataPage(id);
    if (!page.ok()) {
      bad = page.status();
      return;
    }
    for (const Record& rec : page->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  hashdir::RangeWalkStats stats;
  Status st = hashdir::RangeWalk(schema_, pred, Ref::Node(root_page_), cbs,
                                 out, &stats);
  BMEH_RETURN_NOT_OK(bad);
  return st;
}

}  // namespace bmeh
