#include "src/mehtree/meh_tree.h"

#include <unordered_set>

#include "src/common/bit_util.h"
#include "src/hashdir/range_walk.h"
#include "src/hashdir/split_util.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::PathStep;
using hashdir::Ref;

MehTree::MehTree(const KeySchema& schema, const TreeOptions& options)
    : schema_(schema),
      options_(options),
      nodes_(schema.dims()),
      pages_(options.page_capacity) {
  BMEH_CHECK(options.page_capacity >= 1);
  for (int j = 0; j < schema_.dims(); ++j) {
    BMEH_CHECK(options_.xi[j] >= 1 && options_.xi[j] <= schema_.width(j))
        << "xi out of range for dim " << j;
  }
  root_id_ = nodes_.Create();
}

Status MehTree::Insert(const PseudoKey& key, uint64_t payload) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  const int max_attempts = 4 * schema_.total_bits() + 16;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    BMEH_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                          hashdir::DescendToLeaf(schema_, nodes_, root_id_,
                                                 key, &io_));
    const PathStep& leaf = path.back();
    const Entry e = nodes_.Get(leaf.node_id)->at(leaf.tuple);
    if (e.ref.is_nil()) {
      const uint32_t pid = pages_.Create();
      nodes_.Mutate(leaf.node_id)->SetGroupRef(leaf.tuple, Ref::Page(pid));
      io_.CountDirWrite();
      BMEH_CHECK_OK(pages_.Mutate(pid)->Insert({key, payload}));
      io_.CountDataWrite();
      ++records_;
      return Status::OK();
    }
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
    BMEH_RETURN_NOT_OK(SplitLeafOnce(path, key));
  }
  return Status::CapacityError(
      "insertion did not converge for " + key.ToString());
}

Status MehTree::SplitLeafOnce(const std::vector<PathStep>& path,
                              const PseudoKey& key) {
  (void)key;
  const PathStep& leaf = path.back();
  const DirNode* node = nodes_.Get(leaf.node_id);
  const Entry e = node->at(leaf.tuple);
  BMEH_DCHECK(e.ref.is_page());

  // Hard limit: splitting must not address bits beyond the key width.
  std::array<int, kMaxDims> limits{};
  for (int j = 0; j < schema_.dims(); ++j) {
    limits[j] = schema_.width(j) - leaf.consumed[j];
  }
  const int m = hashdir::ChooseSplitDim(
      e, std::span<const int>(limits.data(), schema_.dims()),
      schema_.dims());
  if (m < 0) {
    return Status::CapacityError(
        "page region cannot split: all pseudo-key bits consumed");
  }

  if (e.h[m] == node->depth(m)) {
    if (node->depth(m) < options_.xi[m]) {
      // Room in the block: double the node in place.
      nodes_.Mutate(leaf.node_id)->Double(m);
      io_.CountDirWrite();
    } else {
      // Node at its cap along m: spawn a child node below (top-down
      // growth; this is where MEH and BMEH diverge).
      if (nodes_.live_count() + 1 > options_.max_nodes) {
        return Status::CapacityError("directory node cap exceeded");
      }
      const uint32_t cid = nodes_.Create();
      DirNode* child = nodes_.Mutate(cid);
      Entry ce = hashdir::MakeEntry(e.ref, schema_.dims());
      ce.m = e.m;  // the split-dimension cycle continues in the child
      child->at_address(0) = ce;
      nodes_.Mutate(leaf.node_id)->SetGroupRef(leaf.tuple, Ref::Node(cid));
      io_.CountDirWrite(2);
    }
    return Status::OK();  // structural change made; caller re-descends
  }
  return hashdir::SplitPageGroup(schema_, nodes_.Mutate(leaf.node_id),
                                 leaf.tuple, m, leaf.consumed, &pages_, &io_);
}

Result<uint64_t> MehTree::Search(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  BMEH_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                        hashdir::DescendToLeaf(schema_, nodes_, root_id_, key,
                                               &io_));
  const PathStep& leaf = path.back();
  const Entry& e = nodes_.Get(leaf.node_id)->at(leaf.tuple);
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

Status MehTree::Delete(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  BMEH_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                        hashdir::DescendToLeaf(schema_, nodes_, root_id_, key,
                                               &io_));
  const PathStep& leaf = path.back();
  const Entry e = nodes_.Get(leaf.node_id)->at(leaf.tuple);
  if (e.ref.is_nil()) {
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  DataPage* page = pages_.Mutate(e.ref.id);
  io_.CountDataRead();
  BMEH_RETURN_NOT_OK(page->Remove(key));
  io_.CountDataWrite();
  --records_;
  if (options_.merge_on_delete) {
    MergeAfterDelete(std::move(path));
  } else if (page->empty()) {
    nodes_.Mutate(leaf.node_id)->SetGroupRef(leaf.tuple, Ref::Nil());
    io_.CountDirWrite();
    pages_.Destroy(e.ref.id);
  }
  return Status::OK();
}

void MehTree::MergeAfterDelete(std::vector<PathStep> path) {
  // Reverse the growth bottom-up: merge buddy pages inside the leaf node,
  // shrink the node, collapse trivial nodes into their parent, then repeat
  // one level up.
  while (!path.empty()) {
    const PathStep step = path.back();
    path.pop_back();
    IndexTuple t = step.tuple;
    hashdir::MergeGroupCascade(&nodes_, step.node_id, t, &pages_,
                               options_.page_capacity, &io_);
    hashdir::HalveNodeCascade(&nodes_, step.node_id, &t, &io_);
    if (path.empty()) break;  // the root never collapses in the MEH-tree
    // Collapse: a node whose single group spans everything with zero local
    // depths is pure indirection — the reverse of a spawn.
    const DirNode* node = nodes_.Get(step.node_id);
    IndexTuple origin{};
    const Entry& oe = node->at(origin);
    bool trivial = true;
    for (int j = 0; j < schema_.dims(); ++j) {
      if (oe.h[j] != 0) {
        trivial = false;
        break;
      }
    }
    if (!trivial || node->entry_count() != 1) continue;
    nodes_.Mutate(path.back().node_id)
        ->SetGroupRef(path.back().tuple, oe.ref);
    io_.CountDirWrite();
    nodes_.Destroy(step.node_id);
  }
}

Status MehTree::RangeSearch(const RangePredicate& pred,
                            std::vector<Record>* out) {
  hashdir::RangeWalkStats stats;
  hashdir::RangeWalkCallbacks cbs;
  cbs.get_node = [this](uint32_t id, int) -> const DirNode* {
    if (!nodes_.Alive(id)) return nullptr;
    if (id != root_id_) io_.CountDirRead();
    return nodes_.Get(id);
  };
  cbs.visit_page = [this](uint32_t page_id, const RangePredicate& p,
                          std::vector<Record>* o) {
    io_.CountDataRead();
    for (const Record& rec : pages_.Get(page_id)->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  return hashdir::RangeWalk(schema_, pred, Ref::Node(root_id_), cbs, out,
                            &stats);
}

IndexStructureStats MehTree::Stats() const {
  IndexStructureStats s;
  s.directory_nodes = nodes_.live_count();
  s.directory_entries =
      nodes_.live_count() * options_.node_block_entries(schema_.dims());
  uint64_t used = 0;
  nodes_.ForEach([&](uint32_t, const DirNode& n) { used += n.entry_count(); });
  s.directory_entries_used = used;
  s.data_pages = pages_.live_count();
  s.records = records_;

  // Maximum directory depth over all paths.
  struct Walk {
    const hashdir::NodeArena* nodes;
    uint64_t max_level = 0;
    void Visit(uint32_t id, int level) {
      max_level = std::max<uint64_t>(max_level, level);
      nodes->Get(id)->ForEachGroup([&](const IndexTuple&, const Entry& e) {
        if (e.ref.is_node()) Visit(e.ref.id, level + 1);
      });
    }
  } walk{&nodes_, 0};
  walk.Visit(root_id_, 1);
  s.directory_levels = walk.max_level;
  return s;
}

Status MehTree::Validate() const {
  std::unordered_set<uint32_t> seen_pages;
  std::unordered_set<uint32_t> seen_nodes;
  uint64_t seen_records = 0;

  struct Checker {
    const MehTree* self;
    std::unordered_set<uint32_t>* seen_pages;
    std::unordered_set<uint32_t>* seen_nodes;
    uint64_t* seen_records;

    Status Visit(uint32_t node_id, std::array<uint16_t, kMaxDims> consumed,
                 std::array<uint64_t, kMaxDims> prefix) {
      const int d = self->schema_.dims();
      if (!self->nodes_.Alive(node_id)) {
        return Status::Corruption("dangling node ref " +
                                  std::to_string(node_id));
      }
      if (!seen_nodes->insert(node_id).second) {
        return Status::Corruption("node " + std::to_string(node_id) +
                                  " referenced twice");
      }
      const DirNode& node = *self->nodes_.Get(node_id);
      for (int j = 0; j < d; ++j) {
        if (node.depth(j) > self->options_.xi[j]) {
          return Status::Corruption("node depth exceeds xi");
        }
        if (consumed[j] + node.depth(j) > self->schema_.width(j)) {
          return Status::Corruption("path deeper than key width");
        }
      }
      Status bad = Status::OK();
      node.ForEachGroup([&](const IndexTuple& rep, const Entry& e) {
        if (!bad.ok()) return;
        node.ForEachInGroup(rep, [&](const IndexTuple& member) {
          if (!bad.ok()) return;
          if (!node.at(member).SameShape(e, d)) {
            bad = Status::Corruption("group member entry mismatch");
          }
        });
        if (!bad.ok()) return;
        std::array<uint16_t, kMaxDims> child_consumed = consumed;
        std::array<uint64_t, kMaxDims> child_prefix = prefix;
        for (int j = 0; j < d; ++j) {
          if (e.h[j] > node.depth(j)) {
            bad = Status::Corruption("local depth exceeds node depth");
            return;
          }
          child_prefix[j] = (prefix[j] << e.h[j]) |
                            bit_util::IndexPrefix(rep[j], node.depth(j),
                                                  e.h[j]);
          child_consumed[j] =
              static_cast<uint16_t>(consumed[j] + e.h[j]);
        }
        if (e.ref.is_nil()) return;
        if (e.ref.is_node()) {
          bad = Visit(e.ref.id, child_consumed, child_prefix);
          return;
        }
        if (!self->pages_.Alive(e.ref.id)) {
          bad = Status::Corruption("dangling page ref");
          return;
        }
        if (!seen_pages->insert(e.ref.id).second) {
          bad = Status::Corruption("page referenced twice");
          return;
        }
        const DataPage* page = self->pages_.Get(e.ref.id);
        if (page->size() > self->options_.page_capacity) {
          bad = Status::Corruption("page over capacity");
          return;
        }
        *seen_records += page->size();
        for (const Record& rec : page->records()) {
          for (int j = 0; j < d; ++j) {
            uint64_t key_prefix = bit_util::ExtractBits(
                rec.key.component(j), self->schema_.width(j), 0,
                child_consumed[j]);
            if (key_prefix != child_prefix[j]) {
              bad = Status::Corruption("record " + rec.key.ToString() +
                                       " outside its page region");
              return;
            }
          }
        }
      });
      return bad;
    }
  } checker{this, &seen_pages, &seen_nodes, &seen_records};

  BMEH_RETURN_NOT_OK(checker.Visit(root_id_, {}, {}));
  if (seen_records != records_) {
    return Status::Corruption("record count mismatch");
  }
  if (seen_pages.size() != pages_.live_count()) {
    return Status::Corruption("orphaned data pages");
  }
  if (seen_nodes.size() != nodes_.live_count()) {
    return Status::Corruption("orphaned directory nodes");
  }
  return Status::OK();
}

}  // namespace bmeh
