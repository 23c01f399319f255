#include "src/core/bmeh_tree.h"

#include <sstream>

#include "src/common/bit_util.h"
#include "src/hashdir/split_util.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::PathStep;
using hashdir::Ref;

namespace {
/// Backstop against non-terminating insert loops; real insertions need at
/// most O(phi * l^2) structural changes (Theorem 3).
constexpr int kMaxInsertRestarts = 100000;
}  // namespace

BmehTree::BmehTree(const KeySchema& schema, const TreeOptions& options)
    : schema_(schema),
      options_(options),
      nodes_(schema.dims()),
      pages_(options.page_capacity) {
  BMEH_CHECK(options.page_capacity >= 1);
  for (int j = 0; j < schema_.dims(); ++j) {
    BMEH_CHECK(options_.xi[j] >= 1 && options_.xi[j] <= schema_.width(j))
        << "xi out of range for dim " << j;
  }
  SetRoot(nodes_.Create());
}

void BmehTree::EnableConcurrentReads(epoch::EpochManager* mgr) {
  BMEH_CHECK(mgr != nullptr);
  BMEH_CHECK(epoch_ == nullptr) << "concurrent reads already enabled";
  epoch_ = mgr;
}

void BmehTree::SetRoot(uint32_t id) {
  root_id_ = id;
  if (epoch_ == nullptr) published_root_.store(id, std::memory_order_relaxed);
}

void BmehTree::CommitMutation() {
  if (!nodes_.ScopeDirty() && !pages_.ScopeDirty()) {
    // Read-only outcome (duplicate insert, missing delete, ...): nothing
    // to publish, and no sequence bump to disturb in-flight readers.
    nodes_.CancelScope();
    pages_.CancelScope();
    return;
  }
  pub_seq_.fetch_add(1, std::memory_order_acq_rel);  // Odd: commit open.
  if (commit_hook_) commit_hook_();
  std::vector<hashdir::RetiredObject> retired;
  // Pages first: a reader that sees a new node must find its pages.
  pages_.PublishScope(&retired);
  if (mid_publish_hook_) mid_publish_hook_();
  nodes_.PublishScope(&retired);
  published_root_.store(root_id_, std::memory_order_release);
  pub_seq_.fetch_add(1, std::memory_order_release);  // Even: commit closed.
  // Retire only after the slots no longer reach the originals.
  for (const hashdir::RetiredObject& r : retired) {
    epoch_->Retire(r.obj, r.deleter);
  }
  epoch_->ReclaimSome();
}

Status BmehTree::Insert(const PseudoKey& key, uint64_t payload) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  MutationScope scope(this);
  return InsertUnscoped(key, payload);
}

Status BmehTree::InsertUnscoped(const PseudoKey& key, uint64_t payload) {
  // Wall time this insertion spent making room (the whole split cascade
  // across restarts); recorded as one histogram sample on success.
  uint64_t split_ns = 0;
  for (int attempt = 0; attempt < kMaxInsertRestarts; ++attempt) {
    BMEH_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                          hashdir::DescendToLeaf(schema_, nodes_, root_id_,
                                                 key, &io_));
    const PathStep& leaf = path.back();
    const Entry e = nodes_.Get(leaf.node_id)->at(leaf.tuple);
    if (e.ref.is_nil()) {
      // Paper's P = NIL branch: a fresh page serves the whole region.
      const uint32_t pid = pages_.Create();
      nodes_.Mutate(leaf.node_id)->SetGroupRef(leaf.tuple, Ref::Page(pid));
      io_.CountDirWrite();
      BMEH_CHECK_OK(pages_.Mutate(pid)->Insert({key, payload}));
      io_.CountDataWrite();
      ++records_;
      if (split_ns != 0) split_latency_->Record(split_ns);
      return Status::OK();
    }
    BMEH_DCHECK(e.ref.is_page());
    if (quarantined_.count(e.ref.id) != 0) {
      // The bucket's records were lost to corruption; inserting here could
      // resurrect a key that is already (invisibly) present.
      return Status::DataLoss("bucket for " + key.ToString() +
                              " was lost to corruption");
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
      if (split_ns != 0) split_latency_->Record(split_ns);
      return Status::OK();
    }
    if (split_latency_ != nullptr) {
      const uint64_t t0 = obs::MonotonicNanos();
      BMEH_RETURN_NOT_OK(SplitLeafOnce(path));
      split_ns += obs::MonotonicNanos() - t0;
      if (split_ns == 0) split_ns = 1;  // clock too coarse; still a split
    } else {
      BMEH_RETURN_NOT_OK(SplitLeafOnce(path));
    }
  }
  return Status::CapacityError("insertion did not converge for " +
                               key.ToString());
}

std::vector<BmehLevelStats> BmehTree::DescribeLevels() const {
  std::vector<BmehLevelStats> levels(levels_);
  // Breadth-first over the balanced tree.
  std::vector<uint32_t> frontier = {root_id_};
  for (int level = 0; level < levels_ && !frontier.empty(); ++level) {
    std::vector<uint32_t> next;
    for (uint32_t id : frontier) {
      const DirNode& node = *nodes_.Get(id);
      BmehLevelStats& s = levels[level];
      ++s.nodes;
      s.entries_used += node.entry_count();
      node.ForEachGroup([&](const IndexTuple&, const Entry& e) {
        ++s.groups;
        if (e.ref.is_nil()) ++s.nil_groups;
        if (e.ref.is_node()) next.push_back(e.ref.id);
      });
    }
    frontier = std::move(next);
  }
  return levels;
}

std::vector<uint64_t> BmehTree::PageFillHistogram() const {
  std::vector<uint64_t> hist(options_.page_capacity + 1, 0);
  pages_.ForEach([&](uint32_t, const DataPage& page) {
    ++hist[page.size()];
  });
  return hist;
}

void BmehTree::Scan(const std::function<void(const Record&)>& fn) {
  pages_.ForEach([&](uint32_t, const DataPage& page) {
    io_.CountDataRead();
    for (const Record& rec : page.records()) fn(rec);
  });
}

IndexStructureStats BmehTree::Stats() const {
  IndexStructureStats s;
  s.directory_nodes = nodes_.live_count();
  s.directory_entries =
      nodes_.live_count() * options_.node_block_entries(schema_.dims());
  uint64_t used = 0;
  nodes_.ForEach([&](uint32_t, const DirNode& n) { used += n.entry_count(); });
  s.directory_entries_used = used;
  s.directory_levels = levels_;
  s.data_pages = pages_.live_count();
  s.records = records_;
  return s;
}

std::string BmehTree::ToDot() const {
  std::ostringstream os;
  os << "digraph bmeh {\n  node [shape=record];\n";
  nodes_.ForEach([&](uint32_t id, const DirNode& node) {
    os << "  n" << id << " [label=\"N" << id << " H=(";
    for (int j = 0; j < schema_.dims(); ++j) {
      if (j) os << ",";
      os << node.depth(j);
    }
    os << ")\"];\n";
    node.ForEachGroup([&](const IndexTuple& rep, const Entry& e) {
      if (e.ref.is_nil()) return;
      std::string target = e.ref.is_node()
                               ? "n" + std::to_string(e.ref.id)
                               : "p" + std::to_string(e.ref.id);
      os << "  n" << id << " -> " << target << " [label=\"<";
      for (int j = 0; j < schema_.dims(); ++j) {
        if (j) os << ",";
        os << bit_util::IndexPrefix(rep[j], node.depth(j), e.h[j]);
      }
      os << ">\"];\n";
    });
  });
  pages_.ForEach([&](uint32_t id, const DataPage& page) {
    os << "  p" << id << " [shape=box,label=\"P" << id << " ("
       << page.size() << ")\"];\n";
  });
  os << "}\n";
  return os.str();
}

}  // namespace bmeh
