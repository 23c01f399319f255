// Growth machinery of the BMEH-tree (paper §3.1, §4.1).
//
// A full insertion may require a chain of structural changes.  Each call
// below performs exactly ONE change (page-group split, node doubling,
// balanced node split, or new root) and returns; the insertion loop then
// re-descends and retries.  This mirrors the paper's BMEH_Insert, which
// also re-invokes itself from the root after restructuring, and keeps
// every step simple enough to reason about:
//
//   page full
//     -> group split inside the leaf node        (h_m < H_m)
//     -> node doubling                           (h_m = H_m < xi_m)
//     -> balanced node split by the leading bit  (H_m = xi_m), which may
//        first require the parent to double or split (recursion toward the
//        root; a root split creates a new root and deepens every path).
//
// The delicate case is the balanced node split: an entry group with
// h_m = 0 spans both halves of the node.  Following the K-D-B-tree idea
// the paper builds on, such children are FORCE-SPLIT by the same key bit
// first (a data page repartitions its records; a child node splits
// recursively), so the directory remains a strict tree and the tree stays
// perfectly height-balanced.

#include "src/common/bit_util.h"
#include "src/core/bmeh_tree.h"
#include "src/hashdir/split_util.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::PathStep;
using hashdir::Ref;

Status BmehTree::SplitLeafOnce(const std::vector<PathStep>& path) {
  const PathStep& leaf = path.back();
  const DirNode* node = nodes_.Get(leaf.node_id);
  const Entry e = node->at(leaf.tuple);
  BMEH_DCHECK(e.ref.is_page());

  // Hard limit: the split bit must exist within the pseudo-key width.
  std::array<int, kMaxDims> limits{};
  for (int j = 0; j < schema_.dims(); ++j) {
    limits[j] = schema_.width(j) - leaf.consumed[j];
  }
  const int m = hashdir::ChooseSplitDim(
      e, std::span<const int>(limits.data(), schema_.dims()), schema_.dims());
  if (m < 0) {
    return Status::CapacityError(
        "page region cannot split: all pseudo-key bits consumed");
  }

  if (e.h[m] < node->depth(m)) {
    ++mutations_.page_splits;
    return hashdir::SplitPageGroup(schema_, nodes_.Mutate(leaf.node_id),
                                   leaf.tuple, m, leaf.consumed, &pages_,
                                   &io_);
  }
  if (node->depth(m) < options_.xi[m]) {
    nodes_.Mutate(leaf.node_id)->Double(m);
    ++mutations_.node_doublings;
    io_.CountDirWrite();
    return Status::OK();
  }
  // Node at its cap along m: balanced node split (growth toward the root).
  return SplitNodeAt(path, path.size() - 1, m);
}

Status BmehTree::SplitNodeAt(const std::vector<PathStep>& path, size_t level,
                             int m) {
  const uint32_t node_id = path[level].node_id;
  if (level == 0) {
    // Splitting the root: first grow a new root above it; the next attempt
    // will split the old root into the new root's two entries.
    if (nodes_.live_count() + 1 > options_.max_nodes) {
      return Status::CapacityError("directory node cap exceeded");
    }
    BMEH_DCHECK(node_id == root_id_);
    const uint32_t new_root = nodes_.Create();
    nodes_.Mutate(new_root)->at_address(0) =
        hashdir::MakeEntry(Ref::Node(node_id), schema_.dims());
    SetRoot(new_root);
    ++levels_;
    ++mutations_.new_roots;
    io_.CountDirWrite();
    return Status::OK();
  }

  const PathStep& pstep = path[level - 1];
  const DirNode* parent = nodes_.Get(pstep.node_id);
  const Entry pe = parent->at(pstep.tuple);
  BMEH_DCHECK(pe.ref == Ref::Node(node_id));

  if (pe.h[m] == parent->depth(m)) {
    if (parent->depth(m) < options_.xi[m]) {
      nodes_.Mutate(pstep.node_id)->Double(m);
      ++mutations_.node_doublings;
      io_.CountDirWrite();
      return Status::OK();
    }
    // The parent is full along m as well: split it first (§3.1 — "this may
    // generate further splitting and eventually cause the root node to
    // split as well").
    return SplitNodeAt(path, level - 1, m);
  }

  // The parent has room for one more dimension-m bit: split the node.
  // A balanced split force-splits every spanning child node recursively,
  // and each split in that cascade nets one extra live node (two created,
  // one destroyed) with a transient peak of one more.  Size the whole
  // cascade against the cap up front: failing mid-cascade would leave a
  // half-split subtree with no rollback.
  const uint64_t cascade_splits = CountBalancedSplitNodes(node_id, m);
  if (nodes_.live_count() + cascade_splits + 1 > options_.max_nodes) {
    return Status::CapacityError("directory node cap exceeded");
  }
  BMEH_ASSIGN_OR_RETURN(auto halves,
                        SplitNodeByLeadingBit(node_id, m,
                                              path[level].consumed));
  nodes_.Mutate(pstep.node_id)
      ->SplitGroup(pstep.tuple, m, Ref::Node(halves.first),
                   Ref::Node(halves.second));
  io_.CountDirWrite();
  // Canonicalize both halves so that a half left (nearly) empty by the
  // split does not freeze as an unreachable skeleton.  Safe with respect
  // to the pending insertion: the trigger group's page is full, so the
  // strict merge threshold cannot re-absorb it, and its local depth pins
  // the half's depth along m against halving.
  if (options_.merge_on_delete) {
    TidyNode(halves.first);
    TidyNode(halves.second);
  }
  return Status::OK();
}

uint64_t BmehTree::CountBalancedSplitNodes(uint32_t node_id, int m) const {
  const DirNode* node = nodes_.Get(node_id);
  uint64_t splits = 1;  // this node itself
  node->ForEachGroup([&](const IndexTuple&, const Entry& e) {
    if (!e.ref.is_node()) return;  // pages don't consume directory nodes
    // SplitNodeByLeadingBit force-splits exactly the child nodes whose
    // region spans the split plane: every group with h_m = 0 when the
    // node indexes dimension m, and every group otherwise.
    if (node->depth(m) >= 1 && e.h[m] != 0) return;
    splits += CountBalancedSplitNodes(e.ref.id, m);
  });
  return splits;
}

Result<std::pair<uint32_t, uint32_t>> BmehTree::SplitNodeByLeadingBit(
    uint32_t node_id, int m,
    const std::array<uint16_t, kMaxDims>& consumed) {
  const DirNode* node = nodes_.Get(node_id);
  const int d = schema_.dims();
  ++mutations_.node_splits;
  io_.CountDirRead();

  if (node->depth(m) >= 1) {
    // Normalize: force-split every group whose region spans both halves
    // (h_m = 0), so partitioning by the leading i_m bit is well defined.
    std::vector<IndexTuple> spanning;
    node->ForEachGroup([&](const IndexTuple& rep, const Entry& e) {
      if (e.h[m] == 0) spanning.push_back(rep);
    });
    for (const IndexTuple& rep : spanning) {
      const Entry e = nodes_.Get(node_id)->at(rep);
      std::pair<Ref, Ref> halves{Ref::Nil(), Ref::Nil()};
      if (!e.ref.is_nil()) {
        std::array<uint16_t, kMaxDims> child_consumed = consumed;
        for (int j = 0; j < d; ++j) {
          child_consumed[j] = static_cast<uint16_t>(consumed[j] + e.h[j]);
        }
        BMEH_ASSIGN_OR_RETURN(halves, ForceSplitChild(e.ref, m,
                                                      child_consumed));
      }
      nodes_.Mutate(node_id)->SplitGroup(rep, m, halves.first,
                                         halves.second);
    }

    // Partition the entries into two nodes by the leading i_m bit; each
    // half drops that bit (its depth along m is one less, and one bit of
    // every entry's local depth h_m moves up to the parent — the paper's
    // "local depth h_1 of every directory entry ... is decreased by one").
    const uint32_t left_id = nodes_.Create();
    const uint32_t right_id = nodes_.Create();
    node = nodes_.Get(node_id);  // re-fetch: the splits above Mutated it
    DirNode* left = nodes_.Mutate(left_id);
    DirNode* right = nodes_.Mutate(right_id);
    ReplayShape(*node, m, left);
    ReplayShape(*node, m, right);
    const uint32_t half =
        static_cast<uint32_t>(bit_util::Pow2(node->depth(m) - 1));
    std::array<int, kMaxDims> depths{};
    for (int j = 0; j < d; ++j) depths[j] = node->depth(j);
    for (extarray::TupleOdometer od(std::span<const int>(depths.data(), d));
         !od.done(); od.Next()) {
      IndexTuple t = od.tuple();
      Entry e = node->at(t);
      BMEH_DCHECK(e.h[m] >= 1);
      e.h[m] = static_cast<uint8_t>(e.h[m] - 1);
      if (t[m] < half) {
        left->at(t) = e;
      } else {
        t[m] -= half;
        right->at(t) = e;
      }
    }
    nodes_.Destroy(node_id);
    io_.CountDirWrite(2);
    return std::make_pair(left_id, right_id);
  }

  // depth(m) == 0: the node does not index dimension m at all, so both
  // halves have its exact shape and every child is force-split.
  std::vector<std::pair<IndexTuple, Entry>> groups;
  node->ForEachGroup([&](const IndexTuple& rep, const Entry& e) {
    groups.emplace_back(rep, e);
  });
  std::vector<std::pair<Ref, Ref>> halves_of(groups.size(),
                                             {Ref::Nil(), Ref::Nil()});
  for (size_t g = 0; g < groups.size(); ++g) {
    const Entry& e = groups[g].second;
    if (e.ref.is_nil()) continue;
    std::array<uint16_t, kMaxDims> child_consumed = consumed;
    for (int j = 0; j < d; ++j) {
      child_consumed[j] = static_cast<uint16_t>(consumed[j] + e.h[j]);
    }
    BMEH_ASSIGN_OR_RETURN(halves_of[g],
                          ForceSplitChild(e.ref, m, child_consumed));
  }
  const uint32_t left_id = nodes_.Create();
  const uint32_t right_id = nodes_.Create();
  DirNode* left = nodes_.Mutate(left_id);
  DirNode* right = nodes_.Mutate(right_id);
  ReplayShape(*node, /*skip_dim=*/-1, left);
  ReplayShape(*node, /*skip_dim=*/-1, right);
  for (size_t g = 0; g < groups.size(); ++g) {
    Entry le = groups[g].second;
    le.ref = halves_of[g].first;
    Entry re = groups[g].second;
    re.ref = halves_of[g].second;
    node->ForEachInGroup(groups[g].first, [&](const IndexTuple& member) {
      left->at(member) = le;
      right->at(member) = re;
    });
  }
  nodes_.Destroy(node_id);
  io_.CountDirWrite(2);
  return std::make_pair(left_id, right_id);
}

Result<std::pair<Ref, Ref>> BmehTree::ForceSplitChild(
    Ref child, int m, const std::array<uint16_t, kMaxDims>& consumed) {
  ++mutations_.forced_splits;
  if (child.is_node()) {
    BMEH_ASSIGN_OR_RETURN(auto halves,
                          SplitNodeByLeadingBit(child.id, m, consumed));
    // A forced clone may be (near-)empty — e.g. all of the region's data
    // lay on one side.  No deletion path ever descends into an empty
    // clone, so canonicalize it now; this is also what keeps the shapes
    // of drained siblings equal so they can re-merge later.
    if (options_.merge_on_delete) {
      TidyNode(halves.first);
      TidyNode(halves.second);
    }
    return std::make_pair(Ref::Node(halves.first), Ref::Node(halves.second));
  }
  BMEH_DCHECK(child.is_page());
  if (quarantined_.count(child.id) != 0) {
    // Splitting the empty placeholder would demote "records lost here" to
    // "region empty" — a silent answer downgrade.  Fail the structural
    // change instead; the insert that triggered it surfaces DataLoss.
    return Status::DataLoss("cannot split bucket " + std::to_string(child.id) +
                            ": its records were lost to corruption");
  }
  const int w = schema_.width(m);
  const int split_bit = consumed[m];
  if (split_bit >= w) {
    return Status::CapacityError(
        "force split beyond pseudo-key width in dim " + std::to_string(m));
  }
  // Fresh ids for both halves, old id tombstoned — see SplitPageGroup for
  // why a lock-free reader must never pair a stale parent snapshot with a
  // narrowed page republished at the old id.
  const DataPage* old_page = pages_.Get(child.id);
  io_.CountDataRead();
  const uint32_t left_pid = pages_.Create();
  const uint32_t right_pid = pages_.Create();
  DataPage* left_page = pages_.Mutate(left_pid);
  DataPage* right_page = pages_.Mutate(right_pid);
  for (const Record& rec : old_page->records()) {
    const bool high =
        bit_util::BitAt(rec.key.component(m), w, split_bit) == 1;
    BMEH_CHECK_OK((high ? right_page : left_page)->Insert(rec));
  }
  pages_.Destroy(child.id);
  Ref left = Ref::Page(left_pid);
  Ref right = Ref::Page(right_pid);
  // A force-split may leave one side empty; empty pages are dropped
  // immediately (§2.1).
  if (right_page->empty()) {
    pages_.Destroy(right_pid);
    right = Ref::Nil();
  }
  if (left_page->empty()) {
    pages_.Destroy(left_pid);
    left = Ref::Nil();
  }
  io_.CountDataWrite((left.is_nil() ? 0 : 1) + (right.is_nil() ? 0 : 1));
  return std::make_pair(left, right);
}

void BmehTree::ReplayShape(const DirNode& src, int skip_dim, DirNode* dst) {
  const auto& hist = src.history();
  bool skipped = false;
  for (int i = 0; i < hist.event_count(); ++i) {
    const int dim = hist.event_dim(i);
    if (!skipped && dim == skip_dim) {
      skipped = true;
      continue;
    }
    dst->Double(dim);
  }
  BMEH_DCHECK(skip_dim < 0 || skipped);
}

}  // namespace bmeh
