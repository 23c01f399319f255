// Deletion for the BMEH-tree (paper §4.2): "the splitting process is
// easily reversed ... nodes may be recursively merged, starting from the
// bottom, until possibly the root node is deleted."
//
// Bottom-up pass after removing the record:
//   1. buddy data pages inside the leaf node re-merge while their records
//      fit in one page (reverse of page-group splits);
//   2. node doublings that no entry needs any more are reversed;
//   3. sibling nodes whose parent group split them apart re-merge into one
//      node (reverse of a balanced node split) — this keeps the tree
//      perfectly balanced because it replaces two same-level nodes by one;
//   4. a root left with a single zero-depth entry pointing at a node is
//      collapsed away, peeling one level off every path at once.

#include "src/common/bit_util.h"
#include "src/core/bmeh_tree.h"
#include "src/hashdir/split_util.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;
using hashdir::PathStep;
using hashdir::Ref;

Status BmehTree::Delete(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  MutationScope scope(this);
  BMEH_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                        hashdir::DescendToLeaf(schema_, nodes_, root_id_, key,
                                               &io_));
  const PathStep& leaf = path.back();
  const Entry e = nodes_.Get(leaf.node_id)->at(leaf.tuple);
  if (e.ref.is_nil()) {
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  if (quarantined_.count(e.ref.id) != 0) {
    return Status::DataLoss("bucket for " + key.ToString() +
                            " was lost to corruption");
  }
  if (!pages_.Get(e.ref.id)->Contains(key)) {
    io_.CountDataRead();
    return Status::KeyError("key " + key.ToString() + " not found");
  }
  DataPage* page = pages_.Mutate(e.ref.id);
  io_.CountDataRead();
  BMEH_RETURN_NOT_OK(page->Remove(key));
  io_.CountDataWrite();
  --records_;
  if (options_.merge_on_delete && !degraded()) {
    MergeAfterDelete(path);
  } else if (page->empty()) {
    // Immediate deletion of empty pages (§2.1).
    nodes_.Mutate(leaf.node_id)->SetGroupRef(leaf.tuple, Ref::Nil());
    io_.CountDirWrite();
    pages_.Destroy(e.ref.id);
  }
  return Status::OK();
}

bool BmehTree::TryMergeNodeGroups(uint32_t parent_id, const IndexTuple& t) {
  const int d = schema_.dims();
  const DirNode* parent = nodes_.Get(parent_id);
  const Entry e = parent->at(t);
  if (!e.ref.is_node()) return false;

  // Prefer reversing the recorded last-split dimension, but accept any
  // dimension whose buddy is a same-shape sibling node — node splits move
  // bits between levels, so the per-entry m alone cannot sequence the
  // reversal.
  int m = -1;
  Entry be;
  for (int tries = 0; tries < d; ++tries) {
    const int cand = (e.m + d - tries) % d;
    if (e.h[cand] == 0) continue;
    const Entry cand_be = parent->at(parent->BuddyGroup(t, cand));
    if (cand_be.h != e.h || !cand_be.ref.is_node() ||
        cand_be.ref.id == e.ref.id) {
      continue;
    }
    const DirNode* a = nodes_.Get(e.ref.id);
    const DirNode* b = nodes_.Get(cand_be.ref.id);
    if (a->depth(cand) + 1 > options_.xi[cand]) continue;
    bool same_shape = true;
    for (int j = 0; j < d; ++j) {
      if (a->depth(j) != b->depth(j)) same_shape = false;
    }
    if (!same_shape) continue;
    m = cand;
    be = cand_be;
    break;
  }
  if (m < 0) return false;

  // Identify left (leading bit 0) and right halves.
  const int bitpos = parent->depth(m) - e.h[m];
  const bool t_is_right = (t[m] >> bitpos) & 1;
  const uint32_t left_id = t_is_right ? be.ref.id : e.ref.id;
  const uint32_t right_id = t_is_right ? e.ref.id : be.ref.id;
  const DirNode* left = nodes_.Get(left_id);
  const DirNode* right = nodes_.Get(right_id);

  const uint32_t merged_id = nodes_.Create();
  DirNode* merged = nodes_.Mutate(merged_id);
  merged->Double(m);
  ReplayShape(*left, /*skip_dim=*/-1, merged);
  const uint32_t half =
      static_cast<uint32_t>(bit_util::Pow2(merged->depth(m) - 1));
  std::array<int, kMaxDims> depths{};
  for (int j = 0; j < d; ++j) depths[j] = left->depth(j);
  for (extarray::TupleOdometer od(std::span<const int>(depths.data(), d));
       !od.done(); od.Next()) {
    const IndexTuple& src = od.tuple();
    Entry le = left->at(src);
    Entry re = right->at(src);
    le.h[m] = static_cast<uint8_t>(le.h[m] + 1);
    re.h[m] = static_cast<uint8_t>(re.h[m] + 1);
    IndexTuple dst = src;
    merged->at(dst) = le;
    dst[m] += half;
    merged->at(dst) = re;
  }
  nodes_.Mutate(parent_id)->MergeGroup(t, m, Ref::Node(merged_id));
  nodes_.Destroy(left_id);
  nodes_.Destroy(right_id);
  io_.CountDirRead(2);
  io_.CountDirWrite(2);
  ++mutations_.node_merges;
  // The merged node's own groups may now be mergeable (two husks fuse
  // into a node holding a mergeable husk pair); tidy it recursively so
  // collapsed regions do not freeze in place.
  TidyNode(merged_id);
  return true;
}

void BmehTree::TidyNode(uint32_t node_id) {
  // No structural shrinking while buckets are quarantined: a page merge
  // could fuse a lost bucket's placeholder into a healthy page and erase
  // the quarantine marker.  (Delete already bypasses MergeAfterDelete
  // when degraded; this is the backstop for the force-split path.)
  if (degraded()) return;
  // Every probe below reads through Get; the node (and a page) is Mutated
  // only by the merge, drop or halving that changes it, so a sweep that
  // finds nothing to do copies nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<IndexTuple> reps;
    nodes_.Get(node_id)->ForEachGroup(
        [&](const IndexTuple& rep, const Entry&) { reps.push_back(rep); });
    for (const IndexTuple& rep : reps) {
      if (TryMergeNodeGroups(node_id, rep)) {
        changed = true;
        break;  // group layout changed; rescan
      }
      const int merged = hashdir::MergeGroupCascade(
          &nodes_, node_id, rep, &pages_, options_.page_capacity, &io_);
      if (merged > 0) {
        mutations_.page_merges += merged;
        changed = true;
        break;
      }
    }
  }
  IndexTuple origin{};
  mutations_.node_halvings +=
      hashdir::HalveNodeCascade(&nodes_, node_id, &origin, &io_);
}

void BmehTree::MergeAfterDelete(const std::vector<PathStep>& path) {
  // Bottom-up: each level re-merges its groups, then reverses its own
  // doublings.  The merge pass sweeps EVERY group of the node, not just
  // the deletion's group: a pair of sibling subtrees often only becomes
  // mergeable after the last deletion under it has already passed through
  // (each half drained at a different time), so per-group opportunism
  // would freeze half-empty skeletons in place.  A sweep per path node
  // restores the induction "when the last record under node X leaves, X
  // collapses to a husk", which is what lets the root finally collapse.
  for (size_t level = path.size(); level-- > 0;) {
    TidyNode(path[level].node_id);
  }
  CollapseRoot();
}

void BmehTree::CollapseRoot() {
  for (;;) {
    const DirNode* root = nodes_.Get(root_id_);
    if (root->entry_count() != 1) return;
    const Entry e = root->at_address(0);
    if (!e.ref.is_node()) return;
    for (int j = 0; j < schema_.dims(); ++j) {
      if (e.h[j] != 0) return;
    }
    nodes_.Destroy(root_id_);
    SetRoot(e.ref.id);
    --levels_;
    ++mutations_.root_collapses;
    io_.CountDirWrite();
  }
}

}  // namespace bmeh
