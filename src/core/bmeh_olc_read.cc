// The BMEH-tree's read walks: the exact-match descent (EXM_Search) and
// partial-range retrieval (PRG_Search, paper §4.4).  Each has one body,
// which serves lock-free readers, the locked fallback and the
// single-threaded experiment harness alike, so λ, λ′ and Theorem 4's
// counts are charged the same way on every path.
//
// Readers descend the published structure without any lock, validating
// slot versions hand-over-hand (see arena.h): trust an entry read from a
// node only after re-checking that the node's slot version is unchanged,
// and carry the already-validated child snapshot into the next level so a
// republished parent/child pair can never be mixed.  Any instability is
// reported as a conflict for the caller to retry with backoff; stale
// objects stay dereferenceable because every reader runs under an
// epoch::Guard and writers retire replaced objects instead of freeing
// them in place.  On a quiescent tree (concurrent reads off, or writers
// excluded) nothing moves under a walk, so a conflict there can only be a
// broken structure, and the status that comes with it says Corruption.

#include "src/common/bit_util.h"
#include "src/core/bmeh_tree.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::IndexTuple;

namespace {

Status ConflictStatus() {
  return Status::Corruption("read walk met an unstable or dangling slot");
}

}  // namespace

Result<uint64_t> BmehTree::Search(const PseudoKey& key) {
  bool conflict = false;
  return SearchOptimistic(key, &conflict);
}

Status BmehTree::RangeSearch(const RangePredicate& pred,
                             std::vector<Record>* out) {
  bool conflict = false;
  return RangeSearchOptimistic(pred, out, &conflict);
}

Status BmehTree::RangeSearchWithStats(const RangePredicate& pred,
                                      std::vector<Record>* out,
                                      hashdir::RangeWalkStats* stats) {
  bool conflict = false;
  return RangeSearchOptimistic(pred, out, &conflict, stats);
}

Result<uint64_t> BmehTree::SearchOptimistic(const PseudoKey& key,
                                            bool* conflict) {
  *conflict = false;
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  const uint32_t root = published_root_.load(std::memory_order_acquire);
  uint32_t node_id = root;
  hashdir::Arena<DirNode>::Snapshot cur = nodes_.Acquire(node_id);
  // The root has no parent to validate against, so re-check that it is
  // still the root: a reader delayed between the two loads could otherwise
  // acquire a node that was created at the recycled id of a destroyed root
  // and descend from it as if it were the root, returning "not found" for
  // a present key.
  if (cur.ptr == nullptr || (cur.version & 1) != 0 ||
      published_root_.load(std::memory_order_acquire) != root) {
    *conflict = true;
    return ConflictStatus();
  }
  std::array<uint16_t, kMaxDims> consumed{};
  const int max_levels = schema_.total_bits() + 2;
  for (int level = 0; level < max_levels; ++level) {
    // Compute the index tuple defensively: a stale snapshot can pair bit
    // depths inconsistently, so over-deep paths are conflicts here rather
    // than invariant violations.
    IndexTuple t{};
    for (int j = 0; j < schema_.dims(); ++j) {
      if (consumed[j] + cur.ptr->depth(j) > schema_.width(j)) {
        *conflict = true;
        return ConflictStatus();
      }
      t[j] = static_cast<uint32_t>(
          bit_util::ExtractBits(key.component(j), schema_.width(j),
                                consumed[j], cur.ptr->depth(j)));
    }
    const Entry e = cur.ptr->at(t);
    if (node_id != root) io_.CountDirRead();
    if (!e.ref.is_node()) {
      if (e.ref.is_nil()) {
        if (nodes_.VersionOf(node_id) != cur.version) break;
        return Status::KeyError("key " + key.ToString() + " not found");
      }
      if (quarantined_.count(e.ref.id) != 0) {
        // "Not found" would be a silent wrong answer: the key may well
        // have been in the lost bucket.
        if (nodes_.VersionOf(node_id) != cur.version) break;
        return Status::DataLoss("bucket for " + key.ToString() +
                                " was lost to corruption");
      }
      const hashdir::Arena<DataPage>::Snapshot ps = pages_.Acquire(e.ref.id);
      // Re-validate after acquiring the page: if the node is unchanged,
      // the entry still addresses this page for this key's region, and
      // the page object read below was current when its pointer loaded
      // (the linearization point of this lookup).
      if (nodes_.VersionOf(node_id) != cur.version) break;
      if (ps.ptr == nullptr || (ps.version & 1) != 0) break;
      io_.CountDataRead();
      const auto payload = ps.ptr->Lookup(key);
      if (!payload) {
        return Status::KeyError("key " + key.ToString() + " not found");
      }
      return *payload;
    }
    const hashdir::Arena<DirNode>::Snapshot child = nodes_.Acquire(e.ref.id);
    // Hand-over-hand: the parent re-check proves the entry (and thus this
    // child snapshot) was current a moment ago; the snapshot stays usable
    // afterwards because published objects are immutable.
    if (nodes_.VersionOf(node_id) != cur.version) break;
    if (child.ptr == nullptr || (child.version & 1) != 0) break;
    for (int j = 0; j < schema_.dims(); ++j) {
      consumed[j] = static_cast<uint16_t>(consumed[j] + e.h[j]);
    }
    node_id = e.ref.id;
    cur = child;
  }
  *conflict = true;
  return ConflictStatus();
}

Status BmehTree::RangeSearchOptimistic(const RangePredicate& pred,
                                       std::vector<Record>* out,
                                       bool* conflict,
                                       hashdir::RangeWalkStats* stats) {
  *conflict = false;
  const size_t base = out->size();
  // Range walks touch many slots, so instead of per-slot hand-over-hand
  // validation they run under the tree-level sequence lock: any commit
  // overlapping the walk invalidates the whole result.
  const uint64_t s1 = pub_seq_.load(std::memory_order_acquire);
  if ((s1 & 1) != 0) {
    *conflict = true;
    return ConflictStatus();
  }
  const uint32_t root = published_root_.load(std::memory_order_acquire);
  const int max_level = schema_.total_bits() + 2;
  bool torn = false;
  hashdir::RangeWalkCallbacks cbs;
  cbs.get_node = [this, root, max_level,
                  &torn](uint32_t id, int level) -> const DirNode* {
    if (level > max_level) {  // Stale chain; bail before walking a cycle.
      torn = true;
      return nullptr;
    }
    const hashdir::Arena<DirNode>::Snapshot ns = nodes_.Acquire(id);
    if (ns.ptr == nullptr || (ns.version & 1) != 0) {
      torn = true;
      return nullptr;
    }
    if (id != root) io_.CountDirRead();
    return ns.ptr;
  };
  uint64_t lost_buckets = 0;
  cbs.visit_page = [this, &torn, &lost_buckets](uint32_t page_id,
                                                const RangePredicate& p,
                                                std::vector<Record>* o) {
    if (quarantined_.count(page_id) != 0) {
      // The bucket overlaps the query but its records are gone; keep
      // walking so the caller still gets every surviving match.
      ++lost_buckets;
      return;
    }
    const hashdir::Arena<DataPage>::Snapshot ps = pages_.Acquire(page_id);
    if (ps.ptr == nullptr || (ps.version & 1) != 0) {
      torn = true;
      return;
    }
    io_.CountDataRead();
    for (const Record& rec : ps.ptr->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  hashdir::RangeWalkStats unused;
  const Status st = hashdir::RangeWalk(
      schema_, pred, hashdir::Ref::Node(root), cbs, out,
      stats != nullptr ? stats : &unused);
  if (torn || pub_seq_.load(std::memory_order_acquire) != s1) {
    out->resize(base);  // Discard the partial walk.
    *conflict = true;
    return ConflictStatus();
  }
  BMEH_RETURN_NOT_OK(st);
  if (lost_buckets > 0) {
    // The surviving matches are in `out`; the status says they may not be
    // all of them.
    return Status::DataLoss("range result is partial: " +
                            std::to_string(lost_buckets) +
                            " overlapping bucket(s) lost to corruption");
  }
  return Status::OK();
}

}  // namespace bmeh
