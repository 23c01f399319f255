#include "src/hashdir/split_util.h"

#include "src/common/bit_util.h"

namespace bmeh {
namespace hashdir {

Status SplitPageGroup(const KeySchema& schema, DirNode* node,
                      const IndexTuple& t, int m,
                      const std::array<uint16_t, kMaxDims>& consumed,
                      PageArena* pages, IoCounter* io) {
  const Entry proto = node->at(t);
  BMEH_CHECK(proto.ref.is_page());
  BMEH_CHECK(proto.h[m] < node->depth(m));

  // Both halves get FRESH page ids and the old id is destroyed (its slot
  // tombstones to null when the split publishes).  Reusing the old id for
  // one half would let a lock-free reader pair a stale pre-split node
  // snapshot — whose entry still routes the whole region to the old id —
  // with the post-split page serving only half the region, and report a
  // present key as not found.  A null slot turns that interleave into a
  // conflict/retry instead, matching the node-split discipline.
  const DataPage* old_page = pages->Get(proto.ref.id);
  const uint32_t left_pid = pages->Create();
  const uint32_t right_pid = pages->Create();
  DataPage* left_page = pages->Mutate(left_pid);
  DataPage* right_page = pages->Mutate(right_pid);

  node->SplitGroup(t, m, Ref::Page(left_pid), Ref::Page(right_pid));
  io->CountDirWrite();

  const int w = schema.width(m);
  const int split_bit = consumed[m] + proto.h[m];
  BMEH_CHECK(split_bit < w) << "split beyond pseudo-key width";
  for (const Record& rec : old_page->records()) {
    const bool high =
        bit_util::BitAt(rec.key.component(m), w, split_bit) == 1;
    BMEH_CHECK_OK((high ? right_page : left_page)->Insert(rec));
  }
  pages->Destroy(proto.ref.id);
  io->CountDataWrite(2);

  // Immediate deletion of empty pages: replace the empty side with NIL.
  auto drop_if_empty = [&](DataPage* page, bool right_half) {
    if (!page->empty()) return;
    IndexTuple half = t;
    const uint64_t bit = bit_util::Pow2(node->depth(m) - (proto.h[m] + 1));
    half[m] = right_half ? static_cast<uint32_t>(t[m] | bit)
                         : static_cast<uint32_t>(t[m] & ~bit);
    node->SetGroupRef(half, Ref::Nil());
    pages->Destroy(page->id());
  };
  drop_if_empty(right_page, /*right_half=*/true);
  drop_if_empty(left_page, /*right_half=*/false);
  return Status::OK();
}

int MergeGroupCascade(NodeArena* nodes, uint32_t node_id, IndexTuple t,
                      PageArena* pages, int page_capacity, IoCounter* io) {
  // Immediate deletion of an emptied page (§2.1) even when no buddy merge
  // is possible.
  auto drop_if_empty = [&]() {
    const Entry e = nodes->Get(node_id)->at(t);
    if (e.ref.is_page() && pages->Get(e.ref.id)->empty()) {
      pages->Destroy(e.ref.id);
      nodes->Mutate(node_id)->SetGroupRef(t, Ref::Nil());
      io->CountDirWrite();
    }
  };
  int merges = 0;
  for (;;) {
    const DirNode* node = nodes->Get(node_id);
    const Entry e = node->at(t);
    if (e.ref.is_node()) return merges;
    // Preferred reversal order is the recorded last-split dimension, but
    // node splits move bits between levels, so any dimension whose buddy
    // group has the same shape is a legal (and necessary) merge.
    int m = -1;
    Entry be;
    for (int tries = 0; tries < node->dims(); ++tries) {
      const int cand = (e.m + node->dims() - tries) % node->dims();
      if (e.h[cand] == 0) continue;
      const Entry cand_be = node->at(node->BuddyGroup(t, cand));
      if (cand_be.h != e.h || cand_be.ref.is_node()) continue;
      if (e.ref.is_page() && cand_be.ref.is_page() &&
          e.ref.id == cand_be.ref.id) {
        continue;
      }
      const int cand_sz =
          e.ref.is_page() ? pages->Get(e.ref.id)->size() : 0;
      const int cand_bsz =
          cand_be.ref.is_page() ? pages->Get(cand_be.ref.id)->size() : 0;
      // Strictly below capacity: merging two halves into an exactly-full
      // page would both thrash (the next insert splits it again) and let
      // an insertion-time tidy pass undo the very split the insertion
      // needs (a full page re-absorbing its empty buddy forever).
      if (cand_sz + cand_bsz >= page_capacity) continue;
      m = cand;
      be = cand_be;
      break;
    }
    if (m < 0) {
      drop_if_empty();
      return merges;
    }

    Ref merged = Ref::Nil();
    if (e.ref.is_page() && be.ref.is_page()) {
      // The source page is destroyed, so it is only read; the target
      // changes only when the source brings records.
      const DataPage* src = pages->Get(be.ref.id);
      io->CountDataRead(2);
      if (!src->empty()) {
        DataPage* target = pages->Mutate(e.ref.id);
        for (const Record& rec : src->records()) {
          BMEH_CHECK_OK(target->Insert(rec));
        }
      }
      pages->Destroy(be.ref.id);
      io->CountDataWrite();
      merged = e.ref;
    } else if (e.ref.is_page()) {
      merged = e.ref;
    } else if (be.ref.is_page()) {
      merged = be.ref;
    }
    if (merged.is_page() && pages->Get(merged.id)->empty()) {
      pages->Destroy(merged.id);
      merged = Ref::Nil();
    }
    nodes->Mutate(node_id)->MergeGroup(t, m, merged);
    io->CountDirWrite();
    ++merges;
  }
}

int HalveNodeCascade(NodeArena* nodes, uint32_t node_id, IndexTuple* t,
                     IoCounter* io) {
  int halvings = 0;
  for (;;) {
    const DirNode* node = nodes->Get(node_id);
    const int dim = node->history().last_event_dim();
    if (dim < 0 || !node->CanHalve(dim)) return halvings;
    nodes->Mutate(node_id)->Halve(dim);
    (*t)[dim] >>= 1;
    io->CountDirWrite();
    ++halvings;
  }
}

}  // namespace hashdir
}  // namespace bmeh
