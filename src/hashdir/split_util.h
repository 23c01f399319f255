// Page-group split and merge primitives shared by the tree schemes.

#ifndef BMEH_HASHDIR_SPLIT_UTIL_H_
#define BMEH_HASHDIR_SPLIT_UTIL_H_

#include <array>

#include "src/common/status.h"
#include "src/encoding/key_schema.h"
#include "src/hashdir/arena.h"
#include "src/hashdir/node.h"
#include "src/pagestore/io_stats.h"

namespace bmeh {
namespace hashdir {

/// \brief Splits the data page owned by `t`'s group along dimension `m`.
///
/// Requires the group's entry to reference a page and h_m < node depth H_m.
/// Allocates a sibling page, repartitions the records by the key bit at
/// absolute offset consumed[m] + h_m, and drops whichever side ends up
/// empty (immediate deletion of empty pages, §2.1).  Charges one directory
/// write (the node is one block) and two data-page writes.
Status SplitPageGroup(const KeySchema& schema, DirNode* node,
                      const IndexTuple& t, int m,
                      const std::array<uint16_t, kMaxDims>& consumed,
                      PageArena* pages, IoCounter* io);

/// \brief Repeatedly merges `t`'s group in node `node_id` with its
/// last-split buddy while their combined records fit in one page (reversal
/// of page splitting).  Stops at node-pointer children.  Reads the node and
/// the pages through `Get` and `Mutate`s only what a merge or an
/// emptied-page drop changes.  Returns the number of merges.
int MergeGroupCascade(NodeArena* nodes, uint32_t node_id, IndexTuple t,
                      PageArena* pages, int page_capacity, IoCounter* io);

/// \brief Reverses node doublings no entry of node `node_id` needs any
/// more; adjusts `t` so it keeps addressing the same region.  `Mutate`s the
/// node only when it halves.  Returns the number of halvings.
int HalveNodeCascade(NodeArena* nodes, uint32_t node_id, IndexTuple* t,
                     IoCounter* io);

}  // namespace hashdir
}  // namespace bmeh

#endif  // BMEH_HASHDIR_SPLIT_UTIL_H_
