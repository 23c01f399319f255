// FrozenBmehTree: a read-only, physically paged image of a BMEH-tree.
//
// The checkpoint image (SaveTo/LoadFrom, serialize.cc) streams the whole
// tree through a page chain — good for checkpoints, useless for
// page-at-a-time access.  A *frozen* tree instead gives every directory
// node and every data page its own store page: a type byte, then the
// object in the codec the checkpoint stream uses too (EncodeNode,
// DataPage::Serialize), with child references translated to store page
// ids at freeze time.  Nothing persists a frozen image across builds.
// Queries then run directly against the PageStore through a BufferPool:
// every directory probe and page fetch is a real page read, so the
// paper's logical disk-access model (lambda = height with the root
// pinned, Theorem 4's O(l * n_R) ranges) can be validated against
// physical I/O counts — see bench/physical_io.cc and
// tests/frozen_tree_test.cc.

#ifndef BMEH_STORE_FROZEN_TREE_H_
#define BMEH_STORE_FROZEN_TREE_H_

#include <memory>
#include <vector>

#include "src/core/bmeh_tree.h"
#include "src/pagestore/buffer_pool.h"
#include "src/pagestore/page_store.h"

namespace bmeh {

/// \brief Read-only paged view of a frozen BMEH-tree.
class FrozenBmehTree {
 public:
  /// \brief Writes `tree` into `store`, one page per directory node and
  /// data page.  Returns the id of the metadata page.
  static Result<PageId> Freeze(const BmehTree& tree, PageStore* store);

  /// \brief Opens a frozen image.  `pool_pages` is the buffer-pool
  /// capacity in frames; the root node is fetched once and pinned, per
  /// the paper's convention.
  static Result<std::unique_ptr<FrozenBmehTree>> Open(PageStore* store,
                                                      PageId meta,
                                                      int pool_pages);

  /// \brief Exact-match search, reading pages through the buffer pool.
  Result<uint64_t> Search(const PseudoKey& key);

  /// \brief Partial-range query.
  Status RangeSearch(const RangePredicate& pred, std::vector<Record>* out);

  const KeySchema& schema() const { return schema_; }
  int height() const { return levels_; }
  uint64_t records() const { return records_; }
  int page_capacity() const { return page_capacity_; }

  /// \brief Physical page reads issued to the store since Open (buffer
  /// pool misses; hits served from memory are not disk accesses).
  uint64_t physical_reads() const {
    return store_->stats().reads - base_reads_;
  }
  uint64_t pool_hits() const { return pool_->hits(); }
  uint64_t pool_misses() const { return pool_->misses(); }

  /// \brief The underlying buffer pool, e.g. to AttachMetrics so the
  /// physical-I/O experiments export `bufferpool_*` alongside the logical
  /// model's counters.
  BufferPool* mutable_pool() { return pool_.get(); }

 private:
  FrozenBmehTree(PageStore* store, const KeySchema& schema,
                 int page_capacity, int levels, uint64_t records,
                 PageId root_page, int pool_pages);

  /// Fetches and decodes the directory node stored at `page`.
  Result<hashdir::DirNode> FetchNode(PageId page);
  /// Fetches and decodes the data page stored at `page`.
  Result<DataPage> FetchDataPage(PageId page);

  PageStore* store_;
  KeySchema schema_;
  int page_capacity_;
  int levels_;
  uint64_t records_;
  PageId root_page_;
  std::unique_ptr<BufferPool> pool_;
  // The root node, decoded once and pinned in memory.
  std::unique_ptr<hashdir::DirNode> root_;
  uint64_t base_reads_ = 0;
};

}  // namespace bmeh

#endif  // BMEH_STORE_FROZEN_TREE_H_
