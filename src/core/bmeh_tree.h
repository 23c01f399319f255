// BMEH-tree: the Balanced Multidimensional Extendible Hash Tree — the
// paper's contribution (§3, §4).
//
// The directory is a completely height-balanced tree of fixed-capacity
// extendible-hash nodes (depth caps xi_j per dimension, at most
// 2^phi entries per node).  It grows like a B-tree / K-D-B-tree, *toward
// the root*: when a node has reached its cap along the split dimension, it
// splits in two by its leading index bit of that dimension and pushes one
// bit of addressing up into its parent; when the root splits, a new root
// is created and every path gets one level deeper.  Unlike any of its
// contemporaries, the per-entry local depths stored in the directory
// determine how many key bits each descent step strips, so the same node
// machinery serves every level.
//
// Guarantees reproduced here (and checked by tests / benches):
//  * exact-match cost l + 1 accesses with the root pinned — at most 3 disk
//    accesses for directories up to 2^27 entries with phi = 9 (§3.1);
//  * worst-case node splits per insertion l(l-1)phi/2 + l (Theorem 2);
//  * worst-case directory accesses per insertion O(phi * l^2) (Theorem 3);
//  * partial-range retrieval in O(l * n_R) accesses (Theorem 4);
//  * near-linear directory growth under uniform *and* skewed keys (§5).

#ifndef BMEH_CORE_BMEH_TREE_H_
#define BMEH_CORE_BMEH_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/epoch.h"
#include "src/hashdir/arena.h"
#include "src/hashdir/descent.h"
#include "src/hashdir/multikey_index.h"
#include "src/hashdir/range_walk.h"
#include "src/hashdir/tree_options.h"
#include "src/pagestore/page_store.h"

namespace bmeh {

/// \brief Occupancy of one directory level (root = level 0).
struct BmehLevelStats {
  uint64_t nodes = 0;
  uint64_t entries_used = 0;  ///< Sum of 2^(sum H_j) over the level's nodes.
  uint64_t groups = 0;        ///< Distinct entry groups.
  uint64_t nil_groups = 0;    ///< Groups with no child (empty regions).
};

/// \brief What a tolerant image load (LoadFromTolerant) found.
struct TreeLoadReport {
  /// OK when the walk reached the chain's terminator.  Otherwise why it
  /// stopped (see BmehTree::WalkImageChain): DataLoss for a chain page
  /// that failed the store's checksum verification, another read error,
  /// or Corruption for structural garbage.
  Status chain;
  /// The directory itself could not be reconstructed — nothing salvaged.
  bool directory_lost = false;
  /// Buckets referenced by the directory whose records were lost.
  uint64_t quarantined_pages = 0;
  /// Record count the image header declared (includes lost records).
  uint64_t records_declared = 0;
  /// Chain pages successfully read, in chain order (the reachable part).
  std::vector<PageId> chain_pages;
};

/// \brief Mutation counters exposed for the Theorem 2/3 experiments.
struct BmehMutationStats {
  uint64_t page_splits = 0;
  uint64_t node_doublings = 0;
  uint64_t node_splits = 0;      ///< Balanced splits by leading bit.
  uint64_t forced_splits = 0;    ///< Children force-split by a node split.
  uint64_t new_roots = 0;
  uint64_t page_merges = 0;
  uint64_t node_halvings = 0;
  uint64_t node_merges = 0;
  uint64_t root_collapses = 0;
};

/// \brief The balanced multidimensional extendible hash tree.
class BmehTree : public MultiKeyIndex {
 public:
  BmehTree(const KeySchema& schema, const TreeOptions& options);

  const KeySchema& schema() const override { return schema_; }
  int page_capacity() const override { return options_.page_capacity; }

  Status Insert(const PseudoKey& key, uint64_t payload) override;

  /// \brief Loads a batch of records into an empty tree.
  ///
  /// The records are inserted in bit-interleaved (z-order) key sequence,
  /// which makes consecutive insertions hit the same directory path and
  /// data page, so a build touches each page O(1) amortized times instead
  /// of revisiting pages randomly.  The resulting structure is identical
  /// in shape to (and validates like) an incrementally built tree.
  /// Fails with Invalid if the tree is not empty, and AlreadyExists if
  /// the batch contains duplicate keys.
  Status BulkLoad(std::vector<Record> records);
  Result<uint64_t> Search(const PseudoKey& key) override;
  Status Delete(const PseudoKey& key) override;
  Status RangeSearch(const RangePredicate& pred,
                     std::vector<Record>* out) override;
  IndexStructureStats Stats() const override;
  Status Validate() const override;
  std::string name() const override { return "BMEH-tree"; }

  /// \brief Range search that also adds the walk's traversal statistics
  /// (n_R, pages visited, ... — the quantities of Theorem 4) to `stats`.
  ///
  /// Search, RangeSearch and RangeSearchWithStats run the lock-free walks
  /// below once.  On a quiescent tree those cannot conflict, except on a
  /// broken structure, which they report as Corruption.
  Status RangeSearchWithStats(const RangePredicate& pred,
                              std::vector<Record>* out,
                              hashdir::RangeWalkStats* stats);

  /// \brief Invokes `fn` for every stored record, in no particular order.
  /// Charges one data read per page.  `fn` must not mutate the tree.
  void Scan(const std::function<void(const Record&)>& fn);

  /// \brief Per-level directory occupancy, root first; size() == height().
  std::vector<BmehLevelStats> DescribeLevels() const;

  /// \brief Histogram of data-page fill: hist[i] = number of pages holding
  /// exactly i records, for i in [0, b].
  std::vector<uint64_t> PageFillHistogram() const;

  /// \brief Number of directory levels l (all root-to-page paths are equal
  /// by construction).
  int height() const { return levels_; }

  uint64_t node_count() const { return nodes_.live_count(); }
  uint32_t root_id() const { return root_id_; }
  const hashdir::NodeArena& nodes() const { return nodes_; }
  const hashdir::PageArena& data_pages() const { return pages_; }
  const TreeOptions& options() const { return options_; }
  const BmehMutationStats& mutation_stats() const { return mutations_; }
  void ResetMutationStats() { mutations_ = BmehMutationStats{}; }

  /// \brief Charges the total structural-change time of each insertion
  /// that had to split (the whole cascade: page split, node splits,
  /// doublings, new roots) into `hist`, one sample per such insertion.
  /// Null (the default) disables the clock entirely.
  void set_split_latency_histogram(obs::Histogram* hist) {
    split_latency_ = hist;
  }

  /// \brief Serializes the whole tree into `store` as a checkpoint image:
  /// one byte stream over a chain of pages (serialize.cc).  Returns the
  /// id of the chain's first page; `pages` (optional) receives every page
  /// of the chain in chain order, so the owner can free the image later
  /// without reading it.
  Result<PageId> SaveTo(PageStore* store,
                        std::vector<PageId>* pages = nullptr);

  /// \brief Reconstructs a tree previously written by SaveTo.  `pages`
  /// (optional) receives the chain's pages in chain order.
  static Result<std::unique_ptr<BmehTree>> LoadFrom(
      PageStore* store, PageId head, std::vector<PageId>* pages = nullptr);

  /// \brief Like LoadFrom, but survives a chain cut short by corruption:
  /// the parseable prefix is reconstructed, and every bucket whose records
  /// fell past the cut becomes an empty quarantined placeholder (see
  /// degraded()).  Fails only when the directory itself cannot be
  /// rebuilt (report->directory_lost) or the image is garbage despite an
  /// intact chain.  `report` must be non-null.
  static Result<std::unique_ptr<BmehTree>> LoadFromTolerant(
      PageStore* store, PageId head, TreeLoadReport* report);

  /// \brief True when some buckets were lost to corruption: lookups that
  /// land on one fail with DataLoss, range searches return partial
  /// results plus DataLoss, and SaveTo refuses (a checkpoint would
  /// launder the loss into a clean-looking image).
  bool degraded() const { return !quarantined_.empty(); }

  /// \brief Arena ids of the quarantined (lost) buckets.
  const std::unordered_set<uint32_t>& quarantined_pages() const {
    return quarantined_;
  }

  /// \brief Follows the image chain at `head` to its terminator — the one
  /// reader of the chain's links, run once per image by the loaders and
  /// by scrub.  Appends every page read to `pages` and, when `payload` is
  /// non-null, that page's payload bytes to `payload`.  Returns OK at the
  /// terminator; otherwise why the walk stopped, with `pages` holding the
  /// pages before the stop: the failed read's status (DataLoss for a
  /// verified-corrupt page), or Corruption for a cycle or, when
  /// collecting payload, a length past the page.
  static Status WalkImageChain(PageStore* store, PageId head,
                               std::vector<PageId>* pages,
                               std::vector<uint8_t>* payload);

  /// \brief Graphviz dot rendering of the directory (for small trees).
  std::string ToDot() const;

  // --- Optimistic (lock-free) read path --------------------------------
  //
  // Once enabled, every mutation runs as a copy-on-write transaction that
  // publishes its touched nodes/pages atomically (see arena.h) and the
  // methods below may run concurrently with one mutator without any lock.
  // Replaced objects are retired through `mgr` so readers never touch
  // freed memory.

  /// \brief Enables concurrent reads.  Must be called while the tree is
  /// quiescent (no concurrent readers or writers); irreversible.
  void EnableConcurrentReads(epoch::EpochManager* mgr);
  bool concurrent_reads_enabled() const { return epoch_ != nullptr; }

  /// \brief The exact-match walk.  On a version conflict sets *conflict
  /// and returns Corruption, which a reader beside a live mutator discards
  /// and retries with backoff.  Beside a mutator it must run under an
  /// epoch::Guard; with mutators excluded it needs none.
  Result<uint64_t> SearchOptimistic(const PseudoKey& key, bool* conflict);

  /// \brief The range walk; same conflict and guard contract.  On
  /// conflict, `out` is restored to its input size.  `stats` (optional)
  /// receives the walk's Theorem 4 counts as in RangeSearchWithStats.
  Status RangeSearchOptimistic(const RangePredicate& pred,
                               std::vector<Record>* out, bool* conflict,
                               hashdir::RangeWalkStats* stats = nullptr);

  /// \brief Publication sequence: odd while a commit is publishing.
  uint64_t publication_seq() const {
    return pub_seq_.load(std::memory_order_acquire);
  }

  /// \brief Test hook invoked mid-commit, while the publication sequence
  /// is odd (to provoke deterministic reader conflicts).
  void SetCommitHookForTesting(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// \brief Test hook invoked between the page-slot and node-slot
  /// publishes — the exact window where new pages are visible but the
  /// directory still routes through pre-commit nodes.
  void SetMidPublishHookForTesting(std::function<void()> hook) {
    mid_publish_hook_ = std::move(hook);
  }

 private:
  friend class BmehValidator;

  /// RAII copy-on-write transaction bracket for one mutation (no-op until
  /// EnableConcurrentReads).
  class MutationScope {
   public:
    explicit MutationScope(BmehTree* t)
        : tree_(t), active_(t->epoch_ != nullptr) {
      if (active_) {
        t->nodes_.BeginScope();
        t->pages_.BeginScope();
      }
    }
    ~MutationScope() {
      if (active_) tree_->CommitMutation();
    }
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;

   private:
    BmehTree* tree_;
    bool active_;
  };

  /// Publishes the open arena scopes under the tree's sequence lock and
  /// retires replaced objects to the epoch manager.
  void CommitMutation();

  /// Points the tree at root `id`.  Without concurrent reads the read
  /// walks see it at once; with them, CommitMutation publishes it.
  void SetRoot(uint32_t id);

  /// Insert body; the caller owns the MutationScope bracket (Insert opens
  /// one per record, BulkLoad one for the whole batch).
  Status InsertUnscoped(const PseudoKey& key, uint64_t payload);

  /// Shared body of LoadFrom / LoadFromTolerant: walks the chain once,
  /// filling `report`; a strict (non-tolerant) load fails on any cut.
  static Result<std::unique_ptr<BmehTree>> LoadImpl(PageStore* store,
                                                    PageId head,
                                                    bool tolerant,
                                                    TreeLoadReport* report);

  /// One structural change toward making room at the leaf; caller retries.
  Status SplitLeafOnce(const std::vector<hashdir::PathStep>& path);

  /// Splits the node at `path[level]` along dimension m by its leading
  /// dimension-m index bit, growing the parent (or recursing / creating a
  /// new root).  Performs at most one structural change per call.
  Status SplitNodeAt(const std::vector<hashdir::PathStep>& path, size_t level,
                     int m);

  /// Splits node `node_id` into (left, right) halves by its leading
  /// dimension-m bit; `consumed` are the bits consumed above the node.
  /// Force-splits spanning children recursively.  Destroys the input node.
  Result<std::pair<uint32_t, uint32_t>> SplitNodeByLeadingBit(
      uint32_t node_id, int m,
      const std::array<uint16_t, kMaxDims>& consumed);

  /// Read-only pre-flight for SplitNodeByLeadingBit: the number of
  /// directory-node splits the whole cascade would perform (this node
  /// plus, recursively, every spanning child node that will be
  /// force-split).  Lets SplitNodeAt check the node cap for the entire
  /// cascade *before* the first structural change, so a cap hit can never
  /// strand a half-split subtree.
  uint64_t CountBalancedSplitNodes(uint32_t node_id, int m) const;

  /// Splits a child (page or node) by the absolute dimension-m key bit at
  /// offset consumed[m] — the normalization step for spanning groups.
  Result<std::pair<hashdir::Ref, hashdir::Ref>> ForceSplitChild(
      hashdir::Ref child, int m,
      const std::array<uint16_t, kMaxDims>& consumed);

  /// Builds `dst` with the same extendible shape as `src`, skipping the
  /// first doubling of `skip_dim` (or none when skip_dim < 0).
  void ReplayShape(const hashdir::DirNode& src, int skip_dim,
                   hashdir::DirNode* dst);

  /// Merges the two sibling nodes of `t`'s group in node `parent_id` back
  /// into one (reverse of a node split).  Returns true when a merge
  /// happened; only then is the parent Mutated.
  bool TryMergeNodeGroups(uint32_t parent_id, const hashdir::IndexTuple& t);

  /// Sweeps every group of a node, merging page buddies and sibling-node
  /// pairs until nothing changes, then reverses unneeded doublings.
  /// Recursively applied to nodes produced by merges, and to force-split
  /// clones (which no deletion path would otherwise ever visit).
  void TidyNode(uint32_t node_id);

  /// Bottom-up cleanup after a deletion.
  void MergeAfterDelete(const std::vector<hashdir::PathStep>& path);

  /// Replaces the root by its only child while trivially collapsible.
  void CollapseRoot();

  KeySchema schema_;
  TreeOptions options_;
  hashdir::NodeArena nodes_;
  hashdir::PageArena pages_;
  uint32_t root_id_;
  uint64_t records_ = 0;
  int levels_ = 1;
  BmehMutationStats mutations_;
  obs::Histogram* split_latency_ = nullptr;

  // Optimistic read plane.  The read walks start from published_root_,
  // never from root_id_ (which a mutation updates mid-flight).
  epoch::EpochManager* epoch_ = nullptr;
  std::atomic<uint64_t> pub_seq_{0};
  std::atomic<uint32_t> published_root_{0};
  std::function<void()> commit_hook_;
  std::function<void()> mid_publish_hook_;
  /// Buckets that exist in the directory but whose records were lost to
  /// on-disk corruption (empty placeholder pages in pages_).  Only ever
  /// populated by LoadFromTolerant; an empty set means a healthy tree.
  std::unordered_set<uint32_t> quarantined_;
};

}  // namespace bmeh

#endif  // BMEH_CORE_BMEH_TREE_H_
