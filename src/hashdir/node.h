// DirNode: a multidimensional extendible-hashing directory.
//
// MDEH uses one (unbounded) DirNode as its whole directory; the MEH-tree
// and BMEH-tree use one DirNode per tree node with per-dimension depth caps
// xi_j (so a node holds at most 2^phi entries, phi = sum xi_j).
//
// Terminology:
//  * the node's global depths H_j are the depths of its extendible array;
//  * a GROUP is the set of cells whose dimension-j indexes share the first
//    h_j bits for all j, where h is the (common) local-depth vector of the
//    member entries.  All members of a group hold identical entries; a
//    group is the unit that splits and merges.

#ifndef BMEH_HASHDIR_NODE_H_
#define BMEH_HASHDIR_NODE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/bytes.h"
#include "src/encoding/key_schema.h"
#include "src/extarray/extendible_directory.h"
#include "src/hashdir/entry.h"

namespace bmeh {
namespace hashdir {

using extarray::IndexTuple;

/// \brief One extendible directory of entries plus group operations.
class DirNode {
 public:
  explicit DirNode(int dims) : dir_(dims) {
    dir_.at_address(0) = MakeEntry(Ref::Nil(), dims);
  }

  int dims() const { return dir_.dims(); }
  int depth(int j) const { return dir_.depth(j); }
  uint64_t entry_count() const { return dir_.size(); }

  Entry& at(const IndexTuple& t) {
    return dir_.at(std::span<const uint32_t>(t.data(), dims()));
  }
  const Entry& at(const IndexTuple& t) const {
    return dir_.at(std::span<const uint32_t>(t.data(), dims()));
  }
  Entry& at_address(uint64_t addr) { return dir_.at_address(addr); }
  const Entry& at_address(uint64_t addr) const {
    return dir_.at_address(addr);
  }
  uint64_t AddressOf(const IndexTuple& t) const {
    return dir_.AddressOf(std::span<const uint32_t>(t.data(), dims()));
  }

  const extarray::GrowthHistory& history() const { return dir_.history(); }

  /// \brief Doubles dimension `dim` (buddy-initialized, addresses stable).
  void Double(int dim) { dir_.Double(dim); }

  /// \brief Reverses the most recent doubling (must be along `dim`).
  void Halve(int dim) { dir_.Halve(dim); }

  /// \brief True iff the most recent doubling was along `dim` and no entry
  /// still needs depth H_dim (i.e. every entry has h_dim < H_dim), so the
  /// doubling can be reversed.
  bool CanHalve(int dim) const;

  /// \brief Number of cells in the group containing tuple `t`:
  /// 2^(sum_j (H_j - h_j)).
  uint64_t GroupSize(const IndexTuple& t) const;

  /// \brief Invokes fn(tuple) for every cell of the group containing `t`.
  void ForEachInGroup(const IndexTuple& t,
                      const std::function<void(const IndexTuple&)>& fn) const;

  /// \brief Linear addresses of every cell of the group containing `t`.
  std::vector<uint64_t> GroupAddresses(const IndexTuple& t) const;

  /// \brief Splits the group containing `t` along dimension `m`.
  ///
  /// Requires h_m < H_m.  Cells whose (h_m+1)-st dimension-m index bit is 0
  /// point to `left`, the others to `right`; both halves get local depth
  /// h_m + 1 and last-split dimension m.
  void SplitGroup(const IndexTuple& t, int m, Ref left, Ref right);

  /// \brief A member tuple of the buddy group of `t`'s group along
  /// dimension m: the group whose dimension-m prefix differs only in its
  /// last (h_m-th) bit.  Requires h_m >= 1.
  IndexTuple BuddyGroup(const IndexTuple& t, int m) const;

  /// \brief Merges the group of `t` with its dimension-m buddy group:
  /// all cells of both get `merged`, local depth h_m - 1, last-split
  /// dimension rolled back to the previous dimension in the cycle.
  /// Requires both groups to have identical depth vectors.
  void MergeGroup(const IndexTuple& t, int m, Ref merged);

  /// \brief Invokes fn(tuple, entry) once per GROUP (not per cell): the
  /// representative tuple is the group's minimal member.
  void ForEachGroup(
      const std::function<void(const IndexTuple&, const Entry&)>& fn) const;

  /// \brief Sets every cell of `t`'s group to `ref` (depths unchanged).
  /// Used when a NIL region gets its first page (paper's P = NIL branch).
  void SetGroupRef(const IndexTuple& t, Ref ref);

 private:
  extarray::ExtendibleDirectory<Entry> dir_;
};

/// \brief Appends `node` in the tree image's node layout (the checkpoint
/// stream and the frozen image's node pages both use it): the growth
/// history as a u32 doubling count and one u8 dimension per doubling,
/// oldest first, then every entry in address order as
/// [ref kind u8 | ref id u32 | local depth u8 per dimension | split
/// dimension u8].
void EncodeNode(const DirNode& node, ByteWriter* w);

/// \brief Decodes a node written by EncodeNode, checking it against
/// `schema`: every doubling names a dimension below d and stays within
/// that dimension's key width, every ref kind is known, every local depth
/// is within the node's depth and every split dimension is below d.  Ref
/// ids mean different things per image, so the caller checks them.
Result<DirNode> DecodeNode(ByteReader* r, const KeySchema& schema);

}  // namespace hashdir
}  // namespace bmeh

#endif  // BMEH_HASHDIR_NODE_H_
