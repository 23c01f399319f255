#include "src/hashdir/node.h"

#include "src/common/bit_util.h"

namespace bmeh {
namespace hashdir {

namespace {

/// Free (unconstrained) bit count of dimension j for entry e in a node of
/// depth H_j.
int FreeBits(const DirNode& node, const Entry& e, int j) {
  int f = node.depth(j) - e.h[j];
  BMEH_DCHECK(f >= 0) << "local depth exceeds node depth";
  return f;
}

}  // namespace

bool DirNode::CanHalve(int dim) const {
  const auto& hist = history();
  if (hist.event_count() == 0) return false;
  if (depth(dim) == 0) return false;
  // Extendible arrays shrink by reversing their most recent doubling.
  if (hist.last_event_dim() != dim) return false;
  // The doubling is reversible only if no entry still uses bit H_dim.
  for (uint64_t a = 0; a < entry_count(); ++a) {
    if (at_address(a).h[dim] >= depth(dim)) return false;
  }
  return true;
}

uint64_t DirNode::GroupSize(const IndexTuple& t) const {
  const Entry& e = at(t);
  uint64_t n = 1;
  for (int j = 0; j < dims(); ++j) {
    n <<= FreeBits(*this, e, j);
  }
  return n;
}

void DirNode::ForEachInGroup(
    const IndexTuple& t,
    const std::function<void(const IndexTuple&)>& fn) const {
  const Entry& e = at(t);
  std::array<int, kMaxDims> free{};
  IndexTuple base{};
  for (int j = 0; j < dims(); ++j) {
    free[j] = FreeBits(*this, e, j);
    // Clear the free (low) bits of t to get the group's minimal member.
    base[j] = (t[j] >> free[j]) << free[j];
  }
  for (extarray::TupleOdometer od(std::span<const int>(free.data(), dims()));
       !od.done(); od.Next()) {
    IndexTuple member = base;
    for (int j = 0; j < dims(); ++j) member[j] |= od.tuple()[j];
    fn(member);
  }
}

std::vector<uint64_t> DirNode::GroupAddresses(const IndexTuple& t) const {
  std::vector<uint64_t> out;
  out.reserve(GroupSize(t));
  ForEachInGroup(t, [&](const IndexTuple& m) { out.push_back(AddressOf(m)); });
  return out;
}

void DirNode::SplitGroup(const IndexTuple& t, int m, Ref left, Ref right) {
  const Entry proto = at(t);
  const int H_m = depth(m);
  BMEH_CHECK(proto.h[m] < H_m)
      << "SplitGroup along dim " << m << " needs depth " << proto.h[m] + 1
      << " > node depth " << H_m;
  // The new distinguishing bit is bit h_m (0-based from the MSB) of the
  // H_m-bit dimension-m index.
  const int shift = H_m - proto.h[m] - 1;
  ForEachInGroup(t, [&](const IndexTuple& member) {
    Entry& e = at(member);
    BMEH_DCHECK(e.SameShape(proto, dims()))
        << "group member mismatch at split";
    e.ref = ((member[m] >> shift) & 1) ? right : left;
    e.h[m] = static_cast<uint8_t>(proto.h[m] + 1);
    e.m = static_cast<uint8_t>(m);
  });
}

IndexTuple DirNode::BuddyGroup(const IndexTuple& t, int m) const {
  const Entry& e = at(t);
  BMEH_CHECK(e.h[m] >= 1) << "group has no dimension-" << m << " buddy";
  IndexTuple buddy = t;
  // Flip bit h_m - 1 (0-based from MSB) of the H_m-bit index.
  buddy[m] ^= static_cast<uint32_t>(bit_util::Pow2(depth(m) - e.h[m]));
  return buddy;
}

void DirNode::MergeGroup(const IndexTuple& t, int m, Ref merged) {
  const Entry proto = at(t);
  BMEH_CHECK(proto.h[m] >= 1);
  IndexTuple buddy = BuddyGroup(t, m);
  const Entry buddy_proto = at(buddy);
  for (int j = 0; j < dims(); ++j) {
    BMEH_CHECK(proto.h[j] == buddy_proto.h[j])
        << "buddy groups must have identical depth vectors to merge";
  }
  const uint8_t new_h = static_cast<uint8_t>(proto.h[m] - 1);
  const uint8_t new_m =
      static_cast<uint8_t>((m - 1 + dims()) % dims());
  auto apply = [&](const IndexTuple& member) {
    Entry& e = at(member);
    e.ref = merged;
    e.h[m] = new_h;
    e.m = new_m;
  };
  ForEachInGroup(t, apply);
  ForEachInGroup(buddy, apply);
}

void DirNode::ForEachGroup(
    const std::function<void(const IndexTuple&, const Entry&)>& fn) const {
  std::array<int, kMaxDims> depths{};
  for (int j = 0; j < dims(); ++j) depths[j] = depth(j);
  for (extarray::TupleOdometer od(std::span<const int>(depths.data(), dims()));
       !od.done(); od.Next()) {
    const IndexTuple& t = od.tuple();
    const Entry& e = at(t);
    bool representative = true;
    for (int j = 0; j < dims() && representative; ++j) {
      int f = FreeBits(*this, e, j);
      if (f > 0 && (t[j] & (bit_util::Pow2(f) - 1)) != 0) {
        representative = false;
      }
    }
    if (representative) fn(t, e);
  }
}

void DirNode::SetGroupRef(const IndexTuple& t, Ref ref) {
  ForEachInGroup(t, [&](const IndexTuple& member) { at(member).ref = ref; });
}

void EncodeNode(const DirNode& node, ByteWriter* w) {
  const auto& hist = node.history();
  w->U32(static_cast<uint32_t>(hist.event_count()));
  for (int i = 0; i < hist.event_count(); ++i) {
    w->U8(static_cast<uint8_t>(hist.event_dim(i)));
  }
  for (uint64_t a = 0; a < node.entry_count(); ++a) {
    const Entry& e = node.at_address(a);
    w->U8(static_cast<uint8_t>(e.ref.kind));
    w->U32(e.ref.id);
    for (int j = 0; j < node.dims(); ++j) w->U8(e.h[j]);
    w->U8(e.m);
  }
}

Result<DirNode> DecodeNode(ByteReader* r, const KeySchema& schema) {
  const int d = schema.dims();
  DirNode node(d);
  BMEH_ASSIGN_OR_RETURN(uint32_t n_events, r->U32());
  if (n_events > 32u * kMaxDims) {
    return Status::Corruption("bad node event count");
  }
  for (uint32_t i = 0; i < n_events; ++i) {
    BMEH_ASSIGN_OR_RETURN(uint8_t dim, r->U8());
    if (dim >= d) return Status::Corruption("bad doubling dimension");
    if (node.depth(dim) >= schema.width(dim)) {
      return Status::Corruption("node deeper than key width");
    }
    node.Double(dim);
  }
  for (uint64_t a = 0; a < node.entry_count(); ++a) {
    Entry e;
    BMEH_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
    if (kind > static_cast<uint8_t>(RefKind::kNode)) {
      return Status::Corruption("bad ref kind");
    }
    e.ref.kind = static_cast<RefKind>(kind);
    BMEH_ASSIGN_OR_RETURN(e.ref.id, r->U32());
    for (int j = 0; j < d; ++j) {
      BMEH_ASSIGN_OR_RETURN(e.h[j], r->U8());
      if (e.h[j] > node.depth(j)) {
        return Status::Corruption("entry local depth exceeds node depth");
      }
    }
    BMEH_ASSIGN_OR_RETURN(e.m, r->U8());
    if (e.m >= d) return Status::Corruption("bad entry split dimension");
    node.at_address(a) = e;
  }
  return node;
}

}  // namespace hashdir
}  // namespace bmeh
