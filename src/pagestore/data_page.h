// DataPage: a bucket of at most b records.
//
// The paper's data pages hold up to b records; pages split when the
// (b+1)-st record arrives.  The experiments treat a data page as one disk
// block regardless of b (b is the paper's independent variable).  DataPage
// also owns the tree image's page codec, which the checkpoint stream and
// the frozen image both write.

#ifndef BMEH_PAGESTORE_DATA_PAGE_H_
#define BMEH_PAGESTORE_DATA_PAGE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/encoding/key_schema.h"
#include "src/encoding/pseudo_key.h"
#include "src/pagestore/page.h"

namespace bmeh {

/// \brief A stored record: pseudo-key plus opaque payload (e.g. a RID).
struct Record {
  PseudoKey key;
  uint64_t payload = 0;

  bool operator==(const Record& other) const {
    return key == other.key && payload == other.payload;
  }
};

/// \brief In-memory data page of capacity b.
class DataPage {
 public:
  DataPage(PageId id, int capacity) : id_(id), capacity_(capacity) {
    BMEH_DCHECK(capacity >= 1);
    records_.reserve(capacity);
  }

  /// \brief Copies the records into storage for one more record (at most
  /// b): a copy-on-write clone is made to take one change, and a plain
  /// vector copy would leave no room, so the next insert would double the
  /// storage past b.
  DataPage(const DataPage& other);
  DataPage& operator=(const DataPage&) = delete;
  DataPage(DataPage&&) = default;
  DataPage& operator=(DataPage&&) = default;

  PageId id() const { return id_; }
  int capacity() const { return capacity_; }
  int size() const { return static_cast<int>(records_.size()); }
  bool full() const { return size() >= capacity_; }
  bool empty() const { return records_.empty(); }

  const std::vector<Record>& records() const { return records_; }

  /// \brief Index of the record with `key`, or -1.
  int Find(const PseudoKey& key) const;

  bool Contains(const PseudoKey& key) const { return Find(key) >= 0; }

  /// \brief Inserts a record.  Fails with AlreadyExists on a duplicate key
  /// and CapacityError when the page is full.
  Status Insert(const Record& rec);

  /// \brief Removes the record with `key`; KeyError if absent.
  Status Remove(const PseudoKey& key);

  /// \brief Payload of the record with `key`, if present.
  std::optional<uint64_t> Lookup(const PseudoKey& key) const;

  /// \brief Moves every record for which `goes_right` is true into `right`.
  /// Used by page splits; `right` must have enough free capacity.
  void Partition(const std::function<bool(const Record&)>& goes_right,
                 DataPage* right);

  /// \brief Removes all records.
  void Clear() { records_.clear(); }

  /// \brief Appends the page in the tree image's page layout: a u32
  /// record count, then per record its key components (u32 each) and its
  /// u64 payload.
  void Serialize(ByteWriter* w) const;

  /// \brief Decodes a page written by Serialize, checking that it holds
  /// at most `capacity` records, every key inside `schema` and no key
  /// twice.
  static Result<DataPage> Deserialize(ByteReader* r, PageId id, int capacity,
                                      const KeySchema& schema);

 private:
  /// Appends to a non-full page, growing the storage at most to b.
  void Append(const Record& rec);

  PageId id_;
  int capacity_;
  std::vector<Record> records_;
};

}  // namespace bmeh

#endif  // BMEH_PAGESTORE_DATA_PAGE_H_
