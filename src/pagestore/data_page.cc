#include "src/pagestore/data_page.h"

#include <algorithm>

namespace bmeh {

DataPage::DataPage(const DataPage& other)
    : id_(other.id_), capacity_(other.capacity_) {
  records_.reserve(
      std::min(other.records_.size() + 1, static_cast<size_t>(capacity_)));
  records_.assign(other.records_.begin(), other.records_.end());
}

void DataPage::Append(const Record& rec) {
  if (records_.size() == records_.capacity()) {
    records_.reserve(std::min(std::max<size_t>(2 * records_.size(), 1),
                              static_cast<size_t>(capacity_)));
  }
  records_.push_back(rec);
}

int DataPage::Find(const PseudoKey& key) const {
  for (int i = 0; i < size(); ++i) {
    if (records_[i].key == key) return i;
  }
  return -1;
}

Status DataPage::Insert(const Record& rec) {
  if (Contains(rec.key)) {
    return Status::AlreadyExists("key " + rec.key.ToString() +
                                 " already in page " + std::to_string(id_));
  }
  if (full()) {
    return Status::CapacityError("page " + std::to_string(id_) + " is full");
  }
  Append(rec);
  return Status::OK();
}

Status DataPage::Remove(const PseudoKey& key) {
  int i = Find(key);
  if (i < 0) {
    return Status::KeyError("key " + key.ToString() + " not in page " +
                            std::to_string(id_));
  }
  records_[i] = records_.back();
  records_.pop_back();
  return Status::OK();
}

std::optional<uint64_t> DataPage::Lookup(const PseudoKey& key) const {
  int i = Find(key);
  if (i < 0) return std::nullopt;
  return records_[i].payload;
}

void DataPage::Partition(const std::function<bool(const Record&)>& goes_right,
                         DataPage* right) {
  size_t w = 0;
  for (size_t r = 0; r < records_.size(); ++r) {
    if (goes_right(records_[r])) {
      BMEH_CHECK(!right->full()) << "partition target overflow";
      right->Append(records_[r]);
    } else {
      records_[w++] = records_[r];
    }
  }
  records_.resize(w);
}

void DataPage::Serialize(ByteWriter* w) const {
  w->U32(static_cast<uint32_t>(records_.size()));
  for (const Record& rec : records_) {
    for (int j = 0; j < rec.key.dims(); ++j) w->U32(rec.key.component(j));
    w->U64(rec.payload);
  }
}

Result<DataPage> DataPage::Deserialize(ByteReader* r, PageId id, int capacity,
                                       const KeySchema& schema) {
  BMEH_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > static_cast<uint32_t>(capacity)) {
    return Status::Corruption("data page record count " + std::to_string(n) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  DataPage page(id, capacity);
  const int d = schema.dims();
  for (uint32_t i = 0; i < n; ++i) {
    std::array<uint32_t, kMaxDims> comps{};
    for (int j = 0; j < d; ++j) {
      BMEH_ASSIGN_OR_RETURN(comps[j], r->U32());
    }
    Record rec;
    rec.key = PseudoKey(std::span<const uint32_t>(comps.data(), d));
    BMEH_ASSIGN_OR_RETURN(rec.payload, r->U64());
    if (!schema.Validate(rec.key).ok()) {
      return Status::Corruption("record key outside schema domain");
    }
    if (page.Contains(rec.key)) {
      return Status::Corruption("duplicate record key in page image");
    }
    page.records_.push_back(rec);
  }
  return page;
}

}  // namespace bmeh
