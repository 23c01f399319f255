#include "src/pagestore/data_page.h"

#include <algorithm>
#include <cstring>

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

int DataPage::SerializedSize(int capacity, int dims) {
  // count (4) + capacity * (dims * 4 key bytes + 8 payload bytes)
  return 4 + capacity * (dims * 4 + 8);
}

void DataPage::Serialize(int dims, std::span<uint8_t> out) const {
  BMEH_CHECK(out.size() >=
             static_cast<size_t>(SerializedSize(capacity_, dims)));
  uint8_t* p = out.data();
  uint32_t n = static_cast<uint32_t>(records_.size());
  std::memcpy(p, &n, 4);
  p += 4;
  for (const Record& rec : records_) {
    BMEH_DCHECK(rec.key.dims() == dims);
    for (int j = 0; j < dims; ++j) {
      uint32_t c = rec.key.component(j);
      std::memcpy(p, &c, 4);
      p += 4;
    }
    std::memcpy(p, &rec.payload, 8);
    p += 8;
  }
}

Result<DataPage> DataPage::Deserialize(PageId id, int capacity, int dims,
                                       std::span<const uint8_t> in) {
  if (in.size() < static_cast<size_t>(SerializedSize(capacity, dims))) {
    return Status::Corruption("data page buffer too small");
  }
  const uint8_t* p = in.data();
  uint32_t n;
  std::memcpy(&n, p, 4);
  p += 4;
  if (n > static_cast<uint32_t>(capacity)) {
    return Status::Corruption("data page record count " + std::to_string(n) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  DataPage page(id, capacity);
  for (uint32_t i = 0; i < n; ++i) {
    std::array<uint32_t, kMaxDims> comps{};
    for (int j = 0; j < dims; ++j) {
      std::memcpy(&comps[j], p, 4);
      p += 4;
    }
    Record rec;
    rec.key = PseudoKey(std::span<const uint32_t>(comps.data(), dims));
    std::memcpy(&rec.payload, p, 8);
    p += 8;
    page.records_.push_back(rec);
  }
  return page;
}

}  // namespace bmeh
