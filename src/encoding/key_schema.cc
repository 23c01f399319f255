#include "src/encoding/key_schema.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace bmeh {

// Clamped so a wild `dims` allocates nothing large; FromWidths refuses it
// all the same.
KeySchema::KeySchema(int dims, int width)
    : KeySchema(std::vector<int>(std::clamp(dims, 0, kMaxDims + 1), width)) {}

KeySchema::KeySchema(std::span<const int> widths)
    : KeySchema(FromWidths(widths).ValueOrDie()) {}

Result<KeySchema> KeySchema::FromWidths(std::span<const int> widths) {
  if (widths.empty() || widths.size() > static_cast<size_t>(kMaxDims)) {
    return Status::Invalid("dims must be in [1, " + std::to_string(kMaxDims) +
                           "], got " + std::to_string(widths.size()));
  }
  KeySchema schema;
  schema.dims_ = static_cast<int>(widths.size());
  for (int j = 0; j < schema.dims_; ++j) {
    if (widths[j] < 1 || widths[j] > 32) {
      return Status::Invalid("width must be in [1, 32], got " +
                             std::to_string(widths[j]));
    }
    schema.width_[j] = widths[j];
  }
  return schema;
}

int KeySchema::total_bits() const {
  int total = 0;
  for (int j = 0; j < dims_; ++j) total += width_[j];
  return total;
}

Status KeySchema::Validate(const PseudoKey& key) const {
  if (key.dims() != dims_) {
    return Status::Invalid("key has " + std::to_string(key.dims()) +
                           " dims, schema expects " + std::to_string(dims_));
  }
  for (int j = 0; j < dims_; ++j) {
    if (key.component(j) > max_component(j)) {
      return Status::Invalid("component " + std::to_string(j) + " value " +
                             std::to_string(key.component(j)) +
                             " exceeds width " + std::to_string(width_[j]));
    }
  }
  return Status::OK();
}

bool KeySchema::operator==(const KeySchema& other) const {
  if (dims_ != other.dims_) return false;
  for (int j = 0; j < dims_; ++j) {
    if (width_[j] != other.width_[j]) return false;
  }
  return true;
}

std::string KeySchema::ToString() const {
  std::ostringstream os;
  os << "KeySchema(d=" << dims_ << ", widths=[";
  for (int j = 0; j < dims_; ++j) {
    if (j) os << ",";
    os << width_[j];
  }
  os << "])";
  return os.str();
}

}  // namespace bmeh
