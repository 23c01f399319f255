#include "src/encoding/pseudo_key.h"

#include <charconv>
#include <sstream>

#include "src/common/bit_util.h"

namespace bmeh {

size_t PseudoKey::Hash() const {
  // FNV-1a over the component bytes.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(dims_));
  for (int j = 0; j < dims_; ++j) mix(c_[j]);
  return static_cast<size_t>(h);
}

std::string PseudoKey::ToString() const {
  // Every Get of an absent key formats its key into the KeyError, so this
  // writes digits with std::to_chars: building an ostringstream (stream,
  // locale and buffer set-up) cost several times the rest of the message.
  std::string out = "(";
  char digits[10];  // 4294967295
  for (int j = 0; j < dims_; ++j) {
    if (j) out += ", ";
    const auto end = std::to_chars(digits, digits + sizeof(digits), c_[j]);
    out.append(digits, end.ptr);
  }
  out += ')';
  return out;
}

std::string PseudoKey::ToBitString(int width) const {
  std::ostringstream os;
  os << "(";
  for (int j = 0; j < dims_; ++j) {
    if (j) os << ", ";
    for (int bit = 0; bit < width; ++bit) {
      os << bit_util::BitAt(c_[j], 32, bit);
    }
  }
  os << ")";
  return os.str();
}

}  // namespace bmeh
