// Little-endian field access for every on-disk format: the tree image and
// its frozen pages, the WAL, the superblock, page trailers, archive
// segments and backup payloads.
//
// The raw Put/Get helpers address a byte pointer directly (fixed layouts
// such as headers and trailers).  ByteWriter appends to a growing buffer
// and ByteReader consumes a span, failing with Corruption instead of
// reading past its end — the cursor pair the tree image's node and page
// codecs are written against.

#ifndef BMEH_COMMON_BYTES_H_
#define BMEH_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace bmeh {

// Fields are copied in host order, which every format defines as
// little-endian.
static_assert(std::endian::native == std::endian::little,
              "on-disk formats assume a little-endian host");

inline void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

template <typename T>
T GetLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
inline uint16_t GetU16(const uint8_t* p) { return GetLE<uint16_t>(p); }
inline uint32_t GetU32(const uint8_t* p) { return GetLE<uint32_t>(p); }
inline uint64_t GetU64(const uint8_t* p) { return GetLE<uint64_t>(p); }

/// \brief Appends little-endian fields to a growing buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Put(&v, 4); }
  void U64(uint64_t v) { Put(&v, 8); }

  void Clear() { buf_.clear(); }
  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  void Put(const void* v, size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, v, n);
  }
  std::vector<uint8_t> buf_;
};

/// \brief Reads little-endian fields from a span; reading past its end
/// fails with Corruption.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> U8() { return Take<uint8_t>(); }
  Result<uint32_t> U32() { return Take<uint32_t>(); }
  Result<uint64_t> U64() { return Take<uint64_t>(); }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> Take() {
    if (data_.size() - pos_ < sizeof(T)) {
      return Status::Corruption("image truncated at byte " +
                                std::to_string(pos_));
    }
    const T v = GetLE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace bmeh

#endif  // BMEH_COMMON_BYTES_H_
