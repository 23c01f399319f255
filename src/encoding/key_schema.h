// KeySchema: the shape of the multidimensional key space.
//
// A schema fixes the number of dimensions d and, per dimension, the number
// of pseudo-key bits w_j (<= 32) that participate in directory addressing.
// The paper's experiments use d in {2, 3} and w_j = 31 (keys uniform in
// [0, 2^31 - 1]); the library supports d up to kMaxDims and per-dimension
// widths, including the "shorter binary digit string" case mentioned after
// Theorem 1.

#ifndef BMEH_ENCODING_KEY_SCHEMA_H_
#define BMEH_ENCODING_KEY_SCHEMA_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/encoding/pseudo_key.h"

namespace bmeh {

/// \brief Number of dimensions and per-dimension pseudo-key bit widths.
class KeySchema {
 public:
  KeySchema() = default;

  /// \brief Schema with `dims` dimensions, all of width `width` bits.
  /// Dies where FromWidths would fail.
  KeySchema(int dims, int width);

  /// \brief Schema with explicit per-dimension widths.  Dies where
  /// FromWidths would fail.
  explicit KeySchema(std::span<const int> widths);

  /// \brief Schema with explicit per-dimension widths, or Invalid unless
  /// there are 1 to kMaxDims widths, each in [1, 32].  The one check of
  /// a schema, so a decoder can refuse widths it read instead of dying.
  static Result<KeySchema> FromWidths(std::span<const int> widths);

  int dims() const { return dims_; }
  int width(int j) const {
    BMEH_DCHECK(j >= 0 && j < dims_);
    return width_[j];
  }

  /// \brief Sum of widths: the maximum number of addressing bits w.
  int total_bits() const;

  /// \brief Checks that `key` matches this schema (dimension count and
  /// every component representable in width(j) bits).
  Status Validate(const PseudoKey& key) const;

  /// \brief The largest representable component value for dimension j.
  uint32_t max_component(int j) const {
    int w = width(j);
    return (w == 32) ? ~uint32_t{0} : ((uint32_t{1} << w) - 1);
  }

  bool operator==(const KeySchema& other) const;

  std::string ToString() const;

 private:
  int dims_ = 0;
  std::array<int, kMaxDims> width_{};
};

}  // namespace bmeh

#endif  // BMEH_ENCODING_KEY_SCHEMA_H_
