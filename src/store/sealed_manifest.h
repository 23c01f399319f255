// The sealed text manifests: a sharded store's MANIFEST, a sharded
// backup's SHARDBACKUP and a backup set's BACKUPSET (docs/FORMATS.md).
//
// A manifest is a magic line, then one `key value` line per field, then
// the `crc %08x` seal over everything before it (WriteSealedText).  A
// value is words separated by single spaces.  Keys such as `shard` and
// `file` repeat, one line per item; every other key appears once.  A
// reader skips keys it does not ask for, so a newer writer may add lines
// an older reader ignores; the seal still covers them.
//
// ManifestWriter and ManifestReader are the only code that builds or
// parses these files.  Every error a reader returns is Corruption naming
// the file and the field.

#ifndef BMEH_STORE_SEALED_MANIFEST_H_
#define BMEH_STORE_SEALED_MANIFEST_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/encoding/key_schema.h"
#include "src/pagestore/page_store.h"

namespace bmeh {

/// \brief Builds a manifest body line by line, in call order.
class ManifestWriter {
 public:
  explicit ManifestWriter(std::string_view magic);

  /// \brief Appends the line `key value`.  A value is one line: a newline
  /// in it is written as a space.
  void Add(std::string_view key, std::string_view value);

  /// \brief Appends `dims d` and `widths w_0 ... w_{d-1}`.
  void AddSchema(const KeySchema& schema);

  /// \brief Seals the body and publishes it as `dir/name` with
  /// WriteSealedText: the file is whole or absent after a crash.
  Status Seal(const std::string& dir, const std::string& name) const {
    return WriteSealedText(dir, name, body_);
  }

 private:
  std::string body_;
};

/// \brief One line's value, read word by word from the left.  A line
/// views its reader's storage: use it while that reader lives, unmoved.
class ManifestLine {
 public:
  /// \brief The next word; Corruption when none is left.
  Result<std::string_view> Word();
  /// \brief The next word as a number in [lo, hi]: digits of `base`
  /// only, no sign.
  Result<uint64_t> Number(uint64_t lo = 0, uint64_t hi = UINT64_MAX,
                          int base = 10);
  /// \brief The next word as a name inside the manifest's directory:
  /// not empty, and neither a `/` nor a `..` in it.
  Result<std::string_view> Name();
  /// \brief Everything not read yet, verbatim.
  std::string_view Rest() const { return rest_; }
  /// \brief Whether every word has been read.  A trailing space leaves
  /// one empty word.
  bool done() const { return done_; }
  /// \brief Corruption unless done().
  Status End() const;
  /// \brief Corruption naming the file and this line's key.
  Status Bad(std::string_view why) const;

 private:
  friend class ManifestReader;
  ManifestLine(const std::string* file, std::string_view key,
               std::string_view value)
      : file_(file), key_(key), rest_(value), done_(value.empty()) {}

  const std::string* file_;  // the reader's label, which outlives the line
  std::string_view key_;
  std::string_view rest_;
  bool done_;
};

/// \brief A manifest's fields, read once and checked on access.
class ManifestReader {
 public:
  /// \brief Reads `path`, checks its seal and that its first line is
  /// `magic`.  `what` names the file in every error ("backup manifest").
  static Result<ManifestReader> Open(const std::string& path,
                                     std::string_view what,
                                     std::string_view magic);

  /// \brief Every line of a repeated key, in file order.
  std::vector<ManifestLine> All(std::string_view key) const;
  /// \brief The whole value of a key that appears once; never empty.
  Result<std::string> Text(std::string_view key) const;

  /// \brief The value of a key that appears once, as one decimal number
  /// in [lo, max of T].
  template <typename T = uint64_t>
  Result<T> Number(std::string_view key, T lo = 0) const {
    BMEH_ASSIGN_OR_RETURN(ManifestLine line, One(key));
    BMEH_ASSIGN_OR_RETURN(const uint64_t v,
                          line.Number(lo, std::numeric_limits<T>::max()));
    BMEH_RETURN_NOT_OK(line.End());
    return static_cast<T>(v);
  }

  /// \brief The `dims`/`widths` pair as a schema, built by
  /// KeySchema::FromWidths.
  Result<KeySchema> Schema() const;

  /// \brief Corruption naming the file and `field`.
  Status Bad(std::string_view field, std::string_view why) const;

 private:
  /// The line of a key that must appear exactly once.
  Result<ManifestLine> One(std::string_view key) const;

  std::string file_;  // "<what> <path>"
  std::map<std::string, std::vector<std::string>, std::less<>> fields_;
};

}  // namespace bmeh

#endif  // BMEH_STORE_SEALED_MANIFEST_H_
