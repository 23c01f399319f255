#include "src/store/sealed_manifest.h"

#include <algorithm>
#include <charconv>

namespace bmeh {

ManifestWriter::ManifestWriter(std::string_view magic)
    : body_(std::string(magic) + "\n") {}

void ManifestWriter::Add(std::string_view key, std::string_view value) {
  std::string line = std::string(key) + " " + std::string(value);
  std::replace(line.begin(), line.end(), '\n', ' ');
  body_ += line + "\n";
}

void ManifestWriter::AddSchema(const KeySchema& schema) {
  Add("dims", std::to_string(schema.dims()));
  body_ += "widths";
  for (int j = 0; j < schema.dims(); ++j) {
    body_ += " " + std::to_string(schema.width(j));
  }
  body_ += "\n";
}

Result<std::string_view> ManifestLine::Word() {
  if (done_) return Bad("missing a word");
  const size_t space = rest_.find(' ');
  const std::string_view word = rest_.substr(0, space);
  done_ = space == std::string_view::npos;
  rest_ = done_ ? std::string_view() : rest_.substr(space + 1);
  return word;
}

Result<uint64_t> ManifestLine::Number(uint64_t lo, uint64_t hi, int base) {
  BMEH_ASSIGN_OR_RETURN(const std::string_view word, Word());
  uint64_t v = 0;
  const char* end = word.data() + word.size();
  const auto [at, ec] = std::from_chars(word.data(), end, v, base);
  if (ec != std::errc() || at != end || v < lo || v > hi) {
    return Bad("\"" + std::string(word) + "\" is not a number in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

Result<std::string_view> ManifestLine::Name() {
  BMEH_ASSIGN_OR_RETURN(const std::string_view name, Word());
  if (name.empty() || name.find('/') != name.npos ||
      name.find("..") != name.npos) {
    return Bad("bad name \"" + std::string(name) + "\"");
  }
  return name;
}

Status ManifestLine::End() const {
  if (done_) return Status::OK();
  return Bad("extra words \"" + std::string(rest_) + "\"");
}

Status ManifestLine::Bad(std::string_view why) const {
  return Status::Corruption(*file_ + ": " + std::string(key_) + ": " +
                            std::string(why));
}

Result<ManifestReader> ManifestReader::Open(const std::string& path,
                                            std::string_view what,
                                            std::string_view magic) {
  BMEH_ASSIGN_OR_RETURN(const std::string body,
                        ReadSealedText(path, std::string(what)));
  ManifestReader r;
  r.file_ = std::string(what) + " " + path;
  // The body is empty or ends with a newline (ReadSealedText).
  const std::string_view text = body;
  const size_t eol = text.find('\n');
  if (eol == text.npos || text.substr(0, eol) != magic) {
    return r.Bad("magic", "not " + std::string(magic));
  }
  for (size_t at = eol + 1, end; (end = text.find('\n', at)) != text.npos;
       at = end + 1) {
    const std::string_view line = text.substr(at, end - at);
    const size_t space = line.find(' ');
    r.fields_[std::string(line.substr(0, space))].emplace_back(
        space == line.npos ? "" : line.substr(space + 1));
  }
  return r;
}

Result<ManifestLine> ManifestReader::One(std::string_view key) const {
  const std::vector<ManifestLine> lines = All(key);
  if (lines.empty()) return Bad(key, "missing");
  if (lines.size() > 1) return Bad(key, "repeated");
  return lines.front();
}

std::vector<ManifestLine> ManifestReader::All(std::string_view key) const {
  std::vector<ManifestLine> lines;
  if (const auto it = fields_.find(key); it != fields_.end()) {
    for (const std::string& v : it->second) {
      lines.push_back({&file_, it->first, v});
    }
  }
  return lines;
}

Result<std::string> ManifestReader::Text(std::string_view key) const {
  BMEH_ASSIGN_OR_RETURN(const ManifestLine line, One(key));
  if (line.done()) return line.Bad("empty");
  return std::string(line.Rest());
}

Result<KeySchema> ManifestReader::Schema() const {
  BMEH_ASSIGN_OR_RETURN(const int dims, Number<int>("dims"));
  BMEH_ASSIGN_OR_RETURN(ManifestLine line, One("widths"));
  std::vector<int> widths;
  while (!line.done()) {
    BMEH_ASSIGN_OR_RETURN(const uint64_t w,
                          line.Number(0, std::numeric_limits<int>::max()));
    widths.push_back(static_cast<int>(w));
  }
  if (static_cast<int>(widths.size()) != dims) {
    return line.Bad(std::to_string(widths.size()) + " widths for dims " +
                    std::to_string(dims));
  }
  Result<KeySchema> schema = KeySchema::FromWidths(widths);
  if (!schema.ok()) return line.Bad(schema.status().message());
  return schema;
}

Status ManifestReader::Bad(std::string_view field,
                           std::string_view why) const {
  return ManifestLine(&file_, field, "").Bad(why);
}

}  // namespace bmeh
