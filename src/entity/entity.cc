#include "src/entity/entity.h"

#include <fstream>

#include "src/common/csv.h"
#include "src/common/logging.h"

namespace dime {

Schema::Schema(std::vector<std::string> attribute_names)
    : attribute_names_(std::move(attribute_names)) {}

int Schema::AttributeIndex(std::string_view name) const {
  for (size_t i = 0; i < attribute_names_.size(); ++i) {
    if (attribute_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> Group::TrueErrorIndices() const {
  DIME_CHECK(has_truth());
  std::vector<int> errors;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i]) errors.push_back(static_cast<int>(i));
  }
  return errors;
}

namespace {

/// TSV cells cannot contain the structural characters; values are
/// sanitized on write (tab/newline -> space, '|' -> '/') so every written
/// file parses back.
std::string SanitizeCell(const std::string& value) {
  std::string out = value;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
    if (c == '|') c = '/';
  }
  return out;
}

}  // namespace

std::string GroupToTsv(const Group& group) {
  std::vector<TsvRow> rows;
  TsvRow header;
  header.push_back("_id");
  for (const std::string& attr : group.schema.attribute_names()) {
    header.push_back(SanitizeCell(attr));
  }
  if (group.has_truth()) header.push_back("_error");
  rows.push_back(std::move(header));

  for (size_t i = 0; i < group.entities.size(); ++i) {
    const Entity& e = group.entities[i];
    TsvRow row;
    row.push_back(SanitizeCell(e.id));
    for (const AttributeValue& v : e.values) {
      std::vector<std::string> sanitized;
      sanitized.reserve(v.size());
      for (const std::string& piece : v) {
        sanitized.push_back(SanitizeCell(piece));
      }
      row.push_back(JoinMultiValue(sanitized));
    }
    if (group.has_truth()) row.push_back(group.truth[i] ? "1" : "0");
    rows.push_back(std::move(row));
  }
  return FormatTsv(rows);
}

Status ParseGroupTsv(const std::string& tsv, std::string_view name,
                     Group* out) {
  *out = Group();
  std::vector<TsvRow> rows = ParseTsv(tsv);
  if (rows.empty()) {
    return ParseError("empty input: expected a header row starting with _id");
  }
  const TsvRow& header = rows[0];
  if (header.empty() || header[0] != "_id") {
    return ParseError("header must start with _id, got \"" +
                      (header.empty() ? std::string() : header[0]) + "\"");
  }

  bool has_truth = header.back() == "_error";
  size_t num_attrs = header.size() - 1 - (has_truth ? 1 : 0);
  std::vector<std::string> attrs(header.begin() + 1,
                                 header.begin() + 1 + num_attrs);
  out->name = std::string(name);
  out->schema = Schema(std::move(attrs));

  for (size_t r = 1; r < rows.size(); ++r) {
    const TsvRow& row = rows[r];
    if (row.size() != header.size()) {
      Status error = SchemaMismatchError(
          "row " + std::to_string(r + 1) + " has " +
          std::to_string(row.size()) + " cells but the header has " +
          std::to_string(header.size()));
      *out = Group();
      return error;
    }
    Entity e;
    e.id = row[0];
    for (size_t a = 0; a < num_attrs; ++a) {
      e.values.push_back(SplitMultiValue(row[1 + a]));
    }
    out->entities.push_back(std::move(e));
    if (has_truth) out->truth.push_back(row.back() == "1" ? 1 : 0);
  }
  return OkStatus();
}

Status SaveGroup(const Group& group, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return NotFoundError(path + ": cannot create");
  f << GroupToTsv(group);
  f.flush();
  if (!f) return IoError(path + ": write failed");
  return OkStatus();
}

Status LoadGroup(const std::string& path, std::string_view name, Group* out) {
  StatusOr<std::string> content = ReadTextFile(path);
  if (!content.ok()) return content.status();
  return ParseGroupTsv(*content, name, out);
}

}  // namespace dime
