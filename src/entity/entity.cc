#include "src/entity/entity.h"

#include <span>

#include "src/common/csv.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"

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

AttributeValue ParseAttributeCell(std::string_view cell) {
  return SplitAndTrim(cell, '|');
}

namespace {

/// Appends one cell: `pieces` joined with '|', each sanitized (tab/CR/LF
/// -> ' ', '|' -> '/') so every written file parses back. The reader takes
/// a leading '"' as an opening quote, so such a cell is written quoted;
/// sanitized cells hold no tab, CR or LF, so no other cell needs quoting.
void AppendCell(std::span<const std::string> pieces, std::string* out) {
  const size_t start = out->size();
  for (size_t p = 0; p < pieces.size(); ++p) {
    if (p > 0) out->push_back('|');
    for (char c : pieces[p]) {
      if (c == '\t' || c == '\n' || c == '\r') c = ' ';
      if (c == '|') c = '/';
      out->push_back(c);
    }
  }
  if (start == out->size() || (*out)[start] != '"') return;
  const std::string cell = out->substr(start);
  out->resize(start);
  out->push_back('"');
  for (char c : cell) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// One cell read by TsvCursor: its decoded text, valid until the next
/// read, and whether it ended its row.
struct TsvCell {
  std::string_view text;
  bool row_end = false;
};

/// A one-pass reader over group TSV bytes (the grammar of ParseGroupTsv).
/// Unquoted cells are views into the input; a quoted cell is decoded into
/// one reused buffer.
class TsvCursor {
 public:
  explicit TsvCursor(std::string_view in) : in_(in) {}

  /// Moves past blank rows to the start of the next row; false at the end
  /// of input. A blank row is one empty unquoted cell: its first byte ends
  /// the row.
  bool NextRow() {
    while (pos_ < in_.size()) {
      const size_t eol = RowEndLength(pos_);
      if (eol == 0) return true;
      pos_ += eol;
    }
    return false;
  }

  /// Reads the cell at the cursor and moves past its terminator.
  TsvCell NextCell() {
    TsvCell cell;
    size_t i = pos_;
    if (i < in_.size() && in_[i] == '"') {
      quoted_.clear();
      for (++i; i < in_.size(); ++i) {
        if (in_[i] == '"') {
          if (i + 1 == in_.size() || in_[i + 1] != '"') {
            ++i;  // closing quote
            break;
          }
          ++i;  // "" is a literal quote
        }
        quoted_.push_back(in_[i]);
      }
      const size_t rest = i;  // text after the closing quote is data
      i = CellEnd(i);
      quoted_.append(in_.substr(rest, i - rest));
      cell.text = quoted_;
    } else {
      i = CellEnd(i);
      cell.text = in_.substr(pos_, i - pos_);
    }
    if (i == in_.size()) {
      cell.row_end = true;
      pos_ = i;
    } else if (in_[i] == '\t') {
      pos_ = i + 1;
    } else {
      cell.row_end = true;
      pos_ = i + RowEndLength(i);
    }
    return cell;
  }

 private:
  /// Length of the row terminator at `i`: LF, CRLF, or a CR that ends
  /// the input; 0 when none starts there.
  size_t RowEndLength(size_t i) const {
    if (in_[i] == '\n') return 1;
    if (in_[i] != '\r') return 0;
    if (i + 1 == in_.size()) return 1;
    return in_[i + 1] == '\n' ? 2 : 0;
  }

  /// First index at or after `i` that ends an unquoted run: a tab, a row
  /// terminator or the end of input.
  size_t CellEnd(size_t i) const {
    while (i < in_.size() && in_[i] != '\t' && RowEndLength(i) == 0) ++i;
    return i;
  }

  std::string_view in_;
  size_t pos_ = 0;
  std::string quoted_;
};

}  // namespace

std::string GroupToTsv(const Group& group) {
  const bool has_truth = group.has_truth();
  std::string out = "_id";
  for (const std::string& attr : group.schema.attribute_names()) {
    out.push_back('\t');
    AppendCell({&attr, 1}, &out);
  }
  if (has_truth) out.append("\t_error");
  out.push_back('\n');

  for (size_t i = 0; i < group.entities.size(); ++i) {
    const Entity& e = group.entities[i];
    AppendCell({&e.id, 1}, &out);
    for (const AttributeValue& value : e.values) {
      out.push_back('\t');
      AppendCell(value, &out);
    }
    if (has_truth) out.append(group.truth[i] ? "\t1" : "\t0");
    out.push_back('\n');
  }
  return out;
}

Status ParseGroupTsv(const std::string& tsv, std::string_view name,
                     Group* out) {
  *out = Group();
  TsvCursor cursor(tsv);
  if (!cursor.NextRow()) {
    return ParseError("empty input: expected a header row starting with _id");
  }
  std::vector<std::string> header;
  for (bool row_end = false; !row_end;) {
    TsvCell cell = cursor.NextCell();
    header.emplace_back(cell.text);
    row_end = cell.row_end;
  }
  if (header[0] != "_id") {
    return ParseError("header must start with _id, got \"" + header[0] +
                      "\"");
  }
  const size_t width = header.size();
  const bool has_truth = header.back() == "_error";
  const size_t num_attrs = width - 1 - (has_truth ? 1 : 0);
  out->name = std::string(name);
  out->schema = Schema(std::vector<std::string>(
      header.begin() + 1, header.begin() + 1 + num_attrs));

  // Row numbers count the rows read, the header being row 1.
  for (size_t row = 2; cursor.NextRow(); ++row) {
    Entity& e = out->entities.emplace_back();
    e.values.reserve(num_attrs);
    bool is_error = false;
    size_t cells = 0;
    for (bool row_end = false; !row_end; ++cells) {
      TsvCell cell = cursor.NextCell();
      row_end = cell.row_end;
      if (cells == 0) {
        e.id = cell.text;
      } else if (cells <= num_attrs) {
        e.values.push_back(ParseAttributeCell(cell.text));
      } else if (has_truth && cells == width - 1) {
        is_error = cell.text == "1";
      }
    }
    if (cells != width) {
      Status error = SchemaMismatchError(
          "row " + std::to_string(row) + " has " + std::to_string(cells) +
          " cells but the header has " + std::to_string(width));
      *out = Group();
      return error;
    }
    if (has_truth) out->truth.push_back(is_error ? 1 : 0);
  }
  return OkStatus();
}

Status SaveGroup(const Group& group, const std::string& path) {
  return WriteTextFile(path, GroupToTsv(group));
}

Status LoadGroup(const std::string& path, std::string_view name, Group* out) {
  StatusOr<std::string> content = ReadTextFile(path);
  if (!content.ok()) return content.status();
  return ParseGroupTsv(*content, name, out);
}

}  // namespace dime
