#include "src/common/csv.h"

#include <fstream>
#include <sstream>
#include <string_view>

#include "src/common/fault_injection.h"
#include "src/common/string_util.h"

namespace dime {
namespace {

/// Delimiter-separated parsing with RFC 4180-style quoting, shared by
/// ReadTsv and ParseTsv. A cell that *begins* with '"' is quoted: it runs
/// to the matching closing quote, `""` inside is an escaped quote, and
/// delimiters/CR/LF inside are literal data (so a quoted field may span
/// physical lines). Unquoted cells are taken verbatim — a quote in the
/// middle of a cell is just a character. Rows end at LF or CRLF (or a
/// lone CR at end-of-file, matching the old getline-based reader); blank
/// lines are skipped. An unterminated quote is lenient: the cell runs to
/// end of input.
std::vector<TsvRow> ParseDelimited(std::string_view content, char delim) {
  std::vector<TsvRow> rows;
  TsvRow row;
  std::string cell;
  bool row_has_structure = false;  // saw a delimiter or a quoted cell
  size_t i = 0;
  const size_t n = content.size();
  auto flush_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  auto flush_row = [&] {
    flush_cell();
    // Blank-line skip: only a row that is a single empty unquoted cell.
    // "a\t" still yields {"a", ""} and "" (quoted empty) yields {""}.
    if (row.size() > 1 || !row[0].empty() || row_has_structure) {
      rows.push_back(std::move(row));
    }
    row.clear();
    row_has_structure = false;
  };
  while (i < n) {
    if (content[i] == '"' && cell.empty()) {
      row_has_structure = true;
      ++i;  // opening quote
      while (i < n) {
        if (content[i] == '"') {
          if (i + 1 < n && content[i + 1] == '"') {
            cell.push_back('"');
            i += 2;
          } else {
            ++i;  // closing quote
            break;
          }
        } else {
          cell.push_back(content[i++]);
        }
      }
      continue;  // stray text after the closing quote appends literally
    }
    char c = content[i];
    if (c == delim) {
      row_has_structure = true;
      flush_cell();
      ++i;
    } else if (c == '\n') {
      flush_row();
      ++i;
    } else if (c == '\r' && (i + 1 == n || content[i + 1] == '\n')) {
      flush_row();
      i += (i + 1 < n) ? 2 : 1;
    } else {
      cell.push_back(c);
      ++i;
    }
  }
  // Final row without a trailing newline.
  if (!cell.empty() || !row.empty() || row_has_structure) flush_row();
  return rows;
}

/// True when `cell` cannot be written verbatim: it contains the delimiter,
/// CR or LF, or starts with a quote (which the reader would interpret as
/// an opening quote).
bool NeedsQuoting(const std::string& cell, char delim) {
  if (!cell.empty() && cell.front() == '"') return true;
  for (char c : cell) {
    if (c == delim || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendCell(std::string* out, const std::string& cell, char delim) {
  if (!NeedsQuoting(cell, delim)) {
    out->append(cell);
    return;
  }
  out->push_back('"');
  for (char c : cell) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError(path + ": cannot open");
  if (DIME_FAULT_POINT(failpoints::kIoRead)) {
    return IoError(path + ": injected read fault");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return IoError(path + ": read failed");
  return std::move(buf).str();
}

StatusOr<std::vector<TsvRow>> ReadTsv(const std::string& path) {
  // The whole byte stream at once: quoted fields may span physical lines.
  StatusOr<std::string> content = ReadTextFile(path);
  if (!content.ok()) return content.status();
  return ParseDelimited(*content, '\t');
}

std::vector<TsvRow> ParseTsv(const std::string& content) {
  return ParseDelimited(content, '\t');
}

Status WriteTsv(const std::string& path, const std::vector<TsvRow>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return NotFoundError(path + ": cannot create");
  out << FormatTsv(rows);
  out.flush();
  if (!out) return IoError(path + ": write failed");
  return OkStatus();
}

std::string FormatTsv(const std::vector<TsvRow>& rows) {
  std::string out;
  for (const TsvRow& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back('\t');
      AppendCell(&out, row[i], '\t');
    }
    out.push_back('\n');
  }
  return out;
}

std::vector<std::string> SplitMultiValue(const std::string& cell) {
  return SplitAndTrim(cell, '|');
}

std::string JoinMultiValue(const std::vector<std::string>& values) {
  return Join(values, "|");
}

}  // namespace dime
