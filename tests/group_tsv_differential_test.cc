// Differential test of the group TSV codec (src/entity/entity.h) against
// a reference: the two-pass composition the codec replaced, kept here as
// a test-local copy. The reference parses the bytes into rows of cells
// (RFC 4180-style quoting, LF / CRLF / CR-at-end row ends, blank rows
// skipped), then checks the header and each row's width and splits every
// attribute cell on '|'; it writes by formatting rows of joined cells.
// The codec does each in one pass. Both must agree on every input: the
// status code and message, and the name, schema, ids, values and truth of
// the group, on seeded random and hostile TSV (quotes anywhere, NULs, lone
// CRs, '|' runs, ragged rows, header-only files, _error columns); and
// GroupToTsv must be byte-equal to the reference writer on random groups,
// many of whose cells start with '"'.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/entity/entity.h"

namespace dime {
namespace {

using namespace std::string_literals;

// --- Reference codec ------------------------------------------------------

using Row = std::vector<std::string>;

std::vector<Row> RefParseRows(std::string_view content) {
  std::vector<Row> rows;
  Row row;
  std::string cell;
  bool row_has_structure = false;  // saw a tab or a quoted cell
  size_t i = 0;
  const size_t n = content.size();
  auto flush_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  auto flush_row = [&] {
    flush_cell();
    if (row.size() > 1 || !row[0].empty() || row_has_structure) {
      rows.push_back(std::move(row));
    }
    row.clear();
    row_has_structure = false;
  };
  while (i < n) {
    if (content[i] == '"' && cell.empty()) {
      row_has_structure = true;
      ++i;
      while (i < n) {
        if (content[i] == '"') {
          if (i + 1 < n && content[i + 1] == '"') {
            cell.push_back('"');
            i += 2;
          } else {
            ++i;
            break;
          }
        } else {
          cell.push_back(content[i++]);
        }
      }
      continue;
    }
    char c = content[i];
    if (c == '\t') {
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
  if (!cell.empty() || !row.empty() || row_has_structure) flush_row();
  return rows;
}

std::vector<std::string> RefSplitMultiValue(const std::string& cell) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(cell, '|')) {
    std::string_view trimmed = Trim(piece);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

Status RefParseGroupTsv(const std::string& tsv, std::string_view name,
                        Group* out) {
  *out = Group();
  std::vector<Row> rows = RefParseRows(tsv);
  if (rows.empty()) {
    return ParseError("empty input: expected a header row starting with _id");
  }
  const Row& header = rows[0];
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
    const Row& row = rows[r];
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
      e.values.push_back(RefSplitMultiValue(row[1 + a]));
    }
    out->entities.push_back(std::move(e));
    if (has_truth) out->truth.push_back(row.back() == "1" ? 1 : 0);
  }
  return OkStatus();
}

std::string RefFormatRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back('\t');
      const std::string& cell = row[i];
      bool quote = !cell.empty() && cell.front() == '"';
      for (char c : cell) quote |= c == '\t' || c == '\n' || c == '\r';
      if (!quote) {
        out.append(cell);
        continue;
      }
      out.push_back('"');
      for (char c : cell) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    }
    out.push_back('\n');
  }
  return out;
}

std::string RefSanitize(const std::string& value) {
  std::string out = value;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
    if (c == '|') c = '/';
  }
  return out;
}

std::string RefJoinMultiValue(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back('|');
    out.append(values[i]);
  }
  return out;
}

std::string RefGroupToTsv(const Group& group) {
  std::vector<Row> rows;
  Row header{"_id"};
  for (const std::string& attr : group.schema.attribute_names()) {
    header.push_back(RefSanitize(attr));
  }
  if (group.has_truth()) header.push_back("_error");
  rows.push_back(std::move(header));
  for (size_t i = 0; i < group.entities.size(); ++i) {
    const Entity& e = group.entities[i];
    Row row{RefSanitize(e.id)};
    for (const AttributeValue& v : e.values) {
      std::vector<std::string> sanitized;
      for (const std::string& piece : v) {
        sanitized.push_back(RefSanitize(piece));
      }
      row.push_back(RefJoinMultiValue(sanitized));
    }
    if (group.has_truth()) row.push_back(group.truth[i] ? "1" : "0");
    rows.push_back(std::move(row));
  }
  return RefFormatRows(rows);
}

// --- Input generators -----------------------------------------------------

/// Short strings that exercise the grammar: structure, quotes, NULs, lone
/// CRs, '|' runs, whitespace and the header's special names.
constexpr std::string_view kTokens[] = {
    "\t", "\n", "\r", "\r\n", "\"", "\"\"", "|",      "||", " ",
    "  ", "a",  "bc", "_id",  "_error", "1",   "0", "x y", {"\0", 1},
};

std::string RandomToken(Random& rng) {
  return std::string(kTokens[rng.Uniform(std::size(kTokens))]);
}

/// Pure byte soup over the token alphabet.
std::string RandomGarbage(Random& rng) {
  std::string text;
  const size_t pieces = rng.Uniform(40);
  for (size_t i = 0; i < pieces; ++i) text += RandomToken(rng);
  return text;
}

/// A random cell: empty, plain, quoted (with escapes, stray text after
/// the closing quote, or never closed), or token soup.
std::string RandomCell(Random& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return "";
    case 1:
    case 2: {
      std::string cell;
      const size_t pieces = 1 + rng.Uniform(4);
      for (size_t i = 0; i < pieces; ++i) {
        if (i > 0) cell += rng.Bernoulli(0.5) ? "|" : " | ";
        cell += rng.Bernoulli(0.2) ? "" : "v" + std::to_string(rng.Uniform(9));
      }
      return cell;
    }
    case 3:
    case 4: {
      std::string cell = "\"";
      const size_t pieces = rng.Uniform(6);
      for (size_t i = 0; i < pieces; ++i) cell += RandomToken(rng);
      if (rng.Bernoulli(0.8)) cell += "\"";
      if (rng.Bernoulli(0.3)) cell += RandomToken(rng);
      return cell;
    }
    case 5:
      return rng.Bernoulli(0.5) ? "1" : "0";
    default: {
      std::string cell;
      const size_t pieces = rng.Uniform(4);
      for (size_t i = 0; i < pieces; ++i) cell += RandomToken(rng);
      return cell;
    }
  }
}

const char* RandomRowEnd(Random& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return "\r\n";
    case 1:
      return "\n\n";
    case 2:
      return "\r";
    default:
      return "\n";
  }
}

/// A header and rows, mostly of the header's width, then a few random
/// byte edits: near-valid input that reaches deep into the row checks.
std::string RandomGroupText(Random& rng) {
  std::string text = rng.Bernoulli(0.9) ? "_id" : RandomCell(rng);
  const size_t attrs = rng.Uniform(4);
  for (size_t a = 0; a < attrs; ++a) text += "\t" + RandomCell(rng);
  const bool truth = rng.Bernoulli(0.4);
  if (truth) text += "\t_error";
  const size_t width = 1 + attrs + (truth ? 1 : 0);
  const size_t rows = rng.Uniform(6);
  for (size_t r = 0; r < rows; ++r) {
    text += RandomRowEnd(rng);
    size_t cells = width;
    if (rng.Bernoulli(0.15)) cells = rng.Uniform(width + 3);  // ragged
    for (size_t c = 0; c < cells; ++c) {
      if (c > 0) text += "\t";
      text += RandomCell(rng);
    }
  }
  if (rng.Bernoulli(0.5)) text += RandomRowEnd(rng);
  const size_t edits = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(3);
  for (size_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = rng.Uniform(text.size() + 1);
    if (rng.Bernoulli(0.5)) {
      text.insert(at, RandomToken(rng));
    } else if (at < text.size()) {
      text.erase(at, 1);
    }
  }
  return text;
}

// --- Comparison -----------------------------------------------------------

/// Parses `tsv` with the codec and the reference; true when they agree on
/// everything a caller can observe.
::testing::AssertionResult ParsersAgree(const std::string& tsv) {
  Group got;
  Group want;
  got.name = "stale";  // both must clear *out
  want.name = "stale";
  const Status got_status = ParseGroupTsv(tsv, "diff", &got);
  const Status want_status = RefParseGroupTsv(tsv, "diff", &want);
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << what << " differs on input of " << tsv.size()
           << " bytes: codec " << got_status.ToString() << ", reference "
           << want_status.ToString();
  };
  if (got_status.code() != want_status.code()) return fail("status code");
  if (got_status.message() != want_status.message()) return fail("message");
  if (got.name != want.name) return fail("name");
  if (got.schema.attribute_names() != want.schema.attribute_names()) {
    return fail("schema");
  }
  if (got.entities.size() != want.entities.size()) return fail("size");
  for (size_t i = 0; i < got.entities.size(); ++i) {
    if (got.entities[i].id != want.entities[i].id) return fail("id");
    if (got.entities[i].values != want.entities[i].values) {
      return fail("values of entity " + std::to_string(i));
    }
  }
  if (got.truth != want.truth) return fail("truth");
  return ::testing::AssertionSuccess();
}

TEST(GroupTsvDifferentialTest, ParseAgreesWithTheReferenceOnHostileInput) {
  constexpr int kInputs = 12000;
  Random rng(20181);
  int ok = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::string tsv =
        rng.Bernoulli(0.25) ? RandomGarbage(rng) : RandomGroupText(rng);
    ASSERT_TRUE(ParsersAgree(tsv)) << "input " << i;
    Group g;
    if (ParseGroupTsv(tsv, "diff", &g).ok()) ++ok;
  }
  // The generator must reach both the accepting and the refusing paths.
  EXPECT_GT(ok, kInputs / 10);
  EXPECT_LT(ok, kInputs * 9 / 10);
}

TEST(GroupTsvDifferentialTest, ParseAgreesOnFixedEdgeCases) {
  const std::string cases[] = {
      "",
      "\n",
      "\r",
      "\r\n\r\n",
      "_id",
      "_id\n",
      "_id\t_error",
      "_id\t_error\n\n",
      "_id\tA\t_error\n",  // header only
      "\"_id\"\tA\ne\tx\n",
      "\"\"\n_id\n",
      "_id\tA\n\"\"\tx\n",
      "_id\tA\n\"\n",
      "_id\tA\n\"a\"\"",
      "_id\tA\ne\t\"a\"b\"c\"\n",
      "_id\tA\ne\t||| |\n",
      "_id\tA\ne\ta\rb\n",
      "_id\tA\ne\ta\r",
      "_id\tA\ne\0\ta\0|b\n"s,
      "_id\tA\t_error\ne\tx\t1\ne\tx\n",
      "_id\tA\t_error\ne\tx\t1\t\n",
      "\t\n_id\n",
      "_id\tA\n\n\n\ne\n",
  };
  for (const std::string& tsv : cases) {
    EXPECT_TRUE(ParsersAgree(tsv)) << "case \"" << tsv << "\"";
  }
}

/// A string of 0-6 tokens, starting with '"' half the time.
std::string RandomText(Random& rng) {
  std::string s = rng.Bernoulli(0.5) ? "\"" : "";
  const size_t pieces = rng.Uniform(6);
  for (size_t i = 0; i < pieces; ++i) s += RandomToken(rng);
  return s;
}

TEST(GroupTsvDifferentialTest, WriterIsByteEqualToTheReference) {
  Random rng(4180);
  for (int i = 0; i < 3000; ++i) {
    Group g;
    g.name = "w";
    std::vector<std::string> attrs;
    const size_t num_attrs = rng.Uniform(4);
    for (size_t a = 0; a < num_attrs; ++a) attrs.push_back(RandomText(rng));
    g.schema = Schema(std::move(attrs));
    const size_t n = rng.Uniform(5);
    for (size_t e = 0; e < n; ++e) {
      Entity entity;
      entity.id = RandomText(rng);
      for (size_t a = 0; a < num_attrs; ++a) {
        AttributeValue value;
        const size_t pieces = rng.Uniform(4);
        for (size_t p = 0; p < pieces; ++p) value.push_back(RandomText(rng));
        entity.values.push_back(std::move(value));
      }
      g.entities.push_back(std::move(entity));
    }
    if (rng.Bernoulli(0.5)) {
      for (size_t e = 0; e < n; ++e) g.truth.push_back(rng.Bernoulli(0.3));
    }
    const std::string written = GroupToTsv(g);
    ASSERT_EQ(written, RefGroupToTsv(g)) << "group " << i;
    // What the codec writes, both parsers read alike.
    ASSERT_TRUE(ParsersAgree(written)) << "group " << i;
  }
}

}  // namespace
}  // namespace dime
