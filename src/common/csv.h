#ifndef DIME_COMMON_CSV_H_
#define DIME_COMMON_CSV_H_

#include <string>
#include <vector>

#include "src/common/status.h"

/// \file csv.h
/// Dataset file IO. Entities are serialized one per line with
/// attribute values separated by tabs; multi-valued attributes use '|'
/// between values (e.g., author lists). This mirrors the flat-file dumps of
/// the paper's crawled datasets.
///
/// Cells follow RFC 4180-style quoting: a cell beginning with '"' runs to
/// the matching closing quote ("" escapes a literal quote), and tabs, CR,
/// and LF inside a quoted cell are data, not structure — so quoted fields
/// may span physical lines. FormatTsv/WriteTsv quote symmetrically, only
/// when a cell needs it.

namespace dime {

/// One parsed row: a list of cells.
using TsvRow = std::vector<std::string>;

/// The whole content of the file at `path`, the read every text loader
/// (TSV, rule sets, ontology trees) shares: an unopenable file is
/// NOT_FOUND, a read failure after opening is IO_ERROR, and both messages
/// name the path. Failpoint: "io/read".
StatusOr<std::string> ReadTextFile(const std::string& path);

/// Reads all rows of a TSV file (ReadTextFile, then ParseTsv). An empty
/// file is OK and yields zero rows.
StatusOr<std::vector<TsvRow>> ReadTsv(const std::string& path);

/// Parses TSV content from a string (used by tests and embedded fixtures).
/// Handles CRLF line endings and a trailing line without '\n'; blank lines
/// are skipped.
std::vector<TsvRow> ParseTsv(const std::string& content);

/// Writes rows to a TSV file. NOT_FOUND when the file cannot be created,
/// IO_ERROR when writing fails.
Status WriteTsv(const std::string& path, const std::vector<TsvRow>& rows);

/// Serializes rows into TSV text.
std::string FormatTsv(const std::vector<TsvRow>& rows);

/// Splits a multi-valued cell on '|' (trimming pieces, dropping empties).
std::vector<std::string> SplitMultiValue(const std::string& cell);

/// Joins values into a multi-valued cell with '|'.
std::string JoinMultiValue(const std::vector<std::string>& values);

}  // namespace dime

#endif  // DIME_COMMON_CSV_H_
