#ifndef DIME_COMMON_CSV_H_
#define DIME_COMMON_CSV_H_

#include <string>
#include <string_view>

#include "src/common/status.h"

/// \file csv.h
/// Whole-file text IO shared by every file codec: group TSV
/// (src/entity/entity.h), rule sets (src/rules/rule_io.h), ontology trees
/// (src/ontology/ontology.h) and the exported benchmark suite. The codecs
/// parse and format strings; these two functions move those strings to
/// and from disk with one set of error codes.

namespace dime {

/// The whole content of the file at `path`: an unopenable file is
/// NOT_FOUND, a read failure after opening is IO_ERROR, and both messages
/// name the path. An empty file reads as "". Failpoint: "io/read".
StatusOr<std::string> ReadTextFile(const std::string& path);

/// Replaces the file at `path` with `text`: NOT_FOUND when the file cannot
/// be created (a missing directory, say), IO_ERROR when the flushed write
/// fails. Both messages name the path.
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace dime

#endif  // DIME_COMMON_CSV_H_
