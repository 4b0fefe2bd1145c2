#ifndef DIME_DATAGEN_EXPORT_H_
#define DIME_DATAGEN_EXPORT_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/entity/entity.h"

/// \file export.h
/// Materializes the synthetic benchmark suite to a directory so it can be
/// consumed outside this process (dime_cli, other tools, manual
/// inspection):
///
///   <dir>/scholar/page_<i>.tsv      groups with ground-truth column
///   <dir>/scholar/rules.txt         the preset rule set
///   <dir>/scholar/venues.ontology   the built-in venue tree
///   <dir>/amazon/<category>.tsv
///   <dir>/amazon/rules.txt
///   <dir>/amazon/themes.ontology    the LDA theme hierarchy fitted on the
///                                   exported corpus
///
/// Everything round-trips through the TSV / rule-set / ontology codecs, so
/// exporting doubles as an integration test of the serialization layer.

namespace dime {

struct ExportOptions {
  size_t scholar_pages = 4;
  size_t scholar_pubs = 120;
  size_t amazon_categories = 3;
  size_t amazon_products = 100;
  double amazon_error_rate = 0.2;
  uint64_t seed = 1;
};

struct ExportManifest {
  std::vector<std::string> scholar_groups;  ///< written TSV paths
  std::vector<std::string> amazon_groups;
  std::string scholar_rules;
  std::string amazon_rules;
  std::string venue_ontology;
  std::string theme_ontology;
};

/// Writes the suite under `directory` (created if missing); `manifest`,
/// if non-null, lists what was written. A failure names the path:
/// NOT_FOUND when a directory or file cannot be created there (a missing
/// or non-directory path component), IO_ERROR when creating or writing
/// fails otherwise.
Status ExportBenchmarkSuite(const std::string& directory,
                            const ExportOptions& options,
                            ExportManifest* manifest = nullptr);

}  // namespace dime

#endif  // DIME_DATAGEN_EXPORT_H_
