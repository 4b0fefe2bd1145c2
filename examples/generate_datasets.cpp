// generate_datasets: materialize the synthetic benchmark suite to disk.
//
// Usage: generate_datasets [output_dir]   (default: ./dime_datasets)
//        generate_datasets --help           (prints the usage line)
// Any other argument starting with '-' is refused with exit code 2
// (INVALID_ARGUMENT) before anything is written. A failed export exits
// with its Status code (src/common/exit_code.h): 3 (NOT_FOUND) when the
// output path cannot hold a directory, 4 (IO_ERROR) when a write fails.
//
// Writes Scholar pages and Amazon categories as TSV files with ground
// truth, the preset rule sets, and the ontologies (the built-in venue tree
// and the LDA theme hierarchy fitted on the exported corpus). Everything
// can then be replayed with dime_cli, e.g.:
//
//   dime_cli dime_datasets/scholar/page_0.tsv
//       --rules dime_datasets/scholar/rules.txt
//       --ontology dime_datasets/scholar/venues.ontology
//       --ontology-mode keyword

#include <cstdio>
#include <string>

#include "src/common/exit_code.h"
#include "src/datagen/export.h"

namespace {

constexpr char kUsage[] = "usage: generate_datasets [output_dir]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace dime;
  std::string dir = "./dime_datasets";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    // A flag is never taken as the output directory, and nothing is
    // written when the command line is refused.
    if (arg.starts_with("-") || i > 1) {
      std::fprintf(stderr, "generate_datasets: unexpected argument %s\n%s",
                   arg.c_str(), kUsage);
      return ExitCodeForStatusCode(StatusCode::kInvalidArgument);
    }
    dir = arg;
  }

  ExportOptions options;
  options.scholar_pages = 4;
  options.scholar_pubs = 150;
  options.amazon_categories = 3;
  options.amazon_products = 120;

  ExportManifest manifest;
  const Status exported = ExportBenchmarkSuite(dir, options, &manifest);
  if (!exported.ok()) return ExitWithStatus(exported, "generate_datasets");
  std::printf("Exported benchmark suite to %s:\n", dir.c_str());
  for (const std::string& p : manifest.scholar_groups) {
    std::printf("  %s\n", p.c_str());
  }
  std::printf("  %s\n  %s\n", manifest.scholar_rules.c_str(),
              manifest.venue_ontology.c_str());
  for (const std::string& p : manifest.amazon_groups) {
    std::printf("  %s\n", p.c_str());
  }
  std::printf("  %s\n  %s\n", manifest.amazon_rules.c_str(),
              manifest.theme_ontology.c_str());
  return 0;
}
