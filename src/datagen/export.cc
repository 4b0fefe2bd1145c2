#include "src/datagen/export.h"

#include <filesystem>
#include <system_error>

#include "src/datagen/amazon_gen.h"
#include "src/datagen/names.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"
#include "src/rules/rule_io.h"

namespace dime {
namespace {

namespace fs = std::filesystem;

/// A path that does not lead to a directory (a missing or non-directory
/// component) is NOT_FOUND; any other failure is IO_ERROR.
Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (!ec) return OkStatus();
  const std::string message =
      path + ": cannot create directory (" + ec.message() + ")";
  if (ec == std::errc::no_such_file_or_directory ||
      ec == std::errc::not_a_directory) {
    return NotFoundError(message);
  }
  return IoError(message);
}

}  // namespace

Status ExportBenchmarkSuite(const std::string& directory,
                            const ExportOptions& options,
                            ExportManifest* manifest) {
  ExportManifest local;
  const std::string scholar_dir = directory + "/scholar";
  const std::string amazon_dir = directory + "/amazon";
  DIME_RETURN_IF_ERROR(EnsureDirectory(scholar_dir));
  DIME_RETURN_IF_ERROR(EnsureDirectory(amazon_dir));

  // --- Scholar pages + preset rules + venue tree. -------------------------
  ScholarSetup scholar = MakeScholarSetup();
  for (size_t i = 0; i < options.scholar_pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = options.scholar_pubs;
    gen.seed = options.seed + i;
    Group page = GenerateScholarGroup(
        "Exported Owner " + std::to_string(i), gen);
    std::string path = scholar_dir + "/page_" + std::to_string(i) + ".tsv";
    DIME_RETURN_IF_ERROR(SaveGroup(page, path));
    local.scholar_groups.push_back(path);
  }
  local.scholar_rules = scholar_dir + "/rules.txt";
  DIME_RETURN_IF_ERROR(SaveRuleSet(local.scholar_rules, scholar.schema,
                                   scholar.positive, scholar.negative));
  local.venue_ontology = scholar_dir + "/venues.ontology";
  DIME_RETURN_IF_ERROR(scholar.venue_tree->SaveToFile(local.venue_ontology));

  // --- Amazon categories + preset rules + fitted theme tree. --------------
  std::vector<Group> corpus;
  for (size_t i = 0; i < options.amazon_categories; ++i) {
    AmazonGenOptions gen;
    gen.num_correct = options.amazon_products;
    gen.error_rate = options.amazon_error_rate;
    gen.seed = options.seed + 100 + i;
    int category =
        static_cast<int>((options.seed + i * 7) % ProductCategories().size());
    corpus.push_back(GenerateAmazonGroup(category, gen));
  }
  AmazonSetup amazon = MakeAmazonSetup(corpus);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string path = amazon_dir + "/" + corpus[i].name + "_" +
                       std::to_string(i) + ".tsv";
    DIME_RETURN_IF_ERROR(SaveGroup(corpus[i], path));
    local.amazon_groups.push_back(path);
  }
  local.amazon_rules = amazon_dir + "/rules.txt";
  DIME_RETURN_IF_ERROR(SaveRuleSet(local.amazon_rules, amazon.schema,
                                   amazon.positive, amazon.negative));
  local.theme_ontology = amazon_dir + "/themes.ontology";
  DIME_RETURN_IF_ERROR(amazon.theme_tree->SaveToFile(local.theme_ontology));

  if (manifest != nullptr) *manifest = std::move(local);
  return OkStatus();
}

}  // namespace dime
