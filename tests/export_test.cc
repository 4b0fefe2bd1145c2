#include "src/datagen/export.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/dime_plus.h"
#include "src/datagen/presets.h"
#include "src/ontology/ontology.h"
#include "src/rules/rule_io.h"

namespace dime {
namespace {

TEST(ExportTest, SuiteRoundTripsThroughTheCodecs) {
  std::string dir = testing::TempDir() + "/dime_export_test";
  ExportOptions options;
  options.scholar_pages = 2;
  options.scholar_pubs = 40;
  options.amazon_categories = 2;
  options.amazon_products = 40;
  ExportManifest manifest;
  const Status exported = ExportBenchmarkSuite(dir, options, &manifest);
  ASSERT_TRUE(exported.ok()) << exported.ToString();
  ASSERT_EQ(manifest.scholar_groups.size(), 2u);
  ASSERT_EQ(manifest.amazon_groups.size(), 2u);

  // Groups reload with ground truth intact.
  Group page;
  ASSERT_TRUE(LoadGroup(manifest.scholar_groups[0], "page0", &page).ok());
  EXPECT_GT(page.size(), 40u);
  EXPECT_TRUE(page.has_truth());
  EXPECT_FALSE(page.TrueErrorIndices().empty());

  // Rules reload against the reloaded schema.
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  const Status rules = LoadRuleSet(manifest.scholar_rules, page.schema,
                                   &positive, &negative);
  ASSERT_TRUE(rules.ok()) << rules.ToString();
  EXPECT_EQ(positive.size(), 2u);
  EXPECT_EQ(negative.size(), 3u);

  // The ontology reloads and the whole pipeline runs from disk artifacts
  // alone, matching the in-memory preset run.
  auto venues = std::make_shared<Ontology>();
  ASSERT_TRUE(
      Ontology::LoadFromFile(manifest.venue_ontology, venues.get()).ok());
  DimeContext context;
  context.ontologies.push_back(OntologyRef{venues, MapMode::kExactName});
  context.ontologies.push_back(OntologyRef{venues, MapMode::kKeyword});
  DimeResult from_disk = RunDimePlus(page, positive, negative, context);

  ScholarSetup setup = MakeScholarSetup();
  DimeResult in_memory =
      RunDimePlus(page, setup.positive, setup.negative, setup.context);
  EXPECT_EQ(from_disk.partitions, in_memory.partitions);
  EXPECT_EQ(from_disk.flagged_by_prefix, in_memory.flagged_by_prefix);
}

TEST(ExportTest, AmazonArtifactsRunFromDisk) {
  std::string dir = testing::TempDir() + "/dime_export_amazon";
  ExportOptions options;
  options.scholar_pages = 1;
  options.scholar_pubs = 20;
  options.amazon_categories = 2;
  options.amazon_products = 50;
  ExportManifest manifest;
  const Status exported = ExportBenchmarkSuite(dir, options, &manifest);
  ASSERT_TRUE(exported.ok()) << exported.ToString();

  Group category;
  ASSERT_TRUE(LoadGroup(manifest.amazon_groups[0], "cat", &category).ok());
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  ASSERT_TRUE(LoadRuleSet(manifest.amazon_rules, category.schema, &positive,
                          &negative)
                  .ok());
  auto themes = std::make_shared<Ontology>();
  ASSERT_TRUE(
      Ontology::LoadFromFile(manifest.theme_ontology, themes.get()).ok());
  DimeContext context;
  context.ontologies.push_back(OntologyRef{themes, MapMode::kKeyword});
  EXPECT_EQ(ValidateRules(category.schema, positive, negative, context), "");
  DimeResult r = RunDimePlus(category, positive, negative, context);
  EXPECT_FALSE(r.partitions.empty());
  ASSERT_EQ(r.flagged_by_prefix.size(), negative.size());
}

TEST(ExportTest, FailsOnUnwritableDirectory) {
  ExportOptions options;
  options.scholar_pages = 1;
  const Status missing =
      ExportBenchmarkSuite("/proc/definitely/not/writable", options);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound) << missing.ToString();
  EXPECT_NE(missing.message().find("/proc/definitely/not/writable/scholar"),
            std::string::npos)
      << missing.ToString();
  // A path through a regular file cannot hold a directory either.
  const Status through_file = ExportBenchmarkSuite("/dev/null/x", options);
  EXPECT_EQ(through_file.code(), StatusCode::kNotFound)
      << through_file.ToString();
}

}  // namespace
}  // namespace dime
