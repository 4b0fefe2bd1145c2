// The corpus loader every front end shares (src/core/corpus.h): the flag
// grammar, the order of the ontology refs it builds, and its refusals.
// The binaries' exit codes for the same refusals are covered by
// cli_determinism_test.

#include "src/core/corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/datagen/presets.h"
#include "src/ontology/builtin.h"
#include "src/rules/rule_io.h"

namespace dime {
namespace {

/// Runs ParseCorpusFlag over `args` the way a front end's flag loop does;
/// returns the first error, or the arguments it left alone.
StatusOr<std::vector<std::string>> ParseAll(std::vector<std::string> args,
                                            CorpusSources* sources) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const int argc = static_cast<int>(argv.size());
  std::vector<std::string> rest;
  for (int i = 0; i < argc; ++i) {
    StatusOr<bool> consumed = ParseCorpusFlag(argc, argv.data(), &i, sources);
    if (!consumed.ok()) return consumed.status();
    if (!*consumed) rest.push_back(argv[i]);
  }
  return rest;
}

TEST(CorpusSourcesTest, ParsesTheSharedFlagsAndLeavesTheRest) {
  CorpusSources sources;
  StatusOr<std::vector<std::string>> rest = ParseAll(
      {"--venue-ontology", "--ontology", "a.tree", "--port", "0",
       "--ontology", "b.tree", "--ontology-mode", "keyword", "--rules",
       "r.txt"},
      &sources);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(*rest, (std::vector<std::string>{"--port", "0"}));
  EXPECT_TRUE(sources.venue_ontology);
  EXPECT_EQ(sources.rules_path, "r.txt");
  ASSERT_EQ(sources.ontologies.size(), 2u);
  EXPECT_EQ(sources.ontologies[0].path, "a.tree");
  EXPECT_EQ(sources.ontologies[0].mode, MapMode::kExactName);
  EXPECT_EQ(sources.ontologies[1].path, "b.tree");
  EXPECT_EQ(sources.ontologies[1].mode, MapMode::kKeyword);
}

TEST(CorpusSourcesTest, RefusesMalformedFlags) {
  const std::vector<std::vector<std::string>> bad = {
      {"--ontology-mode", "exact"},                      // no --ontology
      {"--ontology", "t", "--ontology-mode", "keywrod"},  // unknown mode
      {"--ontology", "t", "--ontology-mode", "Keyword"},
      {"--rules"},  // no value
  };
  for (const std::vector<std::string>& args : bad) {
    CorpusSources sources;
    EXPECT_EQ(ParseAll(args, &sources).status().code(),
              StatusCode::kInvalidArgument)
        << args.back();
  }
}

class LoadCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test in its own process, in parallel: one file set
    // per test.
    dir_ = ::testing::TempDir() + "/corpus_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    Corpus demo = MakeDemoCorpus(1);
    page_ = dir_ + "/page.tsv";
    ASSERT_TRUE(SaveGroup(demo.groups[0], page_).ok());
    rules_ = dir_ + "/rules.txt";
    ASSERT_TRUE(
        SaveRuleSet(rules_, demo.schema, demo.positive, demo.negative).ok());
    tree_ = dir_ + "/venues.tree";
    ASSERT_TRUE(VenueOntology().SaveToFile(tree_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  CorpusSources Sources() const {
    CorpusSources sources;
    sources.group_paths = {page_};
    sources.rules_path = rules_;
    sources.venue_ontology = true;
    return sources;
  }

  std::string dir_, page_, rules_, tree_;
};

TEST_F(LoadCorpusTest, VenueTreeComesFirstThenTreeFilesInFlagOrder) {
  CorpusSources sources = Sources();
  sources.ontologies = {{tree_, MapMode::kKeyword},
                        {tree_, MapMode::kExactName}};
  StatusOr<Corpus> corpus = LoadCorpus(sources);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->groups.size(), 1u);
  EXPECT_EQ(corpus->groups[0].name, page_);
  EXPECT_EQ(corpus->schema.attribute_names(),
            corpus->groups[0].schema.attribute_names());
  EXPECT_EQ(corpus->positive.size(), 2u);
  EXPECT_EQ(corpus->negative.size(), 3u);
  ASSERT_EQ(corpus->context.ontologies.size(), 4u);
  ASSERT_EQ(corpus->trees.size(), 2u);
  const std::vector<OntologyRef>& refs = corpus->context.ontologies;
  EXPECT_EQ(refs[0].tree, &VenueOntology());
  EXPECT_EQ(refs[0].mode, MapMode::kExactName);
  EXPECT_EQ(refs[1].tree, &VenueOntology());
  EXPECT_EQ(refs[1].mode, MapMode::kKeyword);
  EXPECT_EQ(refs[2].tree, corpus->trees[0].get());
  EXPECT_EQ(refs[2].mode, MapMode::kKeyword);
  EXPECT_EQ(refs[3].tree, corpus->trees[1].get());
  EXPECT_EQ(refs[3].mode, MapMode::kExactName);
}

TEST_F(LoadCorpusTest, InlineRulesFollowTheFileRules) {
  CorpusSources sources = Sources();
  sources.positive_rules = {"overlap(Authors) >= 3"};
  sources.negative_rules = {"overlap(Authors) <= 0"};
  StatusOr<Corpus> corpus = LoadCorpus(sources);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->positive.size(), 3u);
  EXPECT_EQ(corpus->positive[2].ToString(corpus->schema),
            "overlap(Authors) >= 3");
  ASSERT_EQ(corpus->negative.size(), 4u);

  sources.positive_rules = {"overlap(NoSuchColumn) >= 3"};
  EXPECT_EQ(LoadCorpus(sources).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LoadCorpusTest, RefusalsCarryTheFailingSourcesStatus) {
  CorpusSources missing_tree = Sources();
  missing_tree.ontologies = {{dir_ + "/no_such.tree", MapMode::kExactName}};
  EXPECT_EQ(LoadCorpus(missing_tree).status().code(), StatusCode::kNotFound);

  const std::string bad_tree = dir_ + "/bad.tree";
  std::ofstream(bad_tree) << "root\tr\nnode\tnowhere\tx\n";
  CorpusSources malformed_tree = Sources();
  malformed_tree.ontologies = {{bad_tree, MapMode::kExactName}};
  EXPECT_EQ(LoadCorpus(malformed_tree).status().code(),
            StatusCode::kParseError);

  // The rules use ontology(Venue): without a tree they cannot be evaluated.
  CorpusSources no_venue = Sources();
  no_venue.venue_ontology = false;
  const Status invalid = LoadCorpus(no_venue).status();
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(invalid.message().find("invalid rules"), std::string::npos)
      << invalid.ToString();

  CorpusSources no_group = Sources();
  no_group.group_paths.clear();
  EXPECT_EQ(LoadCorpus(no_group).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LoadCorpusTest, GroupsMustShareTheFirstGroupsSchema) {
  Group narrow;
  narrow.name = "narrow";
  narrow.schema = Schema({"Title", "Authors"});
  Entity e;
  e.id = "e0";
  e.values = {{"A title"}, {"An Author"}};
  narrow.entities.push_back(e);
  const std::string narrow_path = dir_ + "/narrow.tsv";
  ASSERT_TRUE(SaveGroup(narrow, narrow_path).ok());
  CorpusSources sources = Sources();
  sources.group_paths.push_back(narrow_path);
  const Status status = LoadCorpus(sources).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("group '" + narrow_path + "'"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace dime
