#include "src/ontology/ontology.h"

#include <gtest/gtest.h>

#include <fstream>
#include <utility>

#include "src/common/random.h"
#include "src/ontology/builtin.h"

namespace dime {
namespace {

TEST(OntologyTest, DepthsAndParents) {
  Ontology tree = BuildFig4Ontology();
  int root = tree.FindByName("Venue");
  int cs = tree.FindByName("Computer Science");
  int db = tree.FindByName("Database");
  int sigmod = tree.FindByName("SIGMOD");
  ASSERT_NE(root, kNoNode);
  EXPECT_EQ(tree.Depth(root), 1);
  EXPECT_EQ(tree.Depth(cs), 2);
  EXPECT_EQ(tree.Depth(db), 3);
  EXPECT_EQ(tree.Depth(sigmod), 4);
  EXPECT_EQ(tree.Parent(sigmod), db);
  EXPECT_EQ(tree.Parent(root), kNoNode);
  EXPECT_EQ(tree.MaxDepth(), 4);
}

TEST(OntologyTest, FindByNameIsCaseInsensitive) {
  Ontology tree = BuildFig4Ontology();
  EXPECT_EQ(tree.FindByName("sigmod"), tree.FindByName("SIGMOD"));
  EXPECT_EQ(tree.FindByName("missing venue"), kNoNode);
}

TEST(OntologyTest, Lca) {
  Ontology tree = BuildFig4Ontology();
  int sigmod = tree.FindByName("SIGMOD");
  int vldb = tree.FindByName("VLDB");
  int icpads = tree.FindByName("ICPADS");
  int rsc = tree.FindByName("RSC Advances");
  EXPECT_EQ(tree.Lca(sigmod, vldb), tree.FindByName("Database"));
  EXPECT_EQ(tree.Lca(sigmod, icpads), tree.FindByName("Computer Science"));
  EXPECT_EQ(tree.Lca(sigmod, rsc), tree.FindByName("Venue"));
  EXPECT_EQ(tree.Lca(sigmod, sigmod), sigmod);
  // LCA with an ancestor is the ancestor itself.
  EXPECT_EQ(tree.Lca(sigmod, tree.FindByName("Database")),
            tree.FindByName("Database"));
}

TEST(OntologyTest, SimilarityMatchesExample4) {
  // Paper Example 4: SIGMOD and VLDB have depth 4, LCA Database (depth 3),
  // similarity 2*3/(4+4) = 0.75.
  Ontology tree = BuildFig4Ontology();
  int sigmod = tree.FindByName("SIGMOD");
  int vldb = tree.FindByName("VLDB");
  EXPECT_DOUBLE_EQ(tree.Similarity(sigmod, vldb), 0.75);
  // Different subfields of the same broad field: 2*2/8 = 0.5.
  EXPECT_DOUBLE_EQ(tree.Similarity(sigmod, tree.FindByName("ICPADS")), 0.5);
  // Different broad fields: 2*1/8 = 0.25.
  EXPECT_DOUBLE_EQ(tree.Similarity(sigmod, tree.FindByName("RSC Advances")),
                   0.25);
  EXPECT_DOUBLE_EQ(tree.Similarity(sigmod, sigmod), 1.0);
  EXPECT_DOUBLE_EQ(tree.Similarity(sigmod, kNoNode), 0.0);
  EXPECT_DOUBLE_EQ(tree.Similarity(kNoNode, kNoNode), 0.0);
}

TEST(OntologyTest, SimilarityIsSymmetricAndBounded) {
  const Ontology& tree = *VenueOntology();
  Random rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    int a = static_cast<int>(rng.Uniform(tree.NumNodes()));
    int b = static_cast<int>(rng.Uniform(tree.NumNodes()));
    double s = tree.Similarity(a, b);
    EXPECT_DOUBLE_EQ(s, tree.Similarity(b, a));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    if (a == b) {
      EXPECT_DOUBLE_EQ(s, 1.0);
    }
  }
}

TEST(OntologyTest, AncestorAtDepth) {
  Ontology tree = BuildFig4Ontology();
  int sigmod = tree.FindByName("SIGMOD");
  EXPECT_EQ(tree.AncestorAtDepth(sigmod, 4), sigmod);
  EXPECT_EQ(tree.AncestorAtDepth(sigmod, 3), tree.FindByName("Database"));
  EXPECT_EQ(tree.AncestorAtDepth(sigmod, 1), tree.FindByName("Venue"));
}

TEST(OntologyTest, TauDepthMatchesExample6) {
  // Paper Example 6 with theta = 0.75: depths 2, 3, 4 give tau 2, 2, 3.
  EXPECT_EQ(Ontology::TauDepth(2, 0.75), 2);
  EXPECT_EQ(Ontology::TauDepth(3, 0.75), 2);
  EXPECT_EQ(Ontology::TauDepth(4, 0.75), 3);
}

/// Lemma 4.2 (node signatures): if sim(n, n') >= theta then the ancestors
/// at depth tau_min coincide.
TEST(OntologyTest, NodeSignatureLemma) {
  const Ontology& tree = *VenueOntology();
  Random rng(13);
  for (double theta : {0.5, 0.75, 0.9}) {
    for (int trial = 0; trial < 2000; ++trial) {
      int a = static_cast<int>(rng.Uniform(tree.NumNodes()));
      int b = static_cast<int>(rng.Uniform(tree.NumNodes()));
      if (tree.Similarity(a, b) < theta) continue;
      int tau_a = Ontology::TauDepth(tree.Depth(a), theta);
      int tau_b = Ontology::TauDepth(tree.Depth(b), theta);
      int tau_min = std::min(tau_a, tau_b);
      EXPECT_EQ(tree.AncestorAtDepth(a, tau_min),
                tree.AncestorAtDepth(b, tau_min))
          << tree.Name(a) << " ~ " << tree.Name(b) << " theta=" << theta;
    }
  }
}

TEST(OntologyTest, KeywordMapping) {
  Ontology tree;
  int root = tree.AddRoot("root");
  int db = tree.AddNode("db", root);
  int vision = tree.AddNode("vision", root);
  tree.AddKeyword("query", db);
  tree.AddKeyword("index", db);
  tree.AddKeyword("image", vision);
  EXPECT_EQ(tree.MapByKeywords({"query", "index", "image"}), db);
  EXPECT_EQ(tree.MapByKeywords({"image"}), vision);
  EXPECT_EQ(tree.MapByKeywords({"nothing", "matches"}), kNoNode);
  EXPECT_EQ(tree.MapByKeywords({}), kNoNode);
  // Duplicate keyword registration keeps the first owner.
  tree.AddKeyword("query", vision);
  EXPECT_EQ(tree.MapByKeywords({"query"}), db);
}

TEST(OntologyTest, TextRoundTrip) {
  Ontology original = BuildFig4Ontology();
  original.AddKeyword("query", original.FindByName("Database"));
  original.AddKeyword("kernel", original.FindByName("System"));
  Ontology parsed;
  ASSERT_TRUE(Ontology::FromText(original.ToText(), &parsed).ok());
  EXPECT_EQ(parsed.NumNodes(), original.NumNodes());
  EXPECT_EQ(parsed.ToText(), original.ToText());
  // Structure and behavior are preserved.
  EXPECT_DOUBLE_EQ(parsed.Similarity(parsed.FindByName("SIGMOD"),
                                     parsed.FindByName("VLDB")),
                   0.75);
  EXPECT_EQ(parsed.MapByKeywords({"query"}),
            parsed.FindByName("Database"));
}

TEST(OntologyTest, TextRoundTripBuiltinVenueTree) {
  const Ontology& original = *VenueOntology();
  Ontology parsed;
  ASSERT_TRUE(Ontology::FromText(original.ToText(), &parsed).ok());
  EXPECT_EQ(parsed.ToText(), original.ToText());
}

TEST(OntologyTest, FromTextRejectsMalformedInput) {
  Ontology out;
  // Each is PARSE_ERROR naming the offending line.
  const std::pair<const char*, const char*> cases[] = {
      {"node\tmissing parent\tchild\n", "line 1"},
      {"root\ta\nnode\ta\n", "line 2"},  // 2 fields
      {"root\ta\nbogus\tx\ty\n", "line 2"},
      {"root\ta\nroot\tb\n", "line 2"},  // two roots
      {"root\ta\nkeyword\tw\tmissing\n", "line 2"},
      // Duplicate node name.
      {"root\ta\nnode\ta\tb\nnode\ta\tb\n", "line 3"},
  };
  for (const auto& [text, line] : cases) {
    const Status status = Ontology::FromText(text, &out);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << text;
    EXPECT_NE(status.message().find(line), std::string::npos)
        << text << ": " << status.ToString();
  }
  EXPECT_EQ(Ontology::FromText("", &out).code(), StatusCode::kParseError);
}

TEST(OntologyTest, FileRoundTrip) {
  Ontology original = BuildFig4Ontology();
  std::string path = testing::TempDir() + "/dime_ontology_test.txt";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  Ontology loaded;
  ASSERT_TRUE(Ontology::LoadFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.ToText(), original.ToText());

  // An unreadable file is NOT_FOUND, bad text PARSE_ERROR; both name the
  // file, and the parse error names the line.
  const Status missing =
      Ontology::LoadFromFile("/nonexistent/tree.txt", &loaded);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound) << missing.ToString();
  EXPECT_NE(missing.message().find("/nonexistent/tree.txt"), std::string::npos);
  std::string bad_path = testing::TempDir() + "/dime_ontology_bad.txt";
  std::ofstream(bad_path) << "root\ta\nnode\tnowhere\tb\n";
  const Status bad = Ontology::LoadFromFile(bad_path, &loaded);
  EXPECT_EQ(bad.code(), StatusCode::kParseError) << bad.ToString();
  EXPECT_NE(bad.message().find(bad_path + ": line 2"), std::string::npos)
      << bad.ToString();

  // A file in a missing directory cannot be created: NOT_FOUND naming it.
  const Status unwritable = original.SaveToFile("/nonexistent/dir/tree.txt");
  EXPECT_EQ(unwritable.code(), StatusCode::kNotFound) << unwritable.ToString();
  EXPECT_NE(unwritable.message().find("/nonexistent/dir/tree.txt"),
            std::string::npos);
}

TEST(OntologyTest, BuiltinVenueOntologyWellFormed) {
  const Ontology& tree = *VenueOntology();
  EXPECT_GT(tree.NumNodes(), 60);
  EXPECT_EQ(tree.MaxDepth(), 4);
  // Every research area's venues resolve to depth-4 leaves under the right
  // subfield.
  for (const ResearchArea& area : ResearchAreas()) {
    int sub = tree.FindByName(area.subfield);
    ASSERT_NE(sub, kNoNode) << area.subfield;
    EXPECT_EQ(tree.Depth(sub), 3);
    for (const std::string& venue : area.venues) {
      int v = tree.FindByName(venue);
      ASSERT_NE(v, kNoNode) << venue;
      EXPECT_EQ(tree.Depth(v), 4);
      EXPECT_EQ(tree.Parent(v), sub);
    }
  }
}

}  // namespace
}  // namespace dime
