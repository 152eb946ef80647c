#include "hierarchy/hierarchy_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "hierarchy/hierarchy_generator.h"
#include "medline/bionav_database.h"
#include "medline/corpus_generator.h"

namespace bionav {
namespace {

ConceptHierarchy MakeSample() {
  ConceptHierarchy h;
  ConceptId a = h.AddNode(ConceptHierarchy::kRoot, "Anatomy");
  h.AddNode(a, "Body Regions");
  ConceptId d = h.AddNode(ConceptHierarchy::kRoot, "Diseases");
  ConceptId n = h.AddNode(d, "Neoplasms");
  h.AddNode(n, "Neoplasms by Site");
  h.Freeze();
  return h;
}

TEST(HierarchyIO, WriteProducesOneLinePerNode) {
  ConceptHierarchy h = MakeSample();
  std::ostringstream out;
  ASSERT_TRUE(WriteHierarchy(h, &out).ok());
  std::string text = out.str();
  size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, h.size());
  EXPECT_NE(text.find("\tNeoplasms\n"), std::string::npos);
}

TEST(HierarchyIO, WriteRequiresFrozen) {
  ConceptHierarchy h;
  h.AddNode(ConceptHierarchy::kRoot, "a");
  std::ostringstream out;
  EXPECT_EQ(WriteHierarchy(h, &out).code(), StatusCode::kFailedPrecondition);
}

TEST(HierarchyIO, RoundTripPreservesStructureAndLabels) {
  ConceptHierarchy h = MakeSample();
  std::ostringstream out;
  ASSERT_TRUE(WriteHierarchy(h, &out).ok());

  std::istringstream in(out.str());
  auto r = ReadHierarchy(&in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ConceptHierarchy& h2 = r.ValueOrDie();

  ASSERT_EQ(h2.size(), h.size());
  for (ConceptId id = 0; id < static_cast<ConceptId>(h.size()); ++id) {
    EXPECT_EQ(h2.label(id), h.label(id));
    EXPECT_EQ(h2.parent(id), h.parent(id));
    EXPECT_EQ(h2.tree_number(id).ToString(), h.tree_number(id).ToString());
  }

  // Idempotence: writing the parsed hierarchy reproduces the bytes.
  std::ostringstream out2;
  ASSERT_TRUE(WriteHierarchy(h2, &out2).ok());
  EXPECT_EQ(out.str(), out2.str());
}

TEST(HierarchyIO, RoundTripGeneratedHierarchy) {
  HierarchyGeneratorOptions o;
  o.target_nodes = 800;
  ConceptHierarchy h = GenerateMeshLikeHierarchy(o);
  std::ostringstream out;
  ASSERT_TRUE(WriteHierarchy(h, &out).ok());
  std::istringstream in(out.str());
  auto r = ReadHierarchy(&in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().size(), h.size());
  std::ostringstream out2;
  ASSERT_TRUE(WriteHierarchy(r.ValueOrDie(), &out2).ok());
  EXPECT_EQ(out.str(), out2.str());
}

TEST(HierarchyIO, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# MeSH-like dump\n"
      "\n"
      "\tMeSH\n"
      "A01\tAnatomy\n"
      "  \n"
      "A01.001\tBody Regions\n");
  auto r = ReadHierarchy(&in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().size(), 3u);
  EXPECT_NE(r.ValueOrDie().FindByLabel("Body Regions"), kInvalidConcept);
}

TEST(HierarchyIO, RejectsMissingTab) {
  std::istringstream in("A01 Anatomy\n");
  auto r = ReadHierarchy(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyIO, RejectsOrphanNode) {
  std::istringstream in("A01.001\tBody Regions\n");
  auto r = ReadHierarchy(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("parent tree number"),
            std::string::npos);
}

TEST(HierarchyIO, RejectsDuplicateTreeNumber) {
  std::istringstream in(
      "A01\tAnatomy\n"
      "A01\tAnatomy Again\n");
  auto r = ReadHierarchy(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
}

TEST(HierarchyIO, RejectsBadTreeNumber) {
  std::istringstream in("A0x\tAnatomy\n");
  EXPECT_FALSE(ReadHierarchy(&in).ok());
}

TEST(HierarchyIO, FileRoundTrip) {
  ConceptHierarchy h = MakeSample();
  std::string path = ::testing::TempDir() + "/bionav_hierarchy_test.tsv";
  ASSERT_TRUE(WriteHierarchyToFile(h, path).ok());
  auto r = ReadHierarchyFromFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().size(), h.size());
}

TEST(HierarchyIO, TreeNumbersRoundTripOnGeneratedHierarchy) {
  HierarchyGeneratorOptions o;
  o.target_nodes = 5000;
  ConceptHierarchy h = GenerateMeshLikeHierarchy(o);
  ASSERT_GE(h.size(), 4900u);
  for (ConceptId id = 0; id < static_cast<ConceptId>(h.size()); ++id) {
    TreeNumber tn = h.tree_number(id);
    ASSERT_EQ(h.FindByTreeNumber(tn.ToString()), id) << tn.ToString();
    ASSERT_EQ(tn.Depth(), static_cast<size_t>(h.depth(id)));
    if (id != ConceptHierarchy::kRoot) {
      ASSERT_EQ(tn.Parent(), h.tree_number(h.parent(id)));
    }
  }
}

TEST(HierarchyIO, FindByTreeNumberRejectsMalformedAndOutOfRange) {
  // root -> Anatomy (A01) -> Body Regions (A01.001);
  // root -> Diseases (B02) -> Neoplasms (B02.001) -> By Site (B02.001.001).
  ConceptHierarchy h = MakeSample();
  EXPECT_EQ(h.FindByTreeNumber(""), ConceptHierarchy::kRoot);
  EXPECT_EQ(h.FindByTreeNumber("B02.001.001"),
            h.FindByLabel("Neoplasms by Site"));
  for (const char* text :
       {"A01.", ".A01", "A01..001", "A1", "A001", "a01", "01", "A0x", "B01",
        "A01.1", "A01.01", "A01.0001", "A01.000", "A01.00x", "A01.+01",
        "A01.-01", "A01.001 ", " A01", "A01.99999999999999999999999",
        "A01.001.001", "C03", "A01.002", "B02.001.002", "Z99"}) {
    EXPECT_EQ(h.FindByTreeNumber(text), kInvalidConcept) << text;
  }
}

TEST(HierarchyIO, FindByTreeNumberResolvesCategoryCollisions) {
  // A top-level component keeps two digits of the ordinal, so the 1st and
  // the 1301st child of the root are both "A01": the bare number names the
  // lower id, and a longer one names whichever subtree holds the path.
  ConceptHierarchy h;
  std::vector<ConceptId> tops;
  for (int i = 0; i < 1400; ++i) {
    tops.push_back(h.AddNode(ConceptHierarchy::kRoot, "c"));
  }
  ConceptId deep = h.AddNode(tops[1300], "deep");
  h.Freeze();
  EXPECT_EQ(h.tree_number(tops[1300]).ToString(), "A01");
  EXPECT_EQ(h.FindByTreeNumber("A01"), tops[0]);
  EXPECT_EQ(h.FindByTreeNumber("A01.001"), deep);
  EXPECT_EQ(h.FindByTreeNumber("Z00"), tops[1299]);
}

/// FNV-1a of a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(HierarchyIO, DatabaseStreamBytesAreStable) {
  // Recorded from the format's stored-tree-number implementation: deriving
  // tree numbers on demand must write the very same database bytes.
  HierarchyGeneratorOptions ho;
  ho.target_nodes = 800;
  ConceptHierarchy h = GenerateMeshLikeHierarchy(ho);
  QuerySpec spec;
  spec.name = "io";
  spec.keyword = "ioquery";
  spec.result_size = 60;
  spec.target_depth = 3;
  CorpusGeneratorOptions co;
  co.background_citations = 300;
  auto corpus = GenerateCorpus(h, {spec}, co);
  std::ostringstream out;
  ASSERT_TRUE(WriteDatabaseStream(h, corpus->store, corpus->associations, &out)
                  .ok());
  EXPECT_EQ(out.str().size(), 217244u);
  EXPECT_EQ(Fnv1a(out.str()), 0x7f50236dcd28485cull);
}

TEST(HierarchyIO, MissingFileIsIOError) {
  auto r = ReadHierarchyFromFile("/nonexistent/path/x.tsv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace bionav
