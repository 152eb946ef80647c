#include "core/navigation_tree.h"

#include <set>

#include <gtest/gtest.h>

#include "test_support.h"
#include "workload/workload.h"

namespace bionav {
namespace {

using ::bionav::testing::MiniFixture;
using ::bionav::testing::RandomInstance;
using ::bionav::testing::ReferenceSubtreeDistinct;

TEST(NavigationTree, MiniFixtureStructure) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->result().size(), 8u);

  // Concepts with no attached result citations are embedded away; 'Genetic
  // Processes' has only background citations, so it must not appear even
  // though its descendants do.
  EXPECT_EQ(nav->NodeOfConcept(f.genetic), kInvalidNavNode);
  EXPECT_NE(nav->NodeOfConcept(f.expression), kInvalidNavNode);
  EXPECT_NE(nav->NodeOfConcept(f.apoptosis), kInvalidNavNode);
  // 'Biological Phenomena' itself has no direct citations.
  EXPECT_EQ(nav->NodeOfConcept(f.bio), kInvalidNavNode);
}

TEST(NavigationTree, MaximumEmbeddingPreservesAncestry) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // 'Gene Expression' (kept) is spliced directly under the root since its
  // hierarchy ancestor 'Genetic Processes' is empty.
  NavNodeId expr = nav->NodeOfConcept(f.expression);
  ASSERT_NE(expr, kInvalidNavNode);
  EXPECT_EQ(nav->node(expr).parent, NavigationTree::kRoot);
  // 'Apoptosis' hangs under 'Cell Death' which is kept.
  NavNodeId apo = nav->NodeOfConcept(f.apoptosis);
  NavNodeId death = nav->NodeOfConcept(f.death);
  ASSERT_NE(apo, kInvalidNavNode);
  ASSERT_NE(death, kInvalidNavNode);
  EXPECT_EQ(nav->node(apo).parent, death);
}

TEST(NavigationTree, AttachedCountsMatchAssociations) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // Citations 2, 5, 6 mention proliferation.
  NavNodeId prolif = nav->NodeOfConcept(f.proliferation);
  ASSERT_NE(prolif, kInvalidNavNode);
  EXPECT_EQ(nav->node(prolif).attached_count, 3);
  // Global count includes background citation 101.
  EXPECT_EQ(nav->node(prolif).global_count, 4);
}

TEST(NavigationTree, RootKeptEvenIfEmpty) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->node(NavigationTree::kRoot).concept_id,
            ConceptHierarchy::kRoot);
  EXPECT_EQ(nav->node(NavigationTree::kRoot).attached_count, 0);
}

TEST(NavigationTree, EmptyResultYieldsRootOnlyTree) {
  MiniFixture f;
  auto nav = f.BuildNav("nosuchterm");
  EXPECT_EQ(nav->size(), 1u);
  EXPECT_EQ(nav->result().size(), 0u);
}

TEST(NavigationTree, SubtreeResultsCountsDistinct) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // All 8 result citations appear somewhere in the tree.
  EXPECT_EQ(nav->SubtreeResults(NavigationTree::kRoot).Count(), 8u);
  // Cell Death subtree: citations 1 (apoptosis+death), 4 (necrosis+death),
  // 6 (apoptosis), 7 (autophagy) -> 4 distinct.
  NavNodeId death = nav->NodeOfConcept(f.death);
  EXPECT_EQ(nav->SubtreeResults(death).Count(), 4u);
}

TEST(NavigationTree, TotalAttachedWithDuplicates) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  // Sum of per-citation association counts for the 8 result citations:
  // 3+3+2+2+2+2+1+2 = 17.
  EXPECT_EQ(nav->TotalAttachedWithDuplicates(), 17);
}

TEST(NavigationTree, PreOrderStorageAndSubtreeIntervals) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav->size()); ++id) {
    EXPECT_LT(nav->node(id).parent, id);  // Parents precede children.
  }
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav->size()); ++id) {
    NavNodeId end = nav->SubtreeEnd(id);
    EXPECT_GT(end, id);
    // All nodes in [id, end) are descendants-or-self; all outside are not.
    for (NavNodeId other = 0; other < static_cast<NavNodeId>(nav->size());
         ++other) {
      bool in_interval = other >= id && other < end;
      EXPECT_EQ(nav->IsAncestorOrSelf(id, other), in_interval);
    }
  }
}

TEST(NavigationTree, HeightAndWidthOnMini) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_GE(nav->Height(), 2);
  EXPECT_GE(nav->MaxWidth(), 2);
  EXPECT_LE(nav->MaxWidth(), static_cast<int>(nav->size()));
}

TEST(NavigationTree, NodeDepthConsistent) {
  MiniFixture f;
  auto nav = f.BuildNav("prothymosin");
  EXPECT_EQ(nav->NodeDepth(NavigationTree::kRoot), 0);
  int max_depth = 0;
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav->size()); ++id) {
    max_depth = std::max(max_depth, nav->NodeDepth(id));
  }
  EXPECT_EQ(max_depth, nav->Height());
}

class NavigationTreePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(NavigationTreePropertyTest, InvariantsOnRandomInstances) {
  RandomInstance inst(GetParam(), 400, 50);
  const NavigationTree& nav = *inst.nav;

  // 1. Every node except the root has attached citations (Definition 2).
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_GT(nav.node(id).attached_count, 0);
  }

  // 2. Navigation parenthood = nearest kept ancestor in the hierarchy.
  for (NavNodeId id = 1; id < static_cast<NavNodeId>(nav.size()); ++id) {
    ConceptId c = nav.node(id).concept_id;
    ConceptId p = inst.hierarchy.parent(c);
    while (p != kInvalidConcept && nav.NodeOfConcept(p) == kInvalidNavNode) {
      p = inst.hierarchy.parent(p);
    }
    ASSERT_NE(p, kInvalidConcept);
    EXPECT_EQ(nav.node(id).parent, nav.NodeOfConcept(p));
  }

  // 3. Bitset counts agree with a set-based reference.
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_EQ(static_cast<int>(nav.SubtreeResults(id).Count()),
              ReferenceSubtreeDistinct(nav, id));
  }

  // 4. Every result citation is attached somewhere.
  EXPECT_EQ(nav.SubtreeResults(NavigationTree::kRoot).Count(),
            nav.result().size());

  // 5. Attached count equals per-node bitset count.
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    EXPECT_EQ(static_cast<size_t>(nav.node(id).attached_count),
              nav.node(id).results.Count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavigationTreePropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// Brute-force reference for Definition 2: materialize the initial navigation
// tree over the FULL hierarchy (every concept, its L(n)), then splice out
// every empty non-root node bottom-up, handing its children to its parent
// in place. The survivors, read in pre-order, are the maximum embedding.
struct ReferenceNode {
  ConceptId concept_id;
  NavNodeId parent;
  std::vector<uint32_t> results;
  int64_t global_count;
};

std::vector<ReferenceNode> ReferenceEmbedding(
    const ConceptHierarchy& hierarchy, const AssociationTable& associations,
    const ResultSet& result) {
  const size_t n = hierarchy.size();
  std::vector<std::set<uint32_t>> attached(n);
  for (size_t i = 0; i < result.size(); ++i) {
    for (ConceptId c : associations.ConceptsOf(result.citation(i))) {
      attached[static_cast<size_t>(c)].insert(static_cast<uint32_t>(i));
    }
  }
  std::vector<std::vector<ConceptId>> children(n);
  for (size_t c = 0; c < n; ++c) {
    children[c] = hierarchy.children(static_cast<ConceptId>(c));
  }
  hierarchy.PostOrder([&](ConceptId u) {
    std::vector<ConceptId> kept;
    for (ConceptId c : children[static_cast<size_t>(u)]) {
      if (attached[static_cast<size_t>(c)].empty()) {
        for (ConceptId g : children[static_cast<size_t>(c)]) kept.push_back(g);
      } else {
        kept.push_back(c);
      }
    }
    children[static_cast<size_t>(u)] = std::move(kept);
  });
  std::vector<ReferenceNode> out;
  std::vector<std::pair<ConceptId, NavNodeId>> stack = {
      {ConceptHierarchy::kRoot, kInvalidNavNode}};
  while (!stack.empty()) {
    auto [c, parent] = stack.back();
    stack.pop_back();
    const std::set<uint32_t>& l = attached[static_cast<size_t>(c)];
    out.push_back({c, parent, std::vector<uint32_t>(l.begin(), l.end()),
                   associations.GlobalCount(c)});
    NavNodeId id = static_cast<NavNodeId>(out.size() - 1);
    const std::vector<ConceptId>& ch = children[static_cast<size_t>(c)];
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      stack.push_back({*it, id});
    }
  }
  return out;
}

void ExpectMatchesReference(const NavigationTree& nav,
                            const std::vector<ReferenceNode>& reference) {
  ASSERT_EQ(nav.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    const ReferenceNode& want = reference[i];
    EXPECT_EQ(nav.concept_of(id), want.concept_id) << "node " << i;
    EXPECT_EQ(nav.parent(id), want.parent) << "node " << i;
    EXPECT_EQ(nav.global_count(id), want.global_count) << "node " << i;
    std::vector<uint32_t> got;
    for (size_t k : nav.results(id).ToIndexes()) {
      got.push_back(static_cast<uint32_t>(k));
    }
    EXPECT_EQ(got, want.results) << "node " << i;
    EXPECT_EQ(nav.attached_count(id), static_cast<int>(want.results.size()));
  }
}

// A random hierarchy and a random corpus over it: citations carry random
// concept sets, some include the root, some both a concept and one of its
// ancestors. The result is a random subset of the citations.
struct RandomEmbeddingCase {
  ConceptHierarchy hierarchy;
  AssociationTable associations{0};
  std::shared_ptr<const ResultSet> result;

  explicit RandomEmbeddingCase(uint64_t seed) {
    Rng rng(seed);
    HierarchyGeneratorOptions options;
    options.seed = seed;
    options.target_nodes = static_cast<int>(50 + rng.Uniform(600));
    options.num_categories = static_cast<int>(1 + rng.Uniform(6));
    options.top_branching = 3.0 + static_cast<double>(rng.Uniform(6));
    hierarchy = GenerateMeshLikeHierarchy(options);
    associations = AssociationTable(hierarchy.size());
    const int citations = static_cast<int>(1 + rng.Uniform(120));
    std::vector<CitationId> hits;
    for (CitationId cid = 0; cid < citations; ++cid) {
      int k = static_cast<int>(rng.Uniform(5));
      for (int j = 0; j < k; ++j) {
        ConceptId c = static_cast<ConceptId>(rng.Uniform(hierarchy.size()));
        associations.Associate(cid, c, AssociationKind::kAnnotated);
        if (rng.Bernoulli(0.3) && hierarchy.parent(c) != kInvalidConcept) {
          associations.Associate(cid, hierarchy.parent(c),
                                 AssociationKind::kIndexed);
        }
      }
      if (rng.Bernoulli(0.05)) {
        associations.Associate(cid, ConceptHierarchy::kRoot,
                               AssociationKind::kAnnotated);
      }
      if (rng.Bernoulli(0.6)) hits.push_back(cid);
    }
    // Unsorted result order, as a ranked search could return it.
    for (size_t i = hits.size(); i > 1; --i) {
      std::swap(hits[i - 1], hits[rng.Uniform(i)]);
    }
    result = std::make_shared<const ResultSet>(hits);
  }
};

class NavigationTreeReferenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(NavigationTreeReferenceTest, MatchesBruteForceMaximumEmbedding) {
  RandomEmbeddingCase c(GetParam());
  NavigationTree nav(c.hierarchy, c.associations, c.result);
  ExpectMatchesReference(
      nav, ReferenceEmbedding(c.hierarchy, c.associations, *c.result));
}

TEST_P(NavigationTreeReferenceTest, NodeOfConceptMatchesDenseMap) {
  RandomEmbeddingCase c(GetParam());
  NavigationTree nav(c.hierarchy, c.associations, c.result);
  std::vector<NavNodeId> dense(c.hierarchy.size(), kInvalidNavNode);
  for (NavNodeId id = 0; id < static_cast<NavNodeId>(nav.size()); ++id) {
    dense[static_cast<size_t>(nav.concept_of(id))] = id;
  }
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) nav.Freeze();
    for (ConceptId k = 0; k < static_cast<ConceptId>(c.hierarchy.size());
         ++k) {
      EXPECT_EQ(nav.NodeOfConcept(k), dense[static_cast<size_t>(k)])
          << "concept " << k << (nav.frozen() ? " (frozen)" : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavigationTreeReferenceTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(NavigationTreeReference, RootAncestorAndDescendantCitations) {
  // root -> a -> a1 -> a1x, root -> b. Citation 0 sits on the root and on
  // a1x, citation 1 on both a and its descendant a1x, citation 2 on b only;
  // a1 stays empty and is spliced out.
  ConceptHierarchy h;
  ConceptId a = h.AddNode(ConceptHierarchy::kRoot, "a");
  ConceptId a1 = h.AddNode(a, "a1");
  ConceptId a1x = h.AddNode(a1, "a1x");
  ConceptId b = h.AddNode(ConceptHierarchy::kRoot, "b");
  h.Freeze();
  AssociationTable assoc(h.size());
  assoc.Associate(0, ConceptHierarchy::kRoot, AssociationKind::kAnnotated);
  assoc.Associate(0, a1x, AssociationKind::kAnnotated);
  assoc.Associate(1, a, AssociationKind::kAnnotated);
  assoc.Associate(1, a1x, AssociationKind::kIndexed);
  assoc.Associate(2, b, AssociationKind::kAnnotated);
  auto result = std::make_shared<const ResultSet>(
      std::vector<CitationId>{2, 1, 0});
  NavigationTree nav(h, assoc, result);
  ExpectMatchesReference(nav, ReferenceEmbedding(h, assoc, *result));
  ASSERT_EQ(nav.size(), 4u);
  EXPECT_EQ(nav.attached_count(NavigationTree::kRoot), 1);
  EXPECT_EQ(nav.NodeOfConcept(a1), kInvalidNavNode);
  EXPECT_EQ(nav.parent(nav.NodeOfConcept(a1x)), nav.NodeOfConcept(a));

  // The empty result keeps only the root.
  auto empty = std::make_shared<const ResultSet>(std::vector<CitationId>{});
  NavigationTree bare(h, assoc, empty);
  ExpectMatchesReference(bare, ReferenceEmbedding(h, assoc, *empty));
  EXPECT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare.NodeOfConcept(b), kInvalidNavNode);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t Fnv1aValue(uint64_t h, T value) {
  return Fnv1a(h, &value, sizeof(value));
}

/// FNV-1a over every serialized record's fields, in native byte order.
uint64_t TreeFingerprint(const NavigationTree& nav) {
  uint64_t h = 1469598103934665603ull;
  for (const SerializedNavNode& rec : nav.ToSerializedNodes()) {
    h = Fnv1aValue<int32_t>(h, rec.concept_id);
    h = Fnv1aValue<int32_t>(h, rec.parent);
    h = Fnv1aValue<int64_t>(h, rec.global_count);
    h = Fnv1aValue<uint64_t>(h, rec.result_indexes.size());
    for (uint32_t i : rec.result_indexes) h = Fnv1aValue<uint32_t>(h, i);
  }
  return h;
}

TEST(NavigationTreeGolden, PaperQueriesAtTestScale) {
  // Targets and tree fingerprints of the ten paper queries on the
  // 4000-concept workload, recorded from the full-hierarchy sweep this
  // builder replaced: the corpus generator's target picks and every tree
  // must stay bit-identical.
  struct Golden {
    ConceptId target;
    size_t size;
    uint64_t fingerprint;
  };
  const Golden kGolden[] = {
      {462, 199, 0xa0aa4d77ed55a348ull},  {3362, 126, 0x44deb8b4f863e02cull},
      {1719, 119, 0xe815faf25c66e1a6ull}, {1703, 169, 0x3b7b27c359d10008ull},
      {1533, 266, 0x99d79c7f1769af94ull}, {3564, 321, 0xeec4749d42bb8bb6ull},
      {256, 345, 0x7f16e1c6d58eec2aull},  {3782, 424, 0x16b79a6190624173ull},
      {2132, 239, 0xc77ec576829ca155ull}, {826, 649, 0x67ef5f1a01ec887full},
  };
  WorkloadOptions options;
  options.hierarchy_nodes = 4000;
  options.background_citations = 3000;
  options.result_scale = 0.25;
  Workload w(options);
  ASSERT_EQ(w.num_queries(), std::size(kGolden));
  for (size_t i = 0; i < w.num_queries(); ++i) {
    EXPECT_EQ(w.query(i).target, kGolden[i].target) << "query " << i;
    auto nav = w.BuildNavigationTree(i);
    EXPECT_EQ(nav->size(), kGolden[i].size) << "query " << i;
    EXPECT_EQ(TreeFingerprint(*nav), kGolden[i].fingerprint)
        << "query " << i;
  }
}

}  // namespace
}  // namespace bionav
