#include "hierarchy/concept_hierarchy.h"

#include <set>

#include <gtest/gtest.h>

namespace bionav {
namespace {

ConceptHierarchy MakeSample() {
  // root -> {a -> {a1, a2 -> {a2x}}, b -> {b1}}
  ConceptHierarchy h;
  ConceptId a = h.AddNode(ConceptHierarchy::kRoot, "a");
  h.AddNode(a, "a1");
  ConceptId a2 = h.AddNode(a, "a2");
  h.AddNode(a2, "a2x");
  ConceptId b = h.AddNode(ConceptHierarchy::kRoot, "b");
  h.AddNode(b, "b1");
  h.Freeze();
  return h;
}

TEST(ConceptHierarchy, RootExistsBeforeAnyAdd) {
  ConceptHierarchy h;
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.label(ConceptHierarchy::kRoot), "MeSH");
  EXPECT_EQ(h.parent(ConceptHierarchy::kRoot), kInvalidConcept);
}

TEST(ConceptHierarchy, AddNodeLinksParentAndChildren) {
  ConceptHierarchy h;
  ConceptId a = h.AddNode(ConceptHierarchy::kRoot, "a");
  ConceptId a1 = h.AddNode(a, "a1");
  EXPECT_EQ(h.parent(a), ConceptHierarchy::kRoot);
  EXPECT_EQ(h.parent(a1), a);
  ASSERT_EQ(h.children(a).size(), 1u);
  EXPECT_EQ(h.children(a)[0], a1);
}

TEST(ConceptHierarchy, DepthAndHeight) {
  ConceptHierarchy h = MakeSample();
  EXPECT_EQ(h.depth(ConceptHierarchy::kRoot), 0);
  EXPECT_EQ(h.depth(h.FindByLabel("a")), 1);
  EXPECT_EQ(h.depth(h.FindByLabel("a2x")), 3);
  EXPECT_EQ(h.height(), 3);
}

TEST(ConceptHierarchy, LevelWidths) {
  ConceptHierarchy h = MakeSample();
  const std::vector<int>& w = h.LevelWidths();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], 1);  // root
  EXPECT_EQ(w[1], 2);  // a, b
  EXPECT_EQ(w[2], 3);  // a1, a2, b1
  EXPECT_EQ(w[3], 1);  // a2x
}

TEST(ConceptHierarchy, AncestorQueries) {
  ConceptHierarchy h = MakeSample();
  ConceptId a = h.FindByLabel("a");
  ConceptId a2 = h.FindByLabel("a2");
  ConceptId a2x = h.FindByLabel("a2x");
  ConceptId b = h.FindByLabel("b");

  EXPECT_TRUE(h.IsAncestorOrSelf(ConceptHierarchy::kRoot, a2x));
  EXPECT_TRUE(h.IsAncestorOrSelf(a, a2x));
  EXPECT_TRUE(h.IsAncestorOrSelf(a2, a2x));
  EXPECT_TRUE(h.IsAncestorOrSelf(a2x, a2x));
  EXPECT_FALSE(h.IsAncestorOrSelf(a2x, a2));
  EXPECT_FALSE(h.IsAncestorOrSelf(b, a2x));
  EXPECT_FALSE(h.IsAncestorOrSelf(a, b));
}

TEST(ConceptHierarchy, FindByLabel) {
  ConceptHierarchy h = MakeSample();
  EXPECT_NE(h.FindByLabel("a2x"), kInvalidConcept);
  EXPECT_EQ(h.FindByLabel("zzz"), kInvalidConcept);
}

TEST(ConceptHierarchy, TreeNumbersUniqueAndConsistent) {
  ConceptHierarchy h = MakeSample();
  std::set<std::string> seen;
  h.PreOrder([&](ConceptId id) {
    std::string tn = h.tree_number(id).ToString();
    EXPECT_TRUE(seen.insert(tn).second) << "duplicate tree number " << tn;
    // Parent's tree number is the parent prefix.
    if (id != ConceptHierarchy::kRoot) {
      EXPECT_EQ(h.tree_number(id).Parent().ToString(),
                h.tree_number(h.parent(id)).ToString());
    }
    EXPECT_EQ(h.FindByTreeNumber(tn), id);
  });
}

TEST(ConceptHierarchy, PreOrderVisitsParentsFirst) {
  ConceptHierarchy h = MakeSample();
  std::vector<ConceptId> order;
  h.PreOrder([&](ConceptId id) { order.push_back(id); });
  EXPECT_EQ(order.size(), h.size());
  std::vector<int> pos(h.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (ConceptId id = 1; id < static_cast<ConceptId>(h.size()); ++id) {
    EXPECT_LT(pos[static_cast<size_t>(h.parent(id))],
              pos[static_cast<size_t>(id)]);
  }
}

TEST(ConceptHierarchy, PostOrderVisitsChildrenFirst) {
  ConceptHierarchy h = MakeSample();
  std::vector<ConceptId> order;
  h.PostOrder([&](ConceptId id) { order.push_back(id); });
  EXPECT_EQ(order.size(), h.size());
  std::vector<int> pos(h.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (ConceptId id = 1; id < static_cast<ConceptId>(h.size()); ++id) {
    EXPECT_GT(pos[static_cast<size_t>(h.parent(id))],
              pos[static_cast<size_t>(id)]);
  }
  EXPECT_EQ(order.back(), ConceptHierarchy::kRoot);
}

TEST(ConceptHierarchy, PathFromRoot) {
  ConceptHierarchy h = MakeSample();
  ConceptId a2x = h.FindByLabel("a2x");
  std::vector<ConceptId> path = h.PathFromRoot(a2x);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), ConceptHierarchy::kRoot);
  EXPECT_EQ(path.back(), a2x);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(h.parent(path[i]), path[i - 1]);
  }
}

TEST(ConceptHierarchy, SubtreeIsPreOrderAndComplete) {
  ConceptHierarchy h = MakeSample();
  ConceptId a = h.FindByLabel("a");
  std::vector<ConceptId> sub = h.Subtree(a);
  EXPECT_EQ(sub.size(), 4u);  // a, a1, a2, a2x
  EXPECT_EQ(sub.front(), a);
  for (ConceptId id : sub) EXPECT_TRUE(h.IsAncestorOrSelf(a, id));
}

TEST(ConceptHierarchy, RenameNodeUpdatesLookups) {
  ConceptHierarchy h = MakeSample();
  ConceptId a2 = h.FindByLabel("a2");
  h.RenameNode(a2, "Apoptosis");
  EXPECT_EQ(h.label(a2), "Apoptosis");
  EXPECT_EQ(h.FindByLabel("Apoptosis"), a2);
  EXPECT_EQ(h.FindByLabel("a2"), kInvalidConcept);
}

TEST(ConceptHierarchy, RenameKeepsSharedLabelFindable) {
  // Nodes 1 and 2 are both "Cells": renaming node 1 must hand the label's
  // lookup to node 2 instead of dropping it.
  ConceptHierarchy h;
  ConceptId first = h.AddNode(ConceptHierarchy::kRoot, "Cells");
  ConceptId second = h.AddNode(ConceptHierarchy::kRoot, "Cells");
  ConceptId third = h.AddNode(second, "Cells");
  h.Freeze();
  ASSERT_EQ(h.FindByLabel("Cells"), first);
  h.RenameNode(first, "Neurons");
  EXPECT_EQ(h.FindByLabel("Cells"), second);
  EXPECT_EQ(h.FindByLabel("Neurons"), first);
  h.RenameNode(second, "Glia");
  EXPECT_EQ(h.FindByLabel("Cells"), third);
  h.RenameNode(third, "Glia");
  EXPECT_EQ(h.FindByLabel("Cells"), kInvalidConcept);
  EXPECT_EQ(h.FindByLabel("Glia"), second);
  // A lower id taking an existing label becomes its lookup target.
  h.RenameNode(first, "Glia");
  EXPECT_EQ(h.FindByLabel("Glia"), first);
}

TEST(ConceptHierarchy, PreOrderRankMatchesPreOrderVisit) {
  ConceptHierarchy h = MakeSample();
  int visit = 0;
  h.PreOrder([&](ConceptId id) { EXPECT_EQ(h.pre_order_rank(id), visit++); });
  EXPECT_EQ(visit, static_cast<int>(h.size()));
}

TEST(ConceptHierarchyDeath, AddAfterFreezeAborts) {
  ConceptHierarchy h = MakeSample();
  EXPECT_DEATH(h.AddNode(ConceptHierarchy::kRoot, "late"), "frozen");
}

TEST(ConceptHierarchyDeath, DoubleFreezeAborts) {
  ConceptHierarchy h = MakeSample();
  EXPECT_DEATH(h.Freeze(), "Freeze called twice");
}

TEST(ConceptHierarchyDeath, DepthRequiresFreeze) {
  ConceptHierarchy h;
  h.AddNode(ConceptHierarchy::kRoot, "a");
  EXPECT_DEATH(h.depth(0), "frozen");
}

}  // namespace
}  // namespace bionav
