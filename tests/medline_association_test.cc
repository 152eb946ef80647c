#include "medline/association_table.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace bionav {
namespace {

TEST(AssociationTable, StartsEmpty) {
  AssociationTable t(10);
  EXPECT_EQ(t.num_concepts(), 10u);
  EXPECT_EQ(t.TotalPairs(), 0);
  EXPECT_EQ(t.GlobalCount(3), 0);
  EXPECT_TRUE(t.ConceptsOf(0).empty());
}

TEST(AssociationTable, AssociateUpdatesBothDirections) {
  AssociationTable t(5);
  t.Associate(0, 2, AssociationKind::kAnnotated);
  t.Associate(0, 3, AssociationKind::kIndexed);
  t.Associate(1, 2, AssociationKind::kIndexed);

  EXPECT_EQ(t.TotalPairs(), 3);
  EXPECT_EQ(t.GlobalCount(2), 2);
  EXPECT_EQ(t.GlobalCount(3), 1);
  std::vector<ConceptId> c0 = t.ConceptsOf(0);
  std::sort(c0.begin(), c0.end());
  EXPECT_EQ(c0, (std::vector<ConceptId>{2, 3}));
  EXPECT_EQ(t.ConceptsOf(1), (std::vector<ConceptId>{2}));
}

TEST(AssociationTable, DuplicatePairsIgnored) {
  AssociationTable t(5);
  t.Associate(0, 2, AssociationKind::kAnnotated);
  t.Associate(0, 2, AssociationKind::kAnnotated);
  t.Associate(0, 2, AssociationKind::kIndexed);  // Same pair, other kind.
  EXPECT_EQ(t.TotalPairs(), 1);
  EXPECT_EQ(t.GlobalCount(2), 1);
  EXPECT_EQ(t.ConceptsOf(0).size(), 1u);
}

TEST(AssociationTable, KindFiltering) {
  AssociationTable t(5);
  t.Associate(0, 1, AssociationKind::kAnnotated);
  t.Associate(0, 2, AssociationKind::kIndexed);
  t.Associate(0, 3, AssociationKind::kAnnotated);

  std::vector<ConceptId> annotated =
      t.ConceptsOf(0, AssociationKind::kAnnotated);
  std::sort(annotated.begin(), annotated.end());
  EXPECT_EQ(annotated, (std::vector<ConceptId>{1, 3}));
  EXPECT_EQ(t.ConceptsOf(0, AssociationKind::kIndexed),
            (std::vector<ConceptId>{2}));
}

TEST(AssociationTable, UnknownCitationHasNoConcepts) {
  AssociationTable t(5);
  t.Associate(0, 1, AssociationKind::kAnnotated);
  EXPECT_TRUE(t.ConceptsOf(99).empty());
  EXPECT_TRUE(t.ConceptsOf(99, AssociationKind::kIndexed).empty());
}

TEST(AssociationTable, ViewStaysFreshAfterUpdates) {
  AssociationTable t(5);
  t.Associate(0, 1, AssociationKind::kAnnotated);
  EXPECT_EQ(t.ConceptsOf(0).size(), 1u);  // Materializes the cached view.
  t.Associate(0, 2, AssociationKind::kAnnotated);
  EXPECT_EQ(t.ConceptsOf(0).size(), 2u);  // View must refresh.
}

TEST(AssociationTable, SparseCitationIdsGrowTable) {
  AssociationTable t(5);
  t.Associate(1000, 4, AssociationKind::kIndexed);
  EXPECT_EQ(t.ConceptsOf(1000), (std::vector<ConceptId>{4}));
  EXPECT_TRUE(t.ConceptsOf(500).empty());
}

TEST(AssociationTable, KindsOfLongAnnotationListsSurvive) {
  // Past 64 pairs a citation's kinds leave the per-citation bit mask;
  // both stores must answer in association order.
  AssociationTable t(200);
  std::vector<ConceptId> annotated, indexed;
  for (ConceptId c = 0; c < 150; ++c) {
    bool is_indexed = c % 3 == 0 || (c > 60 && c < 70);
    t.Associate(7, c,
                is_indexed ? AssociationKind::kIndexed
                           : AssociationKind::kAnnotated);
    (is_indexed ? indexed : annotated).push_back(c);
  }
  t.Associate(7, 65, AssociationKind::kAnnotated);  // Duplicate: ignored.
  EXPECT_EQ(t.ConceptsOf(7).size(), 150u);
  EXPECT_EQ(t.ConceptsOf(7, AssociationKind::kAnnotated), annotated);
  EXPECT_EQ(t.ConceptsOf(7, AssociationKind::kIndexed), indexed);
  EXPECT_EQ(t.TotalPairs(), 150);
}

TEST(AssociationTableDeath, ConceptOutOfRangeAborts) {
  AssociationTable t(5);
  EXPECT_DEATH(t.Associate(0, 5, AssociationKind::kAnnotated),
               "Check failed");
  EXPECT_DEATH(t.GlobalCount(7), "Check failed");
}

}  // namespace
}  // namespace bionav
