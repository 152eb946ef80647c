#ifndef BIONAV_MEDLINE_ASSOCIATION_TABLE_H_
#define BIONAV_MEDLINE_ASSOCIATION_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarchy/concept_hierarchy.h"
#include "medline/citation_store.h"

namespace bionav {

/// How a citation is associated with a MeSH concept (paper Section VII).
/// MEDLINE explicitly *annotates* each citation with ~20 concepts; PubMed's
/// own indexing additionally associates ~90 concepts per citation through
/// text mentions. BioNav's offline pre-processing collected the latter; we
/// keep both so the difference can be studied.
enum class AssociationKind : uint8_t {
  kAnnotated = 0,  // MEDLINE descriptor annotation.
  kIndexed = 1,    // PubMed keyword-index association (superset in spirit).
};

/// The concept<->citation association store: BioNav's offline-built
/// "747 million tuple" table, scaled down and kept in memory. Provides both
/// directions (concept -> citations for global counts, citation -> concepts
/// for navigation-tree construction) plus the per-concept corpus-wide count
/// |LT(n)| that the EXPLORE probability needs.
class AssociationTable {
 public:
  /// `num_concepts` is hierarchy.size(); citations may be added afterwards.
  explicit AssociationTable(size_t num_concepts);

  AssociationTable(const AssociationTable&) = delete;
  AssociationTable& operator=(const AssociationTable&) = delete;
  AssociationTable(AssociationTable&&) = default;
  AssociationTable& operator=(AssociationTable&&) = default;

  /// Makes room for citation ids below `citations` without regrowing the
  /// per-citation tables as pairs arrive.
  void Reserve(size_t citations) {
    concepts_.reserve(citations);
    indexed_bits_.reserve(citations);
  }

  /// Records that `citation` is associated with `concept`. Duplicate pairs
  /// are ignored (a citation is associated with a concept at most once, as
  /// in the de-normalized BioNav table).
  void Associate(CitationId citation, ConceptId concept_id,
                 AssociationKind kind);

  /// One (concept, kind) pair of a citation.
  using Pair = std::pair<ConceptId, AssociationKind>;

  /// Associates `pairs` in order, as one Associate call per pair would,
  /// but grows the citation's list once rather than doubling it up from
  /// one. For a citation whose pairs are all known together.
  void Associate(CitationId citation, const std::vector<Pair>& pairs);

  /// Concepts associated with the citation (both kinds), in association
  /// order. Pure read, so a table no longer being written is safe to share
  /// read-only across parallel sessions.
  const std::vector<ConceptId>& ConceptsOf(CitationId citation) const;

  /// Concepts of a citation restricted to one association kind.
  std::vector<ConceptId> ConceptsOf(CitationId citation,
                                    AssociationKind kind) const;

  /// Corpus-wide number of citations associated with the concept — the
  /// paper's |LT(n)| ("Citations of Target Concept in MEDLINE").
  int64_t GlobalCount(ConceptId concept_id) const {
    BIONAV_CHECK_GE(concept_id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(concept_id), global_counts_.size());
    return global_counts_[static_cast<size_t>(concept_id)];
  }

  /// Total number of (concept, citation) association pairs.
  int64_t TotalPairs() const { return total_pairs_; }

  size_t num_concepts() const { return global_counts_.size(); }

 private:
  static constexpr size_t kMaskedPairs = 64;

  AssociationKind KindOf(size_t citation, size_t pair) const;

  /// The citation's concept list, growing the per-citation tables to hold
  /// it.
  std::vector<ConceptId>& ListOf(CitationId citation);

  /// Appends one pair to `concepts`, the citation's list, unless the
  /// concept is on it already.
  void AddPair(CitationId citation, std::vector<ConceptId>* concepts,
               ConceptId concept_id, AssociationKind kind);

  // citation -> concepts in association order, grown on demand: the view
  // ConceptsOf serves.
  std::vector<std::vector<ConceptId>> concepts_;
  // citation -> kinds of its first 64 pairs, one bit each (set: kIndexed);
  // kinds of later pairs go to overflow_kinds_. The synthetic corpora stay
  // under 64 pairs per citation, so there a pair's kind costs one bit
  // rather than a second copy of the pair.
  std::vector<uint64_t> indexed_bits_;
  std::unordered_map<CitationId, std::vector<AssociationKind>> overflow_kinds_;
  std::vector<int64_t> global_counts_;
  int64_t total_pairs_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_MEDLINE_ASSOCIATION_TABLE_H_
