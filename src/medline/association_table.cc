#include "medline/association_table.h"

#include <algorithm>

namespace bionav {

AssociationTable::AssociationTable(size_t num_concepts)
    : global_counts_(num_concepts, 0) {}

std::vector<ConceptId>& AssociationTable::ListOf(CitationId citation) {
  BIONAV_CHECK_GE(citation, 0);
  const size_t c = static_cast<size_t>(citation);
  if (c >= concepts_.size()) {
    concepts_.resize(c + 1);
    indexed_bits_.resize(c + 1, 0);
  }
  return concepts_[c];
}

void AssociationTable::AddPair(CitationId citation,
                               std::vector<ConceptId>* concepts,
                               ConceptId concept_id, AssociationKind kind) {
  BIONAV_CHECK_GE(concept_id, 0);
  BIONAV_CHECK_LT(static_cast<size_t>(concept_id), global_counts_.size());
  if (std::find(concepts->begin(), concepts->end(), concept_id) !=
      concepts->end()) {
    return;  // Duplicate pair: ignore.
  }
  const size_t pair = concepts->size();
  concepts->push_back(concept_id);
  if (pair >= kMaskedPairs) {
    overflow_kinds_[citation].push_back(kind);
  } else if (kind == AssociationKind::kIndexed) {
    indexed_bits_[static_cast<size_t>(citation)] |= uint64_t{1} << pair;
  }
  global_counts_[static_cast<size_t>(concept_id)]++;
  total_pairs_++;
}

void AssociationTable::Associate(CitationId citation, ConceptId concept_id,
                                 AssociationKind kind) {
  AddPair(citation, &ListOf(citation), concept_id, kind);
}

void AssociationTable::Associate(CitationId citation,
                                 const std::vector<Pair>& pairs) {
  std::vector<ConceptId>& concepts = ListOf(citation);
  concepts.reserve(concepts.size() + pairs.size());
  for (const auto& [concept_id, kind] : pairs) {
    AddPair(citation, &concepts, concept_id, kind);
  }
}

const std::vector<ConceptId>& AssociationTable::ConceptsOf(
    CitationId citation) const {
  BIONAV_CHECK_GE(citation, 0);
  static const std::vector<ConceptId> kEmpty;
  if (static_cast<size_t>(citation) >= concepts_.size()) return kEmpty;
  return concepts_[static_cast<size_t>(citation)];
}

std::vector<ConceptId> AssociationTable::ConceptsOf(
    CitationId citation, AssociationKind kind) const {
  BIONAV_CHECK_GE(citation, 0);
  std::vector<ConceptId> out;
  const size_t c = static_cast<size_t>(citation);
  if (c >= concepts_.size()) return out;
  for (size_t i = 0; i < concepts_[c].size(); ++i) {
    if (KindOf(c, i) == kind) out.push_back(concepts_[c][i]);
  }
  return out;
}

AssociationKind AssociationTable::KindOf(size_t citation, size_t pair) const {
  if (pair >= kMaskedPairs) {
    const auto& kinds = overflow_kinds_.at(static_cast<CitationId>(citation));
    return kinds[pair - kMaskedPairs];
  }
  return (indexed_bits_[citation] >> pair) & 1 ? AssociationKind::kIndexed
                                               : AssociationKind::kAnnotated;
}

}  // namespace bionav
