#ifndef BIONAV_MEDLINE_CITATION_STORE_H_
#define BIONAV_MEDLINE_CITATION_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace bionav {

/// Dense in-memory citation identifier (index into the store). Distinct
/// from the PubMed identifier (PMID), which is an opaque external number.
using CitationId = int32_t;
inline constexpr CitationId kInvalidCitation = -1;

/// One MEDLINE citation record. Terms are stored as term-dictionary ids
/// (see CitationStore::InternTerm); full text is not retained — like
/// PubMed's ESearch, keyword matching happens against the indexed terms.
struct Citation {
  uint64_t pmid = 0;
  std::string title;
  int year = 0;
  std::vector<int32_t> term_ids;
};

/// In-memory stand-in for the MEDLINE citation database. Owns the citation
/// records and the term dictionary shared with the inverted index.
class CitationStore {
 public:
  CitationStore() = default;
  CitationStore(const CitationStore&) = delete;
  CitationStore& operator=(const CitationStore&) = delete;
  CitationStore(CitationStore&&) = default;
  CitationStore& operator=(CitationStore&&) = default;

  /// Adds a citation and returns its dense id. PMIDs must be unique.
  CitationId Add(Citation citation);

  /// Makes room for `citations` citations in total, so adding up to that
  /// many neither reallocates the records nor rehashes the PMID map.
  void Reserve(size_t citations) {
    citations_.reserve(citations);
    by_pmid_.reserve(citations);
  }

  size_t size() const { return citations_.size(); }

  const Citation& Get(CitationId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), citations_.size());
    return citations_[static_cast<size_t>(id)];
  }

  /// Dense id for a PMID, or kInvalidCitation.
  CitationId FindByPmid(uint64_t pmid) const;

  /// Interns a (lower-cased) term and returns its dictionary id.
  int32_t InternTerm(const std::string& term);

  /// Dictionary id of an existing term, or -1 if never interned.
  int32_t LookupTerm(const std::string& term) const;

  const std::string& TermText(int32_t term_id) const {
    BIONAV_CHECK_GE(term_id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(term_id), terms_.size());
    return terms_[static_cast<size_t>(term_id)];
  }

  size_t TermCount() const { return terms_.size(); }

 private:
  std::vector<Citation> citations_;
  std::unordered_map<uint64_t, CitationId> by_pmid_;
  std::vector<std::string> terms_;
  std::unordered_map<std::string, int32_t> term_ids_;
};

}  // namespace bionav

#endif  // BIONAV_MEDLINE_CITATION_STORE_H_
