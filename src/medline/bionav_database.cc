// BioNav database serialization format (text, line-oriented):
//
//   BIONAVDB 1
//   HIERARCHY <node-count>
//   <tree-number>\t<label>                       x node-count (pre-order)
//   CITATIONS <citation-count>
//   <pmid>\t<year>\t<title>\t<terms,>\t<annotated-tns,>\t<indexed-tns,>
//                                                x citation-count
//   END
//
// Titles have tabs/newlines replaced by spaces on write; terms and tree
// numbers never contain commas, so comma-joined lists are unambiguous.

#include "medline/bionav_database.h"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "hierarchy/hierarchy_io.h"
#include "util/string_util.h"

namespace bionav {

namespace {

constexpr char kMagic[] = "BIONAVDB 1";

std::string SanitizeTitle(std::string_view title) {
  std::string out(title);
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

std::string JoinNonEmpty(const std::vector<std::string>& pieces) {
  return Join(pieces, ",");
}

Status ParseCount(const std::string& line, const char* keyword,
                  size_t* count) {
  std::istringstream iss(line);
  std::string word;
  long long n = -1;
  iss >> word >> n;
  if (word != keyword || n < 0) {
    return Status::InvalidArgument(std::string("expected '") + keyword +
                                   " <count>', got '" + line + "'");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<BioNavDatabase>> BioNavDatabase::Build(
    ConceptHierarchy hierarchy,
    const std::vector<CitationSourceRecord>& records) {
  if (!hierarchy.frozen()) {
    return Status::FailedPrecondition("hierarchy must be frozen");
  }
  std::unique_ptr<BioNavDatabase> db(new BioNavDatabase());
  db->hierarchy_ = std::move(hierarchy);
  db->associations_ = AssociationTable(db->hierarchy_.size());
  // The records are already parsed, so their count is a real size, not an
  // untrusted header field.
  db->store_.Reserve(records.size());
  db->associations_.Reserve(records.size());

  std::vector<AssociationTable::Pair> pairs;  // One record's, reused.
  for (const CitationSourceRecord& record : records) {
    Citation citation;
    citation.pmid = record.pmid;
    citation.year = record.year;
    citation.title = record.title;
    for (const std::string& term : record.terms) {
      citation.term_ids.push_back(db->store_.InternTerm(term));
    }
    if (db->store_.FindByPmid(record.pmid) != kInvalidCitation) {
      return Status::InvalidArgument("duplicate PMID " +
                                     std::to_string(record.pmid));
    }
    CitationId id = db->store_.Add(std::move(citation));

    auto resolve = [&](const std::vector<std::string>& tns,
                       AssociationKind kind) -> Status {
      for (const std::string& tn : tns) {
        ConceptId c = db->hierarchy_.FindByTreeNumber(tn);
        if (c == kInvalidConcept) {
          return Status::NotFound("unknown tree number '" + tn +
                                  "' for PMID " +
                                  std::to_string(record.pmid));
        }
        pairs.emplace_back(c, kind);
      }
      return Status::OK();
    };
    pairs.clear();
    BIONAV_RETURN_IF_ERROR(
        resolve(record.annotated_tree_numbers, AssociationKind::kAnnotated));
    BIONAV_RETURN_IF_ERROR(
        resolve(record.indexed_tree_numbers, AssociationKind::kIndexed));
    db->associations_.Associate(id, pairs);
  }
  db->index_ = std::make_unique<InvertedIndex>(db->store_);
  return db;
}

Status WriteDatabaseStream(const ConceptHierarchy& hierarchy,
                           const CitationStore& store,
                           const AssociationTable& associations,
                           std::ostream* out) {
  if (!hierarchy.frozen()) {
    return Status::FailedPrecondition("hierarchy must be frozen");
  }
  *out << kMagic << '\n';
  *out << "HIERARCHY " << hierarchy.size() << '\n';
  BIONAV_RETURN_IF_ERROR(WriteHierarchy(hierarchy, out));
  *out << "CITATIONS " << store.size() << '\n';
  for (CitationId id = 0; id < static_cast<CitationId>(store.size()); ++id) {
    const Citation& c = store.Get(id);
    std::vector<std::string> terms;
    terms.reserve(c.term_ids.size());
    for (int32_t t : c.term_ids) terms.push_back(store.TermText(t));

    std::vector<std::string> annotated;
    std::vector<std::string> indexed;
    for (ConceptId concept_id :
         associations.ConceptsOf(id, AssociationKind::kAnnotated)) {
      annotated.push_back(hierarchy.tree_number(concept_id).ToString());
    }
    for (ConceptId concept_id :
         associations.ConceptsOf(id, AssociationKind::kIndexed)) {
      indexed.push_back(hierarchy.tree_number(concept_id).ToString());
    }

    *out << c.pmid << '\t' << c.year << '\t' << SanitizeTitle(c.title)
         << '\t' << JoinNonEmpty(terms) << '\t' << JoinNonEmpty(annotated)
         << '\t' << JoinNonEmpty(indexed) << '\n';
  }
  *out << "END\n";
  if (!*out) return Status::IOError("write failed");
  return Status::OK();
}

Status BioNavDatabase::Save(std::ostream* out) const {
  return WriteDatabaseStream(hierarchy_, store_, associations_, out);
}

Status BioNavDatabase::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return Save(&out);
}

Status SaveCorpusToFile(const ConceptHierarchy& hierarchy,
                        const SyntheticCorpus& corpus,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteDatabaseStream(hierarchy, corpus.store, corpus.associations,
                             &out);
}

Result<std::unique_ptr<BioNavDatabase>> BioNavDatabase::Load(
    std::istream* in) {
  std::string line;
  if (!std::getline(*in, line) || StripWhitespace(line) != kMagic) {
    return Status::InvalidArgument("missing BIONAVDB header");
  }
  size_t node_count = 0;
  if (!std::getline(*in, line)) {
    return Status::InvalidArgument("truncated database: no HIERARCHY line");
  }
  BIONAV_RETURN_IF_ERROR(ParseCount(line, "HIERARCHY", &node_count));

  // Parse the hierarchy section in place: the bounded reader consumes
  // exactly node_count lines of the main stream, so the section is never
  // copied through an intermediate ostringstream.
  Result<ConceptHierarchy> hierarchy = ReadHierarchyLines(in, node_count);
  if (!hierarchy.ok()) return hierarchy.status();
  if (hierarchy.ValueOrDie().size() != node_count) {
    return Status::InvalidArgument("hierarchy node count mismatch");
  }

  size_t citation_count = 0;
  if (!std::getline(*in, line)) {
    return Status::InvalidArgument("truncated database: no CITATIONS line");
  }
  BIONAV_RETURN_IF_ERROR(ParseCount(line, "CITATIONS", &citation_count));

  std::vector<CitationSourceRecord> records;
  records.reserve(citation_count);
  for (size_t i = 0; i < citation_count; ++i) {
    if (!std::getline(*in, line)) {
      return Status::InvalidArgument("truncated citations section");
    }
    // Field parsing stays zero-copy until the final std::string fields of
    // the record: views into `line`, no intermediate Split allocations.
    std::vector<std::string_view> fields = SplitViews(line, '\t');
    if (fields.size() != 6) {
      return Status::InvalidArgument(
          "citation line " + std::to_string(i + 1) + ": expected 6 fields, got " +
          std::to_string(fields.size()));
    }
    CitationSourceRecord record;
    auto [pmid_ptr, pmid_ec] = std::from_chars(
        fields[0].data(), fields[0].data() + fields[0].size(), record.pmid);
    auto [year_ptr, year_ec] = std::from_chars(
        fields[1].data(), fields[1].data() + fields[1].size(), record.year);
    if (pmid_ec != std::errc() || pmid_ptr != fields[0].data() + fields[0].size() ||
        year_ec != std::errc() || year_ptr != fields[1].data() + fields[1].size()) {
      return Status::InvalidArgument("citation line " + std::to_string(i + 1) +
                                     ": bad pmid/year");
    }
    record.title = std::string(fields[2]);
    auto split_list = [](std::string_view s, std::vector<std::string>* out) {
      if (s.empty()) return;
      for (std::string_view piece : SplitViews(s, ',')) {
        if (!piece.empty()) out->emplace_back(piece);
      }
    };
    split_list(fields[3], &record.terms);
    split_list(fields[4], &record.annotated_tree_numbers);
    split_list(fields[5], &record.indexed_tree_numbers);
    records.push_back(std::move(record));
  }
  if (!std::getline(*in, line) || StripWhitespace(line) != "END") {
    return Status::InvalidArgument("missing END marker");
  }
  return Build(hierarchy.TakeValue(), records);
}

Result<std::unique_ptr<BioNavDatabase>> BioNavDatabase::LoadFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return Load(&in);
}

}  // namespace bionav
