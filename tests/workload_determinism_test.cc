// Determinism of workload generation at paper scale. Every consumer of the
// default Workload (perfbench set-ups, benches, the golden trees) assumes
// that two constructions with the same options produce the same database,
// byte for byte, in the same process or in another one, on any thread.

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <thread>

#include "gtest/gtest.h"
#include "medline/bionav_database.h"
#include "workload/workload.h"

namespace bionav {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
uint64_t Fnv1aValue(uint64_t h, T value) {
  return Fnv1a(h, &value, sizeof(value));
}

/// An output stream buffer that folds every byte written into an FNV-1a
/// hash instead of keeping it: the paper-scale database is tens of MB.
class Fnv1aStreamBuf : public std::streambuf {
 public:
  uint64_t hash() const { return hash_; }
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_ = Fnv1a(hash_, s, static_cast<size_t>(n));
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t hash_ = kFnvOffset;
  uint64_t bytes_ = 0;
};

/// FNV-1a over the database stream, each citation's concepts in
/// association order with their kinds, and each query's target, themes
/// and result ids.
uint64_t WorkloadFingerprint(const Workload& w) {
  const SyntheticCorpus& corpus = w.corpus();
  Fnv1aStreamBuf buf;
  std::ostream out(&buf);
  EXPECT_TRUE(WriteDatabaseStream(w.hierarchy(), corpus.store,
                                  corpus.associations, &out)
                  .ok());
  uint64_t h = Fnv1aValue<uint64_t>(buf.hash(), buf.bytes());
  for (CitationId id = 0; id < static_cast<CitationId>(corpus.store.size());
       ++id) {
    const std::vector<ConceptId>& all = corpus.associations.ConceptsOf(id);
    const std::vector<ConceptId> indexed =
        corpus.associations.ConceptsOf(id, AssociationKind::kIndexed);
    h = Fnv1aValue<uint64_t>(h, all.size());
    size_t next_indexed = 0;
    for (ConceptId c : all) {
      // Indexed concepts come back in association order, so one cursor
      // tells each pair's kind.
      const bool is_indexed =
          next_indexed < indexed.size() && indexed[next_indexed] == c;
      if (is_indexed) ++next_indexed;
      h = Fnv1aValue<int32_t>(h, c);
      h = Fnv1aValue<uint8_t>(h, is_indexed ? 1 : 0);
    }
    EXPECT_EQ(next_indexed, indexed.size()) << "citation " << id;
  }
  for (size_t q = 0; q < w.num_queries(); ++q) {
    const GeneratedQuery& gq = w.query(q);
    h = Fnv1aValue<int32_t>(h, gq.target);
    h = Fnv1aValue<uint64_t>(h, gq.themes.size());
    for (ConceptId t : gq.themes) h = Fnv1aValue<int32_t>(h, t);
    h = Fnv1aValue<uint64_t>(h, gq.result.size());
    for (CitationId c : gq.result) h = Fnv1aValue<int32_t>(h, c);
  }
  return h;
}

// Recorded from the generator as it was before the guide-table sampler,
// the inlined Rng draws and the reserved stores: speeding generation up
// must not move one byte of the database.
constexpr uint64_t kPaperScaleFingerprint = 0x948e360e55004d5dull;

TEST(WorkloadDeterminism, PaperScaleGolden) {
  Workload w{WorkloadOptions()};
  EXPECT_EQ(w.hierarchy().size(), 48000u);
  EXPECT_EQ(WorkloadFingerprint(w), kPaperScaleFingerprint);
}

TEST(WorkloadDeterminism, ConcurrentBuildsMatchGolden) {
  // Generation keeps no state between instances: two builds racing on two
  // threads each produce the golden database.
  uint64_t fingerprints[2] = {0, 0};
  std::thread threads[2];
  for (int i = 0; i < 2; ++i) {
    threads[i] = std::thread([&fingerprints, i] {
      Workload w{WorkloadOptions()};
      fingerprints[i] = WorkloadFingerprint(w);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fingerprints[0], kPaperScaleFingerprint);
  EXPECT_EQ(fingerprints[1], kPaperScaleFingerprint);
}

}  // namespace
}  // namespace bionav
