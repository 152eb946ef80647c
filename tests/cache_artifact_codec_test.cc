// Tests for the QueryArtifacts wire codec (the FETCH_ARTIFACT payload):
// round-trip fidelity of result set, tree structure and cost model;
// freeze-on-arrival; and hostile-input hardening — every truncation
// prefix, CRC corruption, bad magic and unknown versions must come back
// as typed errors, never crashes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bionav.h"

namespace bionav {
namespace {

const Workload& CodecWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

std::shared_ptr<const QueryArtifacts> BuildBundle(int query_index = 0) {
  const Workload& w = CodecWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  return BuildQueryArtifacts(w.hierarchy(), eutils,
                             w.query(query_index).spec.keyword,
                             CostModelParams(), /*freeze=*/true);
}

TEST(ArtifactCodecTest, RoundTripPreservesEverySurface) {
  auto original = BuildBundle();
  ASSERT_NE(original, nullptr);
  std::string record = original->Serialize();
  ASSERT_GT(record.size(), 12u);  // magic + length + crc at minimum

  auto decoded =
      QueryArtifacts::Deserialize(CodecWorkload().hierarchy(), record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const QueryArtifacts& got = *decoded.ValueOrDie();

  EXPECT_EQ(got.key, original->key);

  // Result set: same citations in the same first-occurrence order.
  ASSERT_EQ(got.result->size(), original->result->size());
  EXPECT_EQ(got.result->citations(), original->result->citations());

  // Tree: structurally identical node by node, and frozen on arrival so
  // the receiving shard can publish it to its cache without mutation.
  EXPECT_TRUE(got.nav->frozen());
  ASSERT_EQ(got.nav->size(), original->nav->size());
  for (size_t i = 0; i < original->nav->size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    EXPECT_EQ(got.nav->concept_of(id), original->nav->concept_of(id));
    EXPECT_EQ(got.nav->parent(id), original->nav->parent(id));
    EXPECT_EQ(got.nav->attached_count(id), original->nav->attached_count(id));
    EXPECT_EQ(got.nav->global_count(id), original->nav->global_count(id));
    EXPECT_EQ(got.nav->results(id), original->nav->results(id));
  }

  // Cost model: parameters round-trip and the re-derived weights agree
  // on every node — a replica must cost EXPANDs exactly like the owner.
  EXPECT_EQ(got.cost_model->params().expand_cost,
            original->cost_model->params().expand_cost);
  EXPECT_EQ(got.cost_model->params().expand_upper_threshold,
            original->cost_model->params().expand_upper_threshold);
  EXPECT_DOUBLE_EQ(got.cost_model->normalization(),
                   original->cost_model->normalization());
  for (size_t i = 0; i < original->nav->size(); ++i) {
    NavNodeId id = static_cast<NavNodeId>(i);
    EXPECT_DOUBLE_EQ(got.cost_model->NodeExploreWeight(id),
                     original->cost_model->NodeExploreWeight(id));
  }
}

TEST(ArtifactCodecTest, SerializeIsDeterministic) {
  auto bundle = BuildBundle();
  EXPECT_EQ(bundle->Serialize(), bundle->Serialize());
  // A re-serialized decode is byte-identical: decode is lossless.
  auto decoded = QueryArtifacts::Deserialize(CodecWorkload().hierarchy(),
                                             bundle->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie()->Serialize(), bundle->Serialize());
}

TEST(ArtifactCodecTest, EveryTruncationPrefixIsATypedError) {
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  for (size_t len = 0; len < record.size(); ++len) {
    auto decoded = QueryArtifacts::Deserialize(
        h, std::string_view(record.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(ArtifactCodecTest, CorruptionAnywhereIsCaught) {
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  // Flip one bit in a sweep of positions across the record (header,
  // payload, trailing bytes). The CRC — or a structural check — must
  // reject every one; none may crash or round-trip silently.
  size_t step = record.size() / 64 + 1;
  for (size_t pos = 0; pos < record.size(); pos += step) {
    std::string bad = record;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    auto decoded = QueryArtifacts::Deserialize(h, bad);
    if (decoded.ok()) {
      // The only acceptable parse of tampered bytes is one that decodes
      // to the exact same bundle (a flip in ignored padding would).
      EXPECT_EQ(decoded.ValueOrDie()->Serialize(), record)
          << "byte " << pos << " flip parsed to a different bundle";
    }
  }
}

TEST(ArtifactCodecTest, BadMagicAndGarbageAreDataLoss) {
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  auto bundle = BuildBundle();
  std::string record = bundle->Serialize();
  record[0] = 'X';
  auto decoded = QueryArtifacts::Deserialize(h, record);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  std::string garbage(256, '\x5a');
  auto junk = QueryArtifacts::Deserialize(h, garbage);
  EXPECT_FALSE(junk.ok());
}

TEST(ArtifactCodecTest, Base64RoundTripMatchesWireTransport) {
  // The wire carries the record base64-encoded (both JSON and binary
  // protos); the strict decoder must hand back the exact bytes.
  auto bundle = BuildBundle(1);
  std::string record = bundle->Serialize();
  std::string encoded = Base64Encode(record);
  std::string back;
  ASSERT_TRUE(Base64Decode(encoded, &back));
  EXPECT_EQ(back, record);
  auto decoded = QueryArtifacts::Deserialize(CodecWorkload().hierarchy(), back);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie()->key, bundle->key);
}

/// Index i of the first pair of adjacent sibling leaves (i, i + 1) in the
/// serialized tree, or 0 if there is none.
size_t FirstSiblingLeafPair(const NavigationTree& nav) {
  for (NavNodeId id = 1; id + 1 < static_cast<NavNodeId>(nav.size()); ++id) {
    if (nav.SubtreeEnd(id) == id + 1 && nav.SubtreeEnd(id + 1) == id + 2 &&
        nav.parent(id) == nav.parent(id + 1)) {
      return static_cast<size_t>(id);
    }
  }
  return 0;
}

TEST(ArtifactCodecTest, SerializedNodesOutOfHierarchyOrderAreDataLoss) {
  auto bundle = BuildBundle();
  const NavigationTree& nav = *bundle->nav;
  const ConceptHierarchy& h = CodecWorkload().hierarchy();
  size_t i = FirstSiblingLeafPair(nav);
  ASSERT_GT(i, 0u) << "fixture tree has no adjacent sibling leaves";
  const std::vector<SerializedNavNode> records = nav.ToSerializedNodes();
  ASSERT_TRUE(
      NavigationTree::FromSerializedNodes(h, bundle->result, records).ok());

  // Swapped siblings: a well-nested tree whose concepts break pre-order.
  std::vector<SerializedNavNode> swapped = records;
  std::swap(swapped[i].concept_id, swapped[i + 1].concept_id);
  std::swap(swapped[i].global_count, swapped[i + 1].global_count);
  std::swap(swapped[i].result_indexes, swapped[i + 1].result_indexes);
  auto decoded =
      NavigationTree::FromSerializedNodes(h, bundle->result, swapped);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  // A repeated concept.
  std::vector<SerializedNavNode> repeated = records;
  repeated[i + 1].concept_id = repeated[i].concept_id;
  decoded = NavigationTree::FromSerializedNodes(h, bundle->result, repeated);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace bionav
