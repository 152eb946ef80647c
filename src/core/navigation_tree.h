#ifndef BIONAV_CORE_NAVIGATION_TREE_H_
#define BIONAV_CORE_NAVIGATION_TREE_H_

#include <memory>
#include <vector>

#include "core/result_set.h"
#include "hierarchy/concept_hierarchy.h"
#include "medline/association_table.h"
#include "util/bitset.h"
#include "util/status.h"

namespace bionav {

/// Dense node index within one NavigationTree (distinct from ConceptId:
/// the navigation tree is the *maximum embedding* of the initial navigation
/// tree, so most hierarchy nodes do not appear in it).
using NavNodeId = int32_t;
inline constexpr NavNodeId kInvalidNavNode = -1;

/// One node of the navigation tree: a concept with a non-empty results list
/// (except possibly the root, kept to preserve a single tree).
struct NavNode {
  ConceptId concept_id = kInvalidConcept;
  NavNodeId parent = kInvalidNavNode;
  std::vector<NavNodeId> children;
  /// Citations (local result indexes) directly associated with the concept
  /// — the paper's L(n).
  DynamicBitset results;
  /// |L(n)| cached.
  int attached_count = 0;
  /// Corpus-wide citation count of the concept — the paper's |LT(n)|,
  /// the denominator of the EXPLORE probability.
  int64_t global_count = 0;
};

/// One node of a serialized navigation tree, in pre-order: what the
/// artifact codec moves between shards. Children vectors are not carried —
/// a valid pre-order layout reconstructs them (ascending-id append to the
/// parent reproduces the construction-time order exactly).
struct SerializedNavNode {
  ConceptId concept_id = kInvalidConcept;
  NavNodeId parent = kInvalidNavNode;
  int64_t global_count = 0;
  /// Local result indexes of L(n), strictly ascending (bitset order).
  std::vector<uint32_t> result_indexes;
};

/// The paper's Navigation Tree (Definition 2): the maximum embedding of the
/// initial navigation tree such that no node except the root has an empty
/// results list. Construction attaches each result citation to its
/// associated concepts (Definition: Initial Navigation Tree) and then
/// splices out empty nodes bottom-up, preserving ancestor/descendant
/// relationships.
class NavigationTree {
 public:
  /// Builds the navigation tree for `result` using the citation->concepts
  /// associations. The hierarchy and the tables must outlive the tree.
  NavigationTree(const ConceptHierarchy& hierarchy,
                 const AssociationTable& associations,
                 std::shared_ptr<const ResultSet> result);

  /// Reconstructs a tree from pre-order node records captured on another
  /// shard (the FETCH_ARTIFACT path). The records are untrusted: every
  /// structural invariant (root first, parents preceding children in a
  /// valid pre-order nesting, concepts inside the hierarchy and in strictly
  /// ascending hierarchy pre-order, result indexes ascending and inside the
  /// result set) is validated
  /// BEFORE any internal table is built, so arbitrary bytes yield a typed
  /// kDataLoss instead of tripping a CHECK. The returned tree is Freeze()d
  /// — byte-identical SoA layout and subtree caches to a locally built,
  /// frozen tree of the same shape.
  static Result<std::shared_ptr<NavigationTree>> FromSerializedNodes(
      const ConceptHierarchy& hierarchy,
      std::shared_ptr<const ResultSet> result,
      const std::vector<SerializedNavNode>& serialized);

  /// Pre-order node records describing this tree — the codec's source.
  std::vector<SerializedNavNode> ToSerializedNodes() const;

  NavigationTree(const NavigationTree&) = delete;
  NavigationTree& operator=(const NavigationTree&) = delete;
  NavigationTree(NavigationTree&&) = default;
  NavigationTree& operator=(NavigationTree&&) = default;

  size_t size() const { return nodes_.size(); }

  static constexpr NavNodeId kRoot = 0;

  const NavNode& node(NavNodeId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }

  // Structure-of-arrays accessors. Freeze() flattens the pointer-based
  // nodes into parallel index arrays (parent / first-child / next-sibling
  // plus scalar columns); frozen trees are immutable and shared read-only
  // across sessions, so the dense 4-8 byte strides replace ~100-byte
  // NavNode hops on every hot EXPAND loop. Before Freeze() the accessors
  // fall back to the lazy pointer tree, so call sites never branch on
  // frozen() themselves.

  NavNodeId parent(NavNodeId id) const {
    return frozen_ ? soa_parent_[CheckedIndex(id)] : node(id).parent;
  }
  ConceptId concept_of(NavNodeId id) const {
    return frozen_ ? soa_concept_[CheckedIndex(id)] : node(id).concept_id;
  }
  int attached_count(NavNodeId id) const {
    return frozen_ ? soa_attached_[CheckedIndex(id)] : node(id).attached_count;
  }
  int64_t global_count(NavNodeId id) const {
    return frozen_ ? soa_global_[CheckedIndex(id)] : node(id).global_count;
  }
  /// L(n), the citations attached directly to the node. Bitsets are heap
  /// objects either way, so both layouts serve them from the node store.
  const DynamicBitset& results(NavNodeId id) const { return node(id).results; }

  /// First child in pre-order, or kInvalidNavNode for a leaf (SoA chain;
  /// derived from the pointer tree before Freeze()).
  NavNodeId first_child(NavNodeId id) const {
    if (frozen_) return soa_first_child_[CheckedIndex(id)];
    const NavNode& n = node(id);
    return n.children.empty() ? kInvalidNavNode : n.children.front();
  }
  /// Next sibling in pre-order, or kInvalidNavNode for a last child.
  NavNodeId next_sibling(NavNodeId id) const {
    if (frozen_) return soa_next_sibling_[CheckedIndex(id)];
    const NavNode& n = node(id);
    if (n.parent == kInvalidNavNode) return kInvalidNavNode;
    const std::vector<NavNodeId>& sibs = node(n.parent).children;
    for (size_t i = 0; i + 1 < sibs.size(); ++i) {
      if (sibs[i] == id) return sibs[i + 1];
    }
    return kInvalidNavNode;
  }

  /// Visits the children of `id` in pre-order. Uses the SoA sibling chain
  /// when frozen, the pointer tree's child vector otherwise; both orders
  /// are identical (asserted at Freeze()).
  template <typename Fn>
  void ForEachChild(NavNodeId id, Fn&& fn) const {
    if (frozen_) {
      for (NavNodeId c = soa_first_child_[CheckedIndex(id)];
           c != kInvalidNavNode; c = soa_next_sibling_[static_cast<size_t>(c)])
        fn(c);
    } else {
      for (NavNodeId c : node(id).children) fn(c);
    }
  }

  const ConceptHierarchy& hierarchy() const { return *hierarchy_; }
  const ResultSet& result() const { return *result_; }
  std::shared_ptr<const ResultSet> result_ptr() const { return result_; }

  /// Navigation-tree node of a concept, or kInvalidNavNode if the concept
  /// has no attached citations (was embedded away). Nodes are stored in
  /// hierarchy pre-order, so this is a binary search by pre-order rank:
  /// O(log size()), with no per-concept index.
  NavNodeId NodeOfConcept(ConceptId concept_id) const;

  /// Distinct citations attached anywhere in the subtree rooted at `id`
  /// (the per-node count displayed by the static interface of Fig 1).
  DynamicBitset SubtreeResults(NavNodeId id) const;

  /// Same set, but served from a lazy per-node cache: the first call walks
  /// the subtree once (filling the cache for every node in it), later
  /// calls are O(1). EXPAND repeatedly needs subtree unions while cutting
  /// its way down one root-to-leaf path, so this turns the per-EXPAND
  /// re-walk of pre-order ranges into a single amortized pass per tree.
  /// The cache is unsynchronized: an unfrozen NavigationTree is a
  /// per-session object (see DESIGN.md "Concurrency model"); Freeze() a
  /// tree before sharing it across threads.
  const DynamicBitset& SubtreeResultsCached(NavNodeId id) const;

  /// Precomputes the subtree-results/distinct caches for every node and
  /// marks the tree frozen. A frozen tree is deeply immutable — every
  /// const method is a pure read — so one instance can serve concurrent
  /// sessions (the QueryArtifactCache's sharing contract). Reaching the
  /// lazy fill path on a frozen tree is a checked invariant violation.
  void Freeze();

  /// True once Freeze() ran.
  bool frozen() const { return frozen_; }

  /// Heap bytes held by the tree: nodes (children lists, attached-citation
  /// bitsets), pre-order intervals, prefix sums and whatever portion of the
  /// subtree caches is materialized. Feeds the QueryArtifactCache byte
  /// budget.
  size_t MemoryFootprint() const;

  /// |SubtreeResultsCached(id)|, cached alongside the set.
  int SubtreeDistinct(NavNodeId id) const;

  /// Sum of |L(n)| over the subtree of `id`, with duplicates — O(1) via
  /// pre-order prefix sums (the k-partition weight of an intact subtree).
  int64_t SubtreeAttachedTotal(NavNodeId id) const {
    NavNodeId end = SubtreeEnd(id);
    return attached_prefix_[static_cast<size_t>(end)] -
           attached_prefix_[static_cast<size_t>(id)];
  }

  /// Sum over all nodes of |L(n)| — the "Citations in Navigation Tree w/
  /// Duplicates" column of Table I.
  int64_t TotalAttachedWithDuplicates() const;

  /// Maximum number of nodes at any single depth of the navigation tree.
  int MaxWidth() const;

  /// Maximum depth (root = 0).
  int Height() const;

  /// Node ids in pre-order.
  std::vector<NavNodeId> PreOrderIds() const;

  /// Nodes are stored in pre-order, so the subtree of `id` occupies the
  /// contiguous id range [id, SubtreeEnd(id)).
  NavNodeId SubtreeEnd(NavNodeId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), subtree_end_.size());
    return subtree_end_[static_cast<size_t>(id)];
  }

  /// True iff `a` is an ancestor of `b` or a == b (navigation-tree order).
  bool IsAncestorOrSelf(NavNodeId a, NavNodeId b) const {
    return a <= b && b < SubtreeEnd(a);
  }

  /// Depth of a node in the navigation tree (root = 0).
  int NodeDepth(NavNodeId id) const;

 private:
  /// Deserialization shell: binds the hierarchy/result, leaves the node
  /// store for FromSerializedNodes to fill.
  NavigationTree(const ConceptHierarchy* hierarchy,
                 std::shared_ptr<const ResultSet> result)
      : hierarchy_(hierarchy), result_(std::move(result)) {}

  size_t CheckedIndex(NavNodeId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), nodes_.size());
    return static_cast<size_t>(id);
  }

  /// Derives the subtree intervals and attached-count prefix sums from the
  /// pre-order node store and sizes the lazy subtree caches.
  void BuildIntervals();

  /// Builds the SoA columns from the pointer tree and cross-checks the two
  /// layouts (pre-order arithmetic vs child vectors) — Freeze()-time part
  /// of the SoA==lazy equivalence contract.
  void BuildFlatLayout();

  const ConceptHierarchy* hierarchy_;
  std::shared_ptr<const ResultSet> result_;
  std::vector<NavNode> nodes_;
  std::vector<NavNodeId> subtree_end_;    // Pre-order interval ends.
  std::vector<int64_t> attached_prefix_;  // Size nodes+1.
  // Lazy subtree-results cache (unsynchronized until Freeze()).
  mutable std::vector<DynamicBitset> subtree_results_;
  mutable std::vector<int> subtree_distinct_;  // -1 = not yet computed.
  // Structure-of-arrays mirror of nodes_, filled by Freeze() (empty until
  // then). Index-parallel with nodes_.
  std::vector<ConceptId> soa_concept_;
  std::vector<NavNodeId> soa_parent_;
  std::vector<NavNodeId> soa_first_child_;
  std::vector<NavNodeId> soa_next_sibling_;
  std::vector<int> soa_attached_;
  std::vector<int64_t> soa_global_;
  bool frozen_ = false;
};

}  // namespace bionav

#endif  // BIONAV_CORE_NAVIGATION_TREE_H_
