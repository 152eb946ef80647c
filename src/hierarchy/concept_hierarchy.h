#ifndef BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_
#define BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hierarchy/tree_number.h"
#include "util/status.h"

namespace bionav {

/// Dense identifier of a concept node within one ConceptHierarchy.
using ConceptId = int32_t;
inline constexpr ConceptId kInvalidConcept = -1;

/// A concept hierarchy in the sense of the paper's Definition 1: a labeled
/// tree of concepts, rooted at node 0, where a child's label is more
/// specific than its parent's. This is the substrate for MeSH but carries no
/// biomedical assumptions — the catalog example reuses it for product
/// categories.
///
/// Usage: add nodes with AddNode (parent must already exist), then call
/// Freeze() once. Freeze computes depths and Euler-tour intervals (pre-order
/// ranks, for O(1) ancestor tests) and seals the structure. Canonical
/// MeSH-style tree numbers are not stored: they are derived on demand from
/// the parent chain and child ordinals. All query methods require a frozen
/// hierarchy.
class ConceptHierarchy {
 public:
  ConceptHierarchy();

  ConceptHierarchy(const ConceptHierarchy&) = delete;
  ConceptHierarchy& operator=(const ConceptHierarchy&) = delete;
  ConceptHierarchy(ConceptHierarchy&&) = default;
  ConceptHierarchy& operator=(ConceptHierarchy&&) = default;

  /// Identifier of the root node ("MeSH").
  static constexpr ConceptId kRoot = 0;

  /// Adds a concept under `parent` and returns its id. The hierarchy must
  /// not be frozen. Labels need not be unique globally, but lookups by label
  /// return the lowest id carrying that label.
  ConceptId AddNode(ConceptId parent, std::string label);

  /// Makes room for `nodes` nodes in total (root included), so adding up
  /// to that many does not regrow the per-node tables.
  void Reserve(size_t nodes) {
    labels_.reserve(nodes);
    parents_.reserve(nodes);
    children_.reserve(nodes);
  }

  /// Seals the tree: computes depth and pre/post order.
  void Freeze();

  /// Replaces a node's display label (allowed after Freeze — labels carry
  /// no structural meaning). Label lookups see the new label at once.
  void RenameNode(ConceptId id, std::string label);

  bool frozen() const { return frozen_; }

  /// Number of nodes, including the root.
  size_t size() const { return labels_.size(); }

  ConceptId parent(ConceptId id) const { return parents_[CheckId(id)]; }
  const std::vector<ConceptId>& children(ConceptId id) const {
    return children_[CheckId(id)];
  }
  const std::string& label(ConceptId id) const { return labels_[CheckId(id)]; }

  /// Depth of the node; the root has depth 0. Requires frozen().
  int depth(ConceptId id) const;

  /// Canonical tree number, derived in O(depth) from the parent chain and
  /// each node's 1-based ordinal among its siblings. Components are
  /// 3-digit ordinals; a child of the root gets a category letter cycling
  /// A.. plus the last two digits, as in MeSH ("A01", "B02.003"). The
  /// root's is empty. Requires frozen().
  TreeNumber tree_number(ConceptId id) const;

  /// Position of the node in pre-order: the root is 0 and every subtree
  /// occupies a contiguous rank range. Requires frozen().
  int pre_order_rank(ConceptId id) const {
    BIONAV_CHECK(frozen_);
    return pre_[static_cast<size_t>(CheckId(id))];
  }

  /// True iff `a` is an ancestor of `b` or a == b. Requires frozen(). O(1).
  bool IsAncestorOrSelf(ConceptId a, ConceptId b) const;

  /// Lowest-id node with the given label, or kInvalidConcept. A linear
  /// scan: no serving path looks concepts up by label, so the hierarchy
  /// keeps no label index.
  ConceptId FindByLabel(std::string_view label) const;

  /// Node whose canonical tree number is `tree_number`, or kInvalidConcept
  /// (malformed text, non-canonical spelling, or an ordinal past the last
  /// child). Walks children by ordinal, so O(depth). Requires frozen().
  ConceptId FindByTreeNumber(std::string_view tree_number) const;

  /// Maximum node depth. Requires frozen().
  int height() const { return height_; }

  /// Number of nodes at each depth (index = depth). Requires frozen().
  const std::vector<int>& LevelWidths() const;

  /// Visits nodes in pre-order (parents before children).
  void PreOrder(const std::function<void(ConceptId)>& visit) const;

  /// Visits nodes in post-order (children before parents).
  void PostOrder(const std::function<void(ConceptId)>& visit) const;

  /// All node ids on the path root -> id, inclusive.
  std::vector<ConceptId> PathFromRoot(ConceptId id) const;

  /// All descendant ids of `id` including itself, in pre-order.
  std::vector<ConceptId> Subtree(ConceptId id) const;

 private:
  ConceptId CheckId(ConceptId id) const {
    BIONAV_CHECK_GE(id, 0);
    BIONAV_CHECK_LT(static_cast<size_t>(id), labels_.size());
    return id;
  }

  /// 1-based position of `id` among its parent's children. Child lists are
  /// ascending in id (AddNode appends fresh ids), so this is a binary
  /// search. `id` must not be the root.
  size_t ChildOrdinal(ConceptId id) const;

  /// Follows the ".ddd" components of `suffix` down from `node`; returns
  /// kInvalidConcept unless each one is a canonical, in-range ordinal.
  ConceptId WalkTreeNumber(ConceptId node, std::string_view suffix) const;

  bool frozen_ = false;
  std::vector<std::string> labels_;
  std::vector<ConceptId> parents_;
  std::vector<std::vector<ConceptId>> children_;

  // Computed at Freeze().
  std::vector<int> depths_;
  std::vector<int> pre_;        // Pre-order entry index.
  std::vector<int> post_;       // Pre-order exit index (subtree interval end).
  std::vector<int> level_widths_;
  int height_ = 0;
};

}  // namespace bionav

#endif  // BIONAV_HIERARCHY_CONCEPT_HIERARCHY_H_
