#include "core/navigation_tree.h"

#include <algorithm>

#include "obs/trace.h"

namespace bionav {

NavigationTree::NavigationTree(const ConceptHierarchy& hierarchy,
                               const AssociationTable& associations,
                               std::shared_ptr<const ResultSet> result)
    : hierarchy_(&hierarchy), result_(std::move(result)) {
  static LatencyHistogram* hist = GlobalMetrics().GetHistogram(
      "bionav_engine_tree_build_us",
      "Navigation-tree construction (maximum embedding) per query");
  TraceSpan span("tree_build", hist);
  BIONAV_CHECK(hierarchy.frozen());
  BIONAV_CHECK(result_ != nullptr);

  // Initial navigation tree: attach each result citation to the concepts it
  // is associated with. Only concepts that receive at least one citation
  // survive the maximum embedding, so the build works from the touched
  // (concept, result index) pairs alone, sorted into hierarchy pre-order.
  struct Touch {
    int rank;
    ConceptId concept_id;
    uint32_t index;
  };
  std::vector<Touch> touches;
  for (size_t i = 0; i < result_->size(); ++i) {
    for (ConceptId c : associations.ConceptsOf(result_->citation(i))) {
      touches.push_back(
          {hierarchy.pre_order_rank(c), c, static_cast<uint32_t>(i)});
    }
  }
  std::sort(touches.begin(), touches.end(),
            [](const Touch& a, const Touch& b) { return a.rank < b.rank; });

  // Maximum embedding via one sweep over the touched concepts in
  // pre-order: every kept node's parent is its nearest kept ancestor, the
  // top of the open-ancestor stack. This is exactly the result of
  // recursively splicing out empty nodes. The hierarchy root is kept
  // regardless (Definition 2 excludes it from the non-empty requirement to
  // avoid creating a forest) but citations associated directly with the
  // root, if any, are honored: rank 0 sorts first and lands on node 0.
  auto add_node = [&](ConceptId c, NavNodeId parent) {
    NavNodeId id = static_cast<NavNodeId>(nodes_.size());
    NavNode node;
    node.concept_id = c;
    node.parent = parent;
    node.results = result_->MakeBitset();
    node.global_count = associations.GlobalCount(c);
    nodes_.push_back(std::move(node));
    if (parent != kInvalidNavNode) {
      nodes_[static_cast<size_t>(parent)].children.push_back(id);
    }
    return id;
  };
  struct StackEntry {
    ConceptId concept_id;
    NavNodeId node;
  };
  std::vector<StackEntry> stack;
  stack.push_back({ConceptHierarchy::kRoot,
                   add_node(ConceptHierarchy::kRoot, kInvalidNavNode)});
  for (size_t t = 0; t < touches.size();) {
    ConceptId c = touches[t].concept_id;
    NavNodeId id = kRoot;
    if (c != ConceptHierarchy::kRoot) {
      while (!hierarchy.IsAncestorOrSelf(stack.back().concept_id, c)) {
        stack.pop_back();
      }
      id = add_node(c, stack.back().node);
      stack.push_back({c, id});
    }
    NavNode& node = nodes_[static_cast<size_t>(id)];
    for (; t < touches.size() && touches[t].concept_id == c; ++t) {
      node.results.Set(touches[t].index);
    }
    node.attached_count = static_cast<int>(node.results.Count());
  }

  BuildIntervals();
}

void NavigationTree::BuildIntervals() {
  // Pre-order subtree intervals: nodes are stored in pre-order, so each
  // node's interval end is the max over its descendants, computed by one
  // reverse sweep.
  subtree_end_.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    subtree_end_[i] = static_cast<NavNodeId>(i + 1);
  }
  for (size_t i = nodes_.size(); i-- > 1;) {
    size_t p = static_cast<size_t>(nodes_[i].parent);
    subtree_end_[p] = std::max(subtree_end_[p], subtree_end_[i]);
  }

  attached_prefix_.resize(nodes_.size() + 1);
  attached_prefix_[0] = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    attached_prefix_[i + 1] = attached_prefix_[i] + nodes_[i].attached_count;
  }
  subtree_results_.resize(nodes_.size());
  subtree_distinct_.assign(nodes_.size(), -1);
}

std::vector<SerializedNavNode> NavigationTree::ToSerializedNodes() const {
  std::vector<SerializedNavNode> out;
  out.reserve(nodes_.size());
  for (const NavNode& n : nodes_) {
    SerializedNavNode rec;
    rec.concept_id = n.concept_id;
    rec.parent = n.parent;
    rec.global_count = n.global_count;
    std::vector<size_t> idx = n.results.ToIndexes();
    rec.result_indexes.reserve(idx.size());
    for (size_t i : idx) rec.result_indexes.push_back(static_cast<uint32_t>(i));
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::shared_ptr<NavigationTree>> NavigationTree::FromSerializedNodes(
    const ConceptHierarchy& hierarchy, std::shared_ptr<const ResultSet> result,
    const std::vector<SerializedNavNode>& serialized) {
  auto bad = [](const std::string& what) {
    return Status::DataLoss("serialized navigation tree " + what);
  };
  if (result == nullptr) return bad("has no result set");
  if (serialized.empty()) return bad("is empty");
  if (serialized[0].parent != kInvalidNavNode ||
      serialized[0].concept_id != ConceptHierarchy::kRoot) {
    return bad("does not start at the hierarchy root");
  }
  // Structural validation happens up front, against the raw records: the
  // construction invariants below are enforced with CHECKs elsewhere in
  // this class, so anything not verified here could turn wire corruption
  // into a crash instead of a typed decode error.
  int prev_rank = -1;
  // A valid pre-order layout means each node's parent is on the ancestor
  // path of the previous node (the "open" chain of unfinished subtrees).
  std::vector<NavNodeId> open;
  open.reserve(64);
  for (size_t i = 0; i < serialized.size(); ++i) {
    const SerializedNavNode& rec = serialized[i];
    if (rec.concept_id < 0 ||
        static_cast<size_t>(rec.concept_id) >= hierarchy.size()) {
      return bad("names concept " + std::to_string(rec.concept_id) +
                 " outside the hierarchy");
    }
    // Strictly increasing hierarchy pre-order ranks: concepts are unique
    // and NodeOfConcept's rank search holds.
    int rank = hierarchy.pre_order_rank(rec.concept_id);
    if (rank <= prev_rank) {
      return bad("is out of hierarchy pre-order at concept " +
                 std::to_string(rec.concept_id));
    }
    prev_rank = rank;
    if (rec.global_count < 0) return bad("has a negative global count");
    uint32_t prev = 0;
    for (size_t k = 0; k < rec.result_indexes.size(); ++k) {
      uint32_t idx = rec.result_indexes[k];
      if (idx >= result->size()) return bad("result index out of range");
      if (k > 0 && idx <= prev) return bad("result indexes not ascending");
      prev = idx;
    }
    if (i == 0) {
      open.push_back(0);
      continue;
    }
    if (rec.parent < 0 || static_cast<size_t>(rec.parent) >= i) {
      return bad("node " + std::to_string(i) + " has parent " +
                 std::to_string(rec.parent) + " not preceding it");
    }
    // Non-root nodes of a maximum embedding carry at least one citation,
    // and their concept nests under the parent's in the hierarchy.
    if (rec.result_indexes.empty()) {
      return bad("has an empty non-root node");
    }
    if (!hierarchy.IsAncestorOrSelf(serialized[static_cast<size_t>(rec.parent)]
                                        .concept_id,
                                    rec.concept_id)) {
      return bad("breaks hierarchy ancestry at node " + std::to_string(i));
    }
    while (!open.empty() && open.back() != rec.parent) open.pop_back();
    if (open.empty()) {
      return bad("is not a pre-order layout (parent " +
                 std::to_string(rec.parent) + " closed before node " +
                 std::to_string(i) + ")");
    }
    open.push_back(static_cast<NavNodeId>(i));
  }

  std::shared_ptr<NavigationTree> tree(
      new NavigationTree(&hierarchy, std::move(result)));
  tree->nodes_.reserve(serialized.size());
  for (size_t i = 0; i < serialized.size(); ++i) {
    const SerializedNavNode& rec = serialized[i];
    NavNode node;
    node.concept_id = rec.concept_id;
    node.parent = rec.parent;
    node.results = tree->result_->MakeBitset();
    for (uint32_t idx : rec.result_indexes) node.results.Set(idx);
    node.attached_count = static_cast<int>(rec.result_indexes.size());
    node.global_count = rec.global_count;
    tree->nodes_.push_back(std::move(node));
    if (rec.parent != kInvalidNavNode) {
      tree->nodes_[static_cast<size_t>(rec.parent)].children.push_back(
          static_cast<NavNodeId>(i));
    }
  }
  tree->BuildIntervals();
  // Shared across sessions by definition (it crossed a shard boundary), so
  // always freeze — this also runs the SoA==lazy cross-validation over the
  // freshly rebuilt layout.
  tree->Freeze();
  return tree;
}

int NavigationTree::NodeDepth(NavNodeId id) const {
  int d = 0;
  for (NavNodeId u = parent(id); u != kInvalidNavNode; u = parent(u)) {
    ++d;
  }
  return d;
}

NavNodeId NavigationTree::NodeOfConcept(ConceptId concept_id) const {
  // Nodes are stored in hierarchy pre-order, so their concepts' pre-order
  // ranks ascend with the node id: binary-search by rank.
  const int rank = hierarchy_->pre_order_rank(concept_id);
  NavNodeId lo = 0;
  NavNodeId hi = static_cast<NavNodeId>(nodes_.size());
  while (lo < hi) {
    NavNodeId mid = lo + (hi - lo) / 2;
    if (hierarchy_->pre_order_rank(concept_of(mid)) < rank) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == static_cast<NavNodeId>(nodes_.size()) ||
      concept_of(lo) != concept_id) {
    return kInvalidNavNode;
  }
  return lo;
}

DynamicBitset NavigationTree::SubtreeResults(NavNodeId id) const {
  return SubtreeResultsCached(id);  // Copy.
}

const DynamicBitset& NavigationTree::SubtreeResultsCached(
    NavNodeId id) const {
  BIONAV_CHECK_GE(id, 0);
  BIONAV_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  if (subtree_distinct_[static_cast<size_t>(id)] >= 0) {
    return subtree_results_[static_cast<size_t>(id)];
  }
  // Freeze() materialized every node, so a fill on a frozen tree means a
  // stale index or corrupted cache — and would race concurrent readers.
  BIONAV_CHECK(!frozen_) << "lazy subtree-cache fill on a frozen tree";
  // Fill the whole subtree in one reverse-pre-order sweep (children precede
  // parents); nodes already cached by earlier calls are reused as-is.
  NavNodeId end = SubtreeEnd(id);
  for (NavNodeId u = end; u-- > id;) {
    size_t i = static_cast<size_t>(u);
    if (subtree_distinct_[i] >= 0) continue;
    DynamicBitset acc = nodes_[i].results;
    for (NavNodeId c : nodes_[i].children) {
      acc.UnionWith(subtree_results_[static_cast<size_t>(c)]);
    }
    subtree_distinct_[i] = static_cast<int>(acc.Count());
    subtree_results_[i] = std::move(acc);
  }
  return subtree_results_[static_cast<size_t>(id)];
}

void NavigationTree::BuildFlatLayout() {
  size_t n = nodes_.size();
  soa_concept_.resize(n);
  soa_parent_.resize(n);
  soa_first_child_.resize(n);
  soa_next_sibling_.resize(n);
  soa_attached_.resize(n);
  soa_global_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const NavNode& node = nodes_[i];
    NavNodeId id = static_cast<NavNodeId>(i);
    soa_concept_[i] = node.concept_id;
    soa_parent_[i] = node.parent;
    soa_attached_[i] = node.attached_count;
    soa_global_[i] = node.global_count;
    // Child links come from pre-order arithmetic, not the child vectors:
    // the first child of a non-leaf is the next id, and a node's next
    // sibling starts where its subtree ends (if still inside the parent's
    // interval). Deriving them independently makes the equivalence check
    // below a real cross-validation of the two layouts.
    soa_first_child_[i] =
        subtree_end_[i] > id + 1 ? id + 1 : kInvalidNavNode;
    if (node.parent == kInvalidNavNode) {
      soa_next_sibling_[i] = kInvalidNavNode;
    } else {
      NavNodeId end = subtree_end_[i];
      soa_next_sibling_[i] =
          end < subtree_end_[static_cast<size_t>(node.parent)]
              ? end
              : kInvalidNavNode;
    }
  }
  // SoA == lazy equivalence: walking every sibling chain must reproduce
  // each pointer node's child vector exactly (same ids, same order).
  for (size_t i = 0; i < n; ++i) {
    const std::vector<NavNodeId>& children = nodes_[i].children;
    size_t k = 0;
    for (NavNodeId c = soa_first_child_[i]; c != kInvalidNavNode;
         c = soa_next_sibling_[static_cast<size_t>(c)]) {
      BIONAV_CHECK_LT(k, children.size())
          << "SoA sibling chain longer than child vector";
      BIONAV_CHECK_EQ(c, children[k]) << "SoA child order diverges";
      ++k;
    }
    BIONAV_CHECK_EQ(k, children.size())
        << "SoA sibling chain shorter than child vector";
  }
}

void NavigationTree::Freeze() {
  if (frozen_) return;
  // The root fill materializes the cache for every node in one sweep;
  // after this, every const method is a pure read.
  SubtreeResultsCached(kRoot);
  BuildFlatLayout();
  frozen_ = true;
}

size_t NavigationTree::MemoryFootprint() const {
  size_t bytes = sizeof(NavigationTree);
  for (const NavNode& n : nodes_) {
    bytes += sizeof(NavNode) + n.children.capacity() * sizeof(NavNodeId) +
             n.results.MemoryBytes();
  }
  bytes += (nodes_.capacity() - nodes_.size()) * sizeof(NavNode);
  bytes += subtree_end_.capacity() * sizeof(NavNodeId);
  bytes += attached_prefix_.capacity() * sizeof(int64_t);
  bytes += subtree_distinct_.capacity() * sizeof(int);
  bytes += subtree_results_.capacity() * sizeof(DynamicBitset);
  for (const DynamicBitset& b : subtree_results_) bytes += b.MemoryBytes();
  bytes += soa_concept_.capacity() * sizeof(ConceptId);
  bytes += (soa_parent_.capacity() + soa_first_child_.capacity() +
            soa_next_sibling_.capacity()) *
           sizeof(NavNodeId);
  bytes += soa_attached_.capacity() * sizeof(int);
  bytes += soa_global_.capacity() * sizeof(int64_t);
  return bytes;
}

int NavigationTree::SubtreeDistinct(NavNodeId id) const {
  SubtreeResultsCached(id);
  return subtree_distinct_[static_cast<size_t>(id)];
}

int64_t NavigationTree::TotalAttachedWithDuplicates() const {
  return attached_prefix_.back();
}

int NavigationTree::MaxWidth() const {
  std::vector<int> depth(nodes_.size(), 0);
  std::vector<int> width;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    // Nodes are created in pre-order, so parents precede children.
    depth[i] = depth[static_cast<size_t>(nodes_[i].parent)] + 1;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (static_cast<size_t>(depth[i]) >= width.size()) {
      width.resize(static_cast<size_t>(depth[i]) + 1, 0);
    }
    width[static_cast<size_t>(depth[i])]++;
  }
  return width.empty() ? 0 : *std::max_element(width.begin(), width.end());
}

int NavigationTree::Height() const {
  std::vector<int> depth(nodes_.size(), 0);
  int h = 0;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    depth[i] = depth[static_cast<size_t>(nodes_[i].parent)] + 1;
    h = std::max(h, depth[i]);
  }
  return h;
}

std::vector<NavNodeId> NavigationTree::PreOrderIds() const {
  // Nodes are stored in pre-order by construction.
  std::vector<NavNodeId> ids(nodes_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NavNodeId>(i);
  return ids;
}

}  // namespace bionav
