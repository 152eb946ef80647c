#include "hierarchy/concept_hierarchy.h"

#include <algorithm>
#include <charconv>

namespace bionav {

namespace {

constexpr size_t kComponentBuffer = 24;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Category letter of the root's `ordinal`-th child, cycling A..Z.
char CategoryLetter(size_t ordinal) {
  return static_cast<char>('A' + (ordinal - 1) % 26);
}

// Tree-number component of a child's 1-based `ordinal`, written into the
// tail of `buf`: the ordinal in decimal zero-padded to three digits, or for
// a child of the root its category letter plus the ordinal's last two
// digits ("A01", "B02").
std::string_view FormatComponent(size_t ordinal, bool top_level,
                                 char (&buf)[kComponentBuffer]) {
  char* const end = buf + kComponentBuffer;
  char* begin = end;
  for (size_t rest = ordinal; rest > 0 || end - begin < 3; rest /= 10) {
    *--begin = static_cast<char>('0' + rest % 10);
  }
  if (top_level) {
    begin = end - 3;
    *begin = CategoryLetter(ordinal);
  }
  return std::string_view(begin, static_cast<size_t>(end - begin));
}

}  // namespace

ConceptHierarchy::ConceptHierarchy() {
  labels_.push_back("MeSH");
  parents_.push_back(kInvalidConcept);
  children_.emplace_back();
}

ConceptId ConceptHierarchy::AddNode(ConceptId parent, std::string label) {
  BIONAV_CHECK(!frozen_) << "AddNode on a frozen hierarchy";
  CheckId(parent);
  ConceptId id = static_cast<ConceptId>(labels_.size());
  labels_.push_back(std::move(label));
  parents_.push_back(parent);
  children_.emplace_back();
  children_[parent].push_back(id);
  return id;
}

void ConceptHierarchy::Freeze() {
  BIONAV_CHECK(!frozen_) << "Freeze called twice";
  const size_t n = labels_.size();
  depths_.assign(n, 0);
  pre_.assign(n, 0);
  post_.assign(n, 0);
  level_widths_.clear();
  height_ = 0;

  // Iterative DFS assigning pre/post intervals and depths.
  int counter = 0;
  struct Frame {
    ConceptId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({kRoot, 0});
  pre_[kRoot] = counter++;
  while (!stack.empty()) {
    Frame& f = stack.back();
    ConceptId u = f.node;
    if (f.next_child < children_[u].size()) {
      ConceptId c = children_[u][f.next_child++];
      depths_[c] = depths_[u] + 1;
      height_ = std::max(height_, depths_[c]);
      pre_[c] = counter++;
      stack.push_back({c, 0});
    } else {
      post_[u] = counter;
      stack.pop_back();
    }
  }

  level_widths_.assign(static_cast<size_t>(height_) + 1, 0);
  for (size_t i = 0; i < n; ++i) level_widths_[static_cast<size_t>(depths_[i])]++;
  frozen_ = true;
}

void ConceptHierarchy::RenameNode(ConceptId id, std::string label) {
  labels_[static_cast<size_t>(CheckId(id))] = std::move(label);
}

int ConceptHierarchy::depth(ConceptId id) const {
  BIONAV_CHECK(frozen_);
  return depths_[CheckId(id)];
}

TreeNumber ConceptHierarchy::tree_number(ConceptId id) const {
  BIONAV_CHECK(frozen_);
  std::vector<std::string> components;
  components.reserve(static_cast<size_t>(depths_[CheckId(id)]));
  char buf[kComponentBuffer];
  for (ConceptId u = id; u != kRoot; u = parents_[u]) {
    components.emplace_back(
        FormatComponent(ChildOrdinal(u), parents_[u] == kRoot, buf));
  }
  std::reverse(components.begin(), components.end());
  return TreeNumber::FromComponents(std::move(components));
}

size_t ConceptHierarchy::ChildOrdinal(ConceptId id) const {
  const std::vector<ConceptId>& siblings = children_[parents_[id]];
  auto it = std::lower_bound(siblings.begin(), siblings.end(), id);
  return static_cast<size_t>(it - siblings.begin()) + 1;
}

bool ConceptHierarchy::IsAncestorOrSelf(ConceptId a, ConceptId b) const {
  BIONAV_CHECK(frozen_);
  CheckId(a);
  CheckId(b);
  return pre_[a] <= pre_[b] && post_[b] <= post_[a];
}

ConceptId ConceptHierarchy::FindByLabel(std::string_view label) const {
  auto it = std::find(labels_.begin(), labels_.end(), label);
  return it == labels_.end() ? kInvalidConcept
                             : static_cast<ConceptId>(it - labels_.begin());
}

ConceptId ConceptHierarchy::FindByTreeNumber(
    std::string_view tree_number) const {
  BIONAV_CHECK(frozen_);
  if (tree_number.empty()) return kRoot;
  size_t dot = tree_number.find('.');
  std::string_view top = tree_number.substr(0, dot);
  std::string_view suffix = dot == std::string_view::npos
                                ? std::string_view()
                                : tree_number.substr(dot);
  if (top.size() != 3 || !IsDigit(top[1]) || !IsDigit(top[2])) {
    return kInvalidConcept;
  }
  // A top-level component keeps only the last two digits of the ordinal, so
  // past 1300 root children two of them can share one. Try every candidate
  // ordinal and keep the lowest id, as a lookup table filled in id order
  // would.
  const std::vector<ConceptId>& tops = children_[kRoot];
  size_t low = static_cast<size_t>((top[1] - '0') * 10 + (top[2] - '0'));
  ConceptId best = kInvalidConcept;
  for (size_t ordinal = low == 0 ? 100 : low; ordinal <= tops.size();
       ordinal += 100) {
    if (top[0] != CategoryLetter(ordinal)) continue;
    ConceptId found = WalkTreeNumber(tops[ordinal - 1], suffix);
    if (found != kInvalidConcept && (best == kInvalidConcept || found < best)) {
      best = found;
    }
  }
  return best;
}

ConceptId ConceptHierarchy::WalkTreeNumber(ConceptId node,
                                           std::string_view suffix) const {
  while (!suffix.empty()) {
    suffix.remove_prefix(1);  // The '.' separator.
    size_t dot = suffix.find('.');
    std::string_view component = suffix.substr(0, dot);
    suffix = dot == std::string_view::npos ? std::string_view()
                                           : suffix.substr(dot);
    // Canonical spelling: the ordinal in decimal, zero-padded to three
    // digits ("001", "042", "1000").
    size_t ordinal = 0;
    const char* end = component.data() + component.size();
    auto [ptr, ec] = std::from_chars(component.data(), end, ordinal);
    const std::vector<ConceptId>& children = children_[node];
    if (ec != std::errc() || ptr != end || component.size() < 3 ||
        (component.size() > 3 && component[0] == '0') || ordinal == 0 ||
        ordinal > children.size()) {
      return kInvalidConcept;
    }
    node = children[ordinal - 1];
  }
  return node;
}

const std::vector<int>& ConceptHierarchy::LevelWidths() const {
  BIONAV_CHECK(frozen_);
  return level_widths_;
}

void ConceptHierarchy::PreOrder(
    const std::function<void(ConceptId)>& visit) const {
  std::vector<ConceptId> stack = {kRoot};
  while (!stack.empty()) {
    ConceptId u = stack.back();
    stack.pop_back();
    visit(u);
    const auto& ch = children_[u];
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
}

void ConceptHierarchy::PostOrder(
    const std::function<void(ConceptId)>& visit) const {
  struct Frame {
    ConceptId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({kRoot, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < children_[f.node].size()) {
      ConceptId c = children_[f.node][f.next_child++];
      stack.push_back({c, 0});
    } else {
      visit(f.node);
      stack.pop_back();
    }
  }
}

std::vector<ConceptId> ConceptHierarchy::PathFromRoot(ConceptId id) const {
  CheckId(id);
  std::vector<ConceptId> path;
  for (ConceptId u = id; u != kInvalidConcept; u = parents_[u]) {
    path.push_back(u);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<ConceptId> ConceptHierarchy::Subtree(ConceptId id) const {
  CheckId(id);
  std::vector<ConceptId> out;
  std::vector<ConceptId> stack = {id};
  while (!stack.empty()) {
    ConceptId u = stack.back();
    stack.pop_back();
    out.push_back(u);
    const auto& ch = children_[u];
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

}  // namespace bionav
