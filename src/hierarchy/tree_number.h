#ifndef BIONAV_HIERARCHY_TREE_NUMBER_H_
#define BIONAV_HIERARCHY_TREE_NUMBER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace bionav {

/// MeSH-style tree number ("C04.557.337"): a dotted path of fixed-width
/// numeric components encoding a concept's position in the hierarchy, with
/// an optional single-letter category prefix on the first component (as real
/// MeSH descriptors have, e.g. "A01"). Tree numbers give O(1) ancestor tests
/// via prefix comparison and are the on-disk identifier in the hierarchy
/// serialization format.
class TreeNumber {
 public:
  TreeNumber() = default;

  /// Parses a dotted tree number. Each component must be non-empty; the
  /// first may begin with an upper-case category letter; all remaining
  /// characters must be digits.
  static Result<TreeNumber> Parse(std::string_view text);

  /// Builds the root tree number (empty path).
  static TreeNumber Root() { return TreeNumber(); }

  /// Wraps components that are already well formed (as Parse would accept
  /// them), root first, without re-validating.
  static TreeNumber FromComponents(std::vector<std::string> components) {
    TreeNumber tn;
    tn.components_ = std::move(components);
    return tn;
  }

  /// Returns a child tree number by appending one component.
  TreeNumber Child(std::string_view component) const;

  /// Number of components; the root has zero.
  size_t Depth() const { return components_.size(); }

  bool IsRoot() const { return components_.empty(); }

  /// Parent tree number; requires !IsRoot().
  TreeNumber Parent() const;

  /// True iff this is a (proper or improper) prefix of `other`.
  bool IsAncestorOrSelf(const TreeNumber& other) const;

  /// True iff this is a proper prefix of `other`.
  bool IsProperAncestor(const TreeNumber& other) const;

  const std::vector<std::string>& components() const { return components_; }

  /// Dotted string form; the root renders as "" (empty).
  std::string ToString() const;

  bool operator==(const TreeNumber& other) const {
    return components_ == other.components_;
  }
  /// Lexicographic component order — matches MeSH browser ordering.
  bool operator<(const TreeNumber& other) const {
    return components_ < other.components_;
  }

 private:
  std::vector<std::string> components_;
};

}  // namespace bionav

#endif  // BIONAV_HIERARCHY_TREE_NUMBER_H_
