// Union-find (disjoint set) used by the FD join-graph index to merge
// posting lists into connected components.
#ifndef LAKEFUZZ_UTIL_UNION_FIND_H_
#define LAKEFUZZ_UTIL_UNION_FIND_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace lakefuzz {

/// Serial disjoint-set forest. Iterative find with path halving; union by
/// rank. All operations are O(α(n)) amortized.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), rank_(n, 0) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of `a` and `b`; returns the surviving root.
  uint32_t Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return a;
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_UNION_FIND_H_
