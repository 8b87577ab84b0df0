#pragma once

/// \file quad_heap.h
/// 4-ary array heap: the DES engine's priority queue.
///
/// A d-ary heap with d=4 halves the tree depth of a binary heap, trading
/// (cheap, branch-predictable) extra sibling comparisons per level for
/// (expensive) cache misses on the path — the classic win for small POD
/// entries like the executor's ready records. The root lives at index 0;
/// children of i are 4i+1 .. 4i+4.
///
/// `Before(a, b)` returns true when `a` must pop before `b`. Elements are
/// moved with plain assignment, so keep them trivially copyable.

#include <cstddef>
#include <utility>
#include <vector>

namespace holmes {

template <typename T, typename Before>
class QuadHeap {
 public:
  QuadHeap() = default;
  explicit QuadHeap(Before before) : before_(before) {}

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() { items_.clear(); }

  /// The element that pops next. Requires !empty().
  const T& top() const { return items_.front(); }

  void push(T item) {
    std::size_t i = items_.size();
    items_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before_(items_[i], items_[parent])) break;
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  void pop() {
    const std::size_t n = items_.size() - 1;
    items_[0] = items_[n];
    items_.pop_back();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      // Best-of-children selection is written as conditional moves, not
      // branches: each comparison outcome is data-dependent and effectively
      // random, so a branchy scan pays a pipeline flush per level. With an
      // integer-comparable T this loop compiles branch-free.
      std::size_t best = first;
      T best_item = items_[first];
      for (std::size_t c = first + 1; c < last; ++c) {
        const bool sooner = before_(items_[c], best_item);
        best_item = sooner ? items_[c] : best_item;
        best = sooner ? c : best;
      }
      if (!before_(best_item, items_[i])) break;
      items_[best] = items_[i];
      items_[i] = best_item;
      i = best;
    }
  }

 private:
  std::vector<T> items_;
  Before before_{};
};

}  // namespace holmes
