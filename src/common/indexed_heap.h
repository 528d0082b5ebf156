// Indexed d-ary heap algorithms over a std::vector.
//
// In the style of <algorithm>'s push_heap/pop_heap: the caller owns the
// vector, and these functions keep it a min-heap under `less` (the root,
// heap.front(), is the least entry).  Every write of an entry at a position
// calls `moved(entry, pos)`, so an owner can keep a back-pointer from each
// entry's object to its position and erase or re-key it in O(log n).  An
// owner without back-pointers passes a no-op.
//
// `Arity` children per node, fixed at compile time: a 4-ary heap is half as
// deep as a binary one and each node's children sit side by side.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace vod::indexed_heap {

namespace detail {

/// Writes `entry` into the hole at `pos`, first moving it toward the root
/// or the leaves until heap order holds.
template <std::size_t Arity, class T, class Less, class Moved>
void fill_hole(std::vector<T>& heap, std::size_t pos, T entry, Less& less,
               Moved& moved) {
  std::size_t parent = 0;
  if (pos > 0 && less(entry, heap[parent = (pos - 1) / Arity])) {
    do {
      heap[pos] = std::move(heap[parent]);
      moved(heap[pos], pos);
      pos = parent;
    } while (pos > 0 && less(entry, heap[parent = (pos - 1) / Arity]));
  } else {
    const std::size_t size = heap.size();
    for (;;) {
      const std::size_t first = Arity * pos + 1;
      if (first >= size) break;
      const std::size_t last = first + Arity < size ? first + Arity : size;
      std::size_t least = first;
      for (std::size_t child = first + 1; child < last; ++child) {
        if (less(heap[child], heap[least])) least = child;
      }
      if (!less(heap[least], entry)) break;
      heap[pos] = std::move(heap[least]);
      moved(heap[pos], pos);
      pos = least;
    }
  }
  heap[pos] = std::move(entry);
  moved(heap[pos], pos);
}

template <std::size_t Arity, class T, class Within, class F>
void visit_from(const std::vector<T>& heap, std::size_t pos, Within& within,
                F& f) {
  if (pos >= heap.size() || !within(heap[pos])) return;
  f(heap[pos]);
  const std::size_t first = Arity * pos + 1;
  for (std::size_t child = first; child < first + Arity; ++child) {
    visit_from<Arity>(heap, child, within, f);
  }
}

}  // namespace detail

/// Removes the entry at `pos`: the last entry fills the hole.
template <std::size_t Arity, class T, class Less, class Moved>
void erase(std::vector<T>& heap, std::size_t pos, Less less, Moved moved) {
  T last = std::move(heap.back());
  heap.pop_back();
  if (pos == heap.size()) return;
  detail::fill_hole<Arity>(heap, pos, std::move(last), less, moved);
}

/// Restores heap order after the key of the entry at `pos` changed, in
/// either direction.
template <std::size_t Arity, class T, class Less, class Moved>
void sift(std::vector<T>& heap, std::size_t pos, Less less, Moved moved) {
  T entry = std::move(heap[pos]);
  detail::fill_hole<Arity>(heap, pos, std::move(entry), less, moved);
}

/// Adds `entry`.
template <std::size_t Arity, class T, class Less, class Moved>
void push(std::vector<T>& heap, T entry, Less less, Moved moved) {
  heap.push_back(std::move(entry));
  sift<Arity>(heap, heap.size() - 1, less, moved);
}

/// Calls `f(entry)` for every entry with `within(entry)` true, where
/// `within` holds for every ancestor of an entry it holds for (a key bound
/// consistent with the order).  Pre-order from the root; the work is the
/// visited entries and their children.  `f` must not modify the heap.
template <std::size_t Arity, class T, class Within, class F>
void visit(const std::vector<T>& heap, Within within, F f) {
  detail::visit_from<Arity>(heap, 0, within, f);
}

}  // namespace vod::indexed_heap
