#include "common/indexed_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.h"

namespace vod {
namespace {

// A keyed entry whose owner tracks its position, as the event queue and the
// transfer lanes do.  Keys come from a small range, so ties are common.
struct Item {
  std::int64_t key;
  std::uint32_t id;
};

constexpr auto by_key = [](const Item& a, const Item& b) {
  return a.key < b.key;
};

/// An indexed heap checked against a model: id -> key, kept sorted by the
/// map, plus each id's position as reported by the `moved` callback.
template <std::size_t Arity>
class Checked {
 public:
  void push(std::int64_t key) {
    const std::uint32_t id = next_id_++;
    model_[id] = key;
    pos_.resize(next_id_, kGone);
    indexed_heap::push<Arity>(heap_, Item{key, id}, by_key, track());
  }

  void erase_at(std::size_t pos) {
    const std::uint32_t id = heap_[pos].id;
    model_.erase(id);
    pos_[id] = kGone;
    indexed_heap::erase<Arity>(heap_, pos, by_key, track());
  }

  void rekey(std::uint32_t id, std::int64_t key) {
    model_[id] = key;
    heap_[pos_[id]].key = key;
    indexed_heap::sift<Arity>(heap_, pos_[id], by_key, track());
  }

  /// Pops the root, which must hold the model's least key.
  void pop() {
    const std::int64_t least = std::min_element(
        model_.begin(), model_.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; })
        ->second;
    ASSERT_EQ(heap_.front().key, least);
    erase_at(0);
  }

  /// Heap order, every back-pointer, and the same entries as the model.
  void check() const {
    ASSERT_EQ(heap_.size(), model_.size());
    for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
      const Item& item = heap_[pos];
      if (pos > 0) {
        ASSERT_FALSE(item.key < heap_[(pos - 1) / Arity].key)
            << "out of order at " << pos;
      }
      ASSERT_EQ(pos_[item.id], pos) << "stale back-pointer of " << item.id;
      const auto it = model_.find(item.id);
      ASSERT_NE(it, model_.end());
      ASSERT_EQ(it->second, item.key);
    }
  }

  /// visit(key <= bound) yields exactly the model's entries at or below
  /// `bound`, each once, reading at most Arity children per visited entry.
  void check_visit(std::int64_t bound) const {
    std::vector<std::uint32_t> seen;
    std::size_t tests = 0;
    indexed_heap::visit<Arity>(
        heap_,
        [&](const Item& item) {
          ++tests;
          return item.key <= bound;
        },
        [&](const Item& item) { seen.push_back(item.id); });
    std::vector<std::uint32_t> want;
    for (const auto& [id, key] : model_) {
      if (key <= bound) want.push_back(id);
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen, want) << "bound " << bound;
    ASSERT_LE(tests, 1 + Arity * seen.size());
  }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] std::uint32_t id_at(std::size_t pos) const {
    return heap_[pos].id;
  }
  [[nodiscard]] std::int64_t key_at(std::size_t pos) const {
    return heap_[pos].key;
  }

 private:
  static constexpr std::size_t kGone = ~std::size_t{0};

  auto track() {
    return [this](const Item& item, std::size_t pos) { pos_[item.id] = pos; };
  }

  std::vector<Item> heap_;
  std::map<std::uint32_t, std::int64_t> model_;
  std::vector<std::size_t> pos_;
  std::uint32_t next_id_ = 0;
};

template <std::size_t Arity>
void run_differential(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  Rng rng{seed};
  Checked<Arity> heap;
  for (int step = 0; step < 4000; ++step) {
    // Grow while small, shrink while large, so the heap breathes between
    // empty and a few hundred entries.
    const double grow = heap.size() < 300 ? 0.55 : 0.35;
    const double roll = rng.uniform();
    const auto any = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(heap.size()) - 1));
    };
    if (heap.size() == 0 || roll < grow) {
      heap.push(rng.uniform_int(0, 200));
    } else if (roll < grow + 0.15) {
      heap.erase_at(any());
    } else if (roll < grow + 0.25) {
      const std::size_t pos = any();
      heap.rekey(heap.id_at(pos),
                 heap.key_at(pos) - rng.uniform_int(1, 60));  // up
    } else if (roll < grow + 0.35) {
      const std::size_t pos = any();
      heap.rekey(heap.id_at(pos),
                 heap.key_at(pos) + rng.uniform_int(1, 60));  // down
    } else {
      ASSERT_NO_FATAL_FAILURE(heap.pop()) << "step " << step;
    }
    ASSERT_NO_FATAL_FAILURE(heap.check()) << "step " << step;
    if (step % 16 == 0) {
      ASSERT_NO_FATAL_FAILURE(heap.check_visit(rng.uniform_int(-80, 280)))
          << "step " << step;
    }
  }
}

TEST(IndexedHeap, BinaryMatchesSortedModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 41u}) {
    run_differential<2>(seed);
  }
}

TEST(IndexedHeap, FourAryMatchesSortedModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 41u}) {
    run_differential<4>(seed);
  }
}

TEST(IndexedHeap, DrainsInKeyOrderWithoutBackPointers) {
  // The transfer manager's completion candidates: plain keys, no owner.
  Rng rng{7};
  std::vector<std::uint32_t> heap;
  std::vector<std::uint32_t> model;
  const auto untracked = [](std::uint32_t, std::size_t) {};
  for (int i = 0; i < 500; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    indexed_heap::push<2>(heap, key, std::less<>{}, untracked);
    model.push_back(key);
  }
  std::sort(model.begin(), model.end());
  std::vector<std::uint32_t> popped;
  while (!heap.empty()) {
    popped.push_back(heap.front());
    indexed_heap::erase<2>(heap, 0, std::less<>{}, untracked);
  }
  EXPECT_EQ(popped, model);
}

TEST(IndexedHeap, VisitStopsAtTheRootAndOnEmpty) {
  std::vector<Item> heap;
  int tests = 0;
  int visited = 0;
  const auto within = [&](const Item& item) {
    ++tests;
    return item.key <= 5;
  };
  const auto count = [&](const Item&) { ++visited; };
  const auto untracked = [](const Item&, std::size_t) {};
  indexed_heap::visit<4>(heap, within, count);
  EXPECT_EQ(tests, 0);
  for (std::uint32_t id = 0; id < 50; ++id) {
    indexed_heap::push<4>(heap, Item{10 + id, id}, by_key, untracked);
  }
  indexed_heap::visit<4>(heap, within, count);
  EXPECT_EQ(tests, 1);
  EXPECT_EQ(visited, 0);
}

}  // namespace
}  // namespace vod
