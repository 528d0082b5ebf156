// Dense, generation-checked slot storage for the per-session/per-flow hot
// containers.
//
// The service hands out SessionIds and FlowIds monotonically and retires
// them roughly in arrival order, so a node-based std::map pays pointer
// chasing, per-entry heap allocation and O(log n) lookups for ordering the
// key sequence already provides.  SlotMap replaces it with two flat arrays:
//
//   * a slot vector holding the values contiguously (free slots recycled
//     through a free list), and
//   * a sliding id->slot window: ids below the window base are known
//     retired, so the index occupies O(active + churn window) no matter how
//     many ids a long run burns through.
//
// Ordered iteration (ascending id — the order every determinism-sensitive
// float reduction in this library relies on; see DESIGN.md §12) is a linear
// walk of the window, not a tree traversal.  Ids are never reused by the
// callers, which keeps the id->slot window unambiguous.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/contract.h"

namespace vod {

/// Dense storage keyed by a monotonically-issued TaggedId.  Insertion must
/// be in ascending id order (gaps allowed); erasure may happen in any
/// order.  Values live contiguously in recycled slots; lookups are O(1).
template <typename Id, typename T>
class SlotMap {
 public:
  using underlying = typename Id::underlying_type;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool contains(Id id) const { return slot_index(id) != kNpos; }

  [[nodiscard]] T* find(Id id) {
    const std::uint32_t slot = slot_index(id);
    return slot == kNpos ? nullptr : &*slots_[slot].value;
  }
  [[nodiscard]] const T* find(Id id) const {
    const std::uint32_t slot = slot_index(id);
    return slot == kNpos ? nullptr : &*slots_[slot].value;
  }

  /// Lookup that must succeed; throws std::out_of_range with `what`.
  [[nodiscard]] T& at(Id id, const char* what) {
    T* value = find(id);
    require_found(value != nullptr, what);
    return *value;
  }
  [[nodiscard]] const T& at(Id id, const char* what) const {
    const T* value = find(id);
    require_found(value != nullptr, what);
    return *value;
  }

  /// Inserts a new entry.  `id` must be valid and strictly above every id
  /// ever inserted (the monotonic-issue contract).  Returns the stored
  /// value; the reference is valid until the next insert or erase (a new
  /// slot may reallocate the slot vector).
  T& insert(Id id, T value) {
    require(id.valid(), "SlotMap::insert: invalid id");
    if (size_ == 0 && window_.empty()) {
      window_start_ = id.value();
      head_ = 0;
    }
    ensure(id.value() >= window_start_,
        "SlotMap::insert: id below the retired window");
    const std::size_t pos =
        head_ + static_cast<std::size_t>(id.value() - window_start_);
    if (pos >= window_.size()) {
      window_.resize(pos + 1, kNpos);
    }
    ensure(window_[pos] == kNpos, "SlotMap::insert: duplicate id");
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.id = id;
    s.value.emplace(std::move(value));
    window_[pos] = slot;
    ++size_;
    return *s.value;
  }

  /// Erases an entry (throws std::out_of_range if absent): the slot joins
  /// the free list, and the id window advances past any fully-retired
  /// prefix.
  void erase(Id id) {
    const std::uint32_t slot = slot_index(id);
    require_found(slot != kNpos, "SlotMap::erase: unknown id");
    const std::size_t pos =
        head_ + static_cast<std::size_t>(id.value() - window_start_);
    Slot& s = slots_[slot];
    s.value.reset();
    s.id = Id{};
    free_.push_back(slot);
    window_[pos] = kNpos;
    --size_;
    advance_window();
  }

  /// Visits entries in ascending id order: f(Id, T&).  The map must not be
  /// mutated during the walk.
  template <typename F>
  void for_each_ordered(F&& f) {
    for (std::size_t pos = head_; pos < window_.size(); ++pos) {
      const std::uint32_t slot = window_[pos];
      if (slot == kNpos) continue;
      f(slots_[slot].id, *slots_[slot].value);
    }
  }
  template <typename F>
  void for_each_ordered(F&& f) const {
    for (std::size_t pos = head_; pos < window_.size(); ++pos) {
      const std::uint32_t slot = window_[pos];
      if (slot == kNpos) continue;
      f(slots_[slot].id, *slots_[slot].value);
    }
  }

  // ---- introspection (tests / memory accounting) ----

  /// Width of the live id window (active entries + not-yet-compacted
  /// churn); the index memory is proportional to this, not to the total
  /// ids issued.
  [[nodiscard]] std::size_t window_span() const {
    return window_.size() - head_;
  }
  /// Slots ever allocated — bounded by the high-water mark of concurrent
  /// entries, not by total ids issued.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  struct Slot {
    Id id{};
    std::optional<T> value;
  };

  [[nodiscard]] std::uint32_t slot_index(Id id) const {
    if (!id.valid() || id.value() < window_start_) return kNpos;
    const std::size_t pos =
        head_ + static_cast<std::size_t>(id.value() - window_start_);
    return pos < window_.size() ? window_[pos] : kNpos;
  }

  void advance_window() {
    while (head_ < window_.size() && window_[head_] == kNpos) {
      ++head_;
      ++window_start_;
    }
    if (head_ == window_.size()) {
      window_.clear();
      head_ = 0;
      return;
    }
    // Amortized O(1) front trimming: drop the dead prefix once it
    // dominates the vector.
    if (head_ >= 1024 && head_ * 2 >= window_.size()) {
      window_.erase(window_.begin(),
                   window_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> window_;  // window: id -> slot (kNpos = absent)
  std::size_t head_ = 0;              // first live position in window_
  underlying window_start_ = 0;       // id value at window_[head_]
  std::size_t size_ = 0;
};

/// Chunked object pool: address-stable placement-new allocation with a free
/// list, for objects that capture `this` in callbacks (stream::Session) and
/// therefore cannot live inside a reallocating vector.  Replaces one
/// operator-new per object with one allocation per kChunkObjects.
template <typename T>
class ObjectPool {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "ObjectPool: over-aligned types need aligned chunks");

 public:
  static constexpr std::size_t kChunkObjects = 256;

  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Destroying the pool frees the chunks; all objects must have been
  /// destroyed first (their owners hold Ptr, whose deleter returns here).
  ~ObjectPool() = default;

  template <typename... Args>
  [[nodiscard]] T* create(Args&&... args) {
    if (free_ == nullptr) grow();
    FreeNode* node = free_;
    free_ = node->next;
    T* object = new (node) T(std::forward<Args>(args)...);
    ++live_;
    return object;
  }

  void destroy(T* object) noexcept {
    object->~T();
    auto* node = reinterpret_cast<FreeNode*>(object);
    node->next = free_;
    free_ = node;
    --live_;
  }

  struct Deleter {
    ObjectPool* pool = nullptr;
    void operator()(T* object) const noexcept { pool->destroy(object); }
  };
  /// unique_ptr returning to this pool on destruction.
  using Ptr = std::unique_ptr<T, Deleter>;

  template <typename... Args>
  [[nodiscard]] Ptr make(Args&&... args) {
    return Ptr{create(std::forward<Args>(args)...), Deleter{this}};
  }

  [[nodiscard]] std::size_t live_count() const { return live_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  union CellStorage {
    FreeNode node;
    alignas(T) std::byte storage[sizeof(T)];
  };

  void grow() {
    auto chunk = std::make_unique<CellStorage[]>(kChunkObjects);
    for (std::size_t i = kChunkObjects; i-- > 0;) {
      chunk[i].node.next = free_;
      free_ = &chunk[i].node;
    }
    chunks_.push_back(std::move(chunk));
  }

  std::vector<std::unique_ptr<CellStorage[]>> chunks_;
  FreeNode* free_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace vod
