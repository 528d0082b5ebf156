// Dense table keyed by a densely-issued TaggedId (nodes, links, videos): a
// vector indexed by `id.value()` with absent slots.  Ids may be inserted
// out of order and with gaps; the walk is in ascending id order, as the
// std::maps it replaced walked (DESIGN.md §12).  Entries are never erased:
// ids issued and retired by the million belong in a SlotMap instead.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/contract.h"

namespace vod {

template <typename Id, typename T>
class IdVector {
 public:
  /// Throws std::invalid_argument for an invalid or already-present id.
  /// The reference stays valid until the next insert.
  T& insert(Id id, T value) {
    require(id.valid(), "IdVector::insert: invalid id");
    if (id.value() >= slots_.size()) slots_.resize(id.value() + 1);
    require(!slots_[id.value()], "IdVector::insert: duplicate id");
    return slots_[id.value()].emplace(std::move(value));
  }

  [[nodiscard]] bool contains(Id id) const {
    return id.value() < slots_.size() && slots_[id.value()].has_value();
  }
  [[nodiscard]] T* find(Id id) {
    return contains(id) ? &*slots_[id.value()] : nullptr;
  }
  [[nodiscard]] const T* find(Id id) const {
    return contains(id) ? &*slots_[id.value()] : nullptr;
  }

  /// Lookup that must succeed; throws std::out_of_range with `what`.
  [[nodiscard]] T& at(Id id, const char* what) {
    require_found(contains(id), what);
    return *slots_[id.value()];
  }
  [[nodiscard]] const T& at(Id id, const char* what) const {
    require_found(contains(id), what);
    return *slots_[id.value()];
  }

  /// Visits the present entries in ascending id order: f(Id, const T&).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i]) continue;
      f(Id{static_cast<typename Id::underlying_type>(i)}, *slots_[i]);
    }
  }

 private:
  std::vector<std::optional<T>> slots_;
};

}  // namespace vod
