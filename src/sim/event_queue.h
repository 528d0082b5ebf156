// Discrete-event queue.
//
// A min-heap of (time, sequence, callback).  The sequence number makes
// same-time events fire in scheduling order, which keeps the whole simulator
// deterministic.  Events can be cancelled or moved to a new time through the
// handle returned at scheduling time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/sim_time.h"

namespace vod::sim {

/// Opaque handle identifying a scheduled event (for cancel and reschedule):
/// the event's callback slot plus the slot's generation when it was
/// scheduled, so a handle goes stale once its event fires or is cancelled,
/// even after the slot is reused.
class EventHandle {
 public:
  constexpr EventHandle() = default;

  [[nodiscard]] constexpr bool valid() const { return generation_ != 0; }

  friend constexpr bool operator==(EventHandle, EventHandle) = default;

 private:
  friend class EventQueue;
  constexpr EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;  // 0 = never scheduled
};

/// Priority queue of timed callbacks.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedules `callback` to fire at `when`.  Scheduling in the past (before
  /// the last popped event) throws std::invalid_argument.
  EventHandle schedule(SimTime when, Callback callback);

  /// Cancels a pending event; returns false if it already fired, was
  /// already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);

  /// Moves a pending event to `when`, keeping its callback and handle.  The
  /// event takes a fresh sequence number, so it fires exactly where a cancel
  /// plus a new schedule would have put it: after every event already
  /// scheduled for `when`.  Returns false (and changes nothing) if the event
  /// already fired, was cancelled, or the handle is invalid; a `when` in the
  /// past throws std::invalid_argument.
  bool reschedule(EventHandle handle, SimTime when);

  /// Time of the earliest pending event, if any.
  [[nodiscard]] std::optional<SimTime> next_time() const;

  /// Pops and runs the earliest event; returns false when empty.
  bool run_next();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_count() const { return heap_.size(); }

  /// Entries in the heap.  cancel() removes its entry at once, so this
  /// always equals pending_count(); perfbench's `sim.heap_padding_max`
  /// reads the difference to check that no dead entries linger.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// The time of the most recently fired event (simulation "now").
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  /// A heap entry: a plain 24-byte key, cheap to move during sifts.  The
  /// callback stays put in its slot.
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  /// A callback slot.  `heap_pos` is the back-pointer into heap_ while the
  /// slot's event is pending; `generation` changes each time the slot is
  /// released, which invalidates every handle issued for it.
  struct Slot {
    Callback callback;
    std::uint32_t heap_pos = 0;
    std::uint32_t generation = 1;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.sequence < b.sequence;
  }

  /// The slot of a pending event, or nullptr if the handle is stale.
  Slot* live_slot(EventHandle handle);
  void release(std::uint32_t slot);
  void place(std::uint32_t pos, const Entry& entry);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Restores heap order around `pos` after its key changed either way.
  void sift(std::uint32_t pos);
  void remove_at(std::uint32_t pos);

  // A 4-ary min-heap on (when, sequence) with back-pointers in the slots, so
  // cancel and reschedule reach their entry in O(1) and repair the heap in
  // O(log n).  (when, sequence) is a total order, so the firing order is
  // independent of the heap's internal layout.  A 4-ary heap is half as
  // deep as a binary one, and each node's children sit side by side.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_sequence_ = 1;
  SimTime now_{0.0};
};

}  // namespace vod::sim
