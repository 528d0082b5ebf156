// Discrete-event queue.
//
// A 4-ary indexed min-heap of (time, sequence) keys over a table of
// callback slots.  The sequence number makes same-time events fire in
// scheduling order, which keeps the whole simulator deterministic.  Events
// can be cancelled or moved to a new time through the handle returned at
// scheduling time.  A caller that keeps its own ordered timers (TimerLane,
// sim/timer_lane.h) reserves each timer's sequence number when it arms it
// and keys one event at its earliest timer, so the heap pops exactly what
// it would pop with one event per timer.  Actions deferred from inside an
// event run after that event's callback returns, before the next event,
// without an event of their own.
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
  using Action = std::function<void()>;

  /// Schedules `callback` to fire at `when`.  Scheduling in the past (before
  /// the last popped event) throws std::invalid_argument.
  EventHandle schedule(SimTime when, Callback callback) {
    return schedule(when, reserve_sequence(), std::move(callback));
  }

  /// Schedules `callback` at the key (`when`, `sequence`), where `sequence`
  /// came from reserve_sequence(): the event fires where an event scheduled
  /// at the moment of the reservation would have fired.
  EventHandle schedule(SimTime when, std::uint64_t sequence,
                       Callback callback);

  /// Takes the sequence number the next schedule() would have taken.
  std::uint64_t reserve_sequence() { return next_sequence_++; }

  /// Cancels a pending event; returns false if it already fired, was
  /// already cancelled, or the handle is invalid.
  bool cancel(EventHandle handle);

  /// Moves a pending event to `when`, keeping its callback and handle.  The
  /// event takes a fresh sequence number, so it fires exactly where a cancel
  /// plus a new schedule would have put it: after every event already
  /// scheduled for `when`.  Returns false (and changes nothing) if the event
  /// already fired, was cancelled, or the handle is invalid; a `when` in the
  /// past throws std::invalid_argument.
  bool reschedule(EventHandle handle, SimTime when) {
    return rekey(handle, when, reserve_sequence());
  }

  /// Moves a pending event to the key (`when`, `sequence`), keeping its
  /// callback and handle; returns false (and changes nothing) for a stale
  /// or invalid handle.  A `when` in the past throws std::invalid_argument.
  bool rekey(EventHandle handle, SimTime when, std::uint64_t sequence);

  /// Runs `action` once the current event's callback returns, before the
  /// next event fires.  Deferred outside any event, it runs at the start of
  /// the next run_next() (or run_deferred()).  Deferred actions are not
  /// events: they take no sequence number and no heap entry.
  void defer(Action action) { deferred_.push_back(std::move(action)); }

  /// Runs every deferred action, including ones deferred meanwhile.
  void run_deferred() {
    if (!deferred_.empty()) drain_deferred();
  }

  /// Time of the earliest pending event, if any.
  [[nodiscard]] std::optional<SimTime> next_time() const;

  /// When a pending event will fire; nullopt once it fired or was
  /// cancelled, or for an invalid handle.
  [[nodiscard]] std::optional<SimTime> scheduled_time(
      EventHandle handle) const;

  /// Runs the deferred actions, then pops and runs the earliest event and
  /// the actions it deferred; returns false when no event was pending.
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

  static constexpr std::size_t kArity = 4;
  static constexpr auto earlier = [](const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.sequence < b.sequence;
  };
  /// The heap's `moved` callback: keeps each slot's heap_pos current.
  auto track() {
    return [this](const Entry& entry, std::size_t pos) {
      slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
    };
  }

  /// The slot of a pending event, or nullptr if the handle is stale.
  Slot* live_slot(EventHandle handle);
  void release(std::uint32_t slot);
  void drain_deferred();

  // A 4-ary indexed min-heap (common/indexed_heap.h) on (when, sequence)
  // with back-pointers in the slots, so cancel and reschedule reach their
  // entry in O(1) and repair the heap in O(log n).  (when, sequence) is a
  // total order, so the firing order is independent of the heap's layout.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Action> deferred_;
  std::uint64_t next_sequence_ = 1;
  SimTime now_{0.0};
};

}  // namespace vod::sim
