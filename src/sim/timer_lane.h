// Timers of one fixed delay behind one queue event.
//
// Timers armed with the same delay expire in the order they were armed (the
// equal-interval case of Varghese & Lauck, "Hashed and Hierarchical Timing
// Wheels", SOSP 1987), so a FIFO list holds them in firing order and only
// its head needs a heap entry.  Arming reserves the sequence number that an
// EventQueue::schedule() call would have taken at that moment, and the
// lane's one event is keyed at the head's (when, sequence): the queue pops
// lane timers and ordinary events in exactly the order it would with one
// event per timer, while its heap holds one entry per lane.
#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace vod::sim {

class TimerLane {
 public:
  /// The intrusive link of one timer, embedded in its owner (as a base, so
  /// the fire callback can cast back to the owner).  The owner must stay at
  /// one address while the timer is armed.
  class Hook {
   public:
    [[nodiscard]] bool armed() const { return sequence_ != 0; }

   private:
    friend class TimerLane;
    Hook* prev_ = nullptr;
    Hook* next_ = nullptr;
    SimTime when_{0.0};
    std::uint64_t sequence_ = 0;  // 0 = not armed
  };

  /// Runs when a timer expires, after it was disarmed (so it may re-arm).
  using Fire = void (*)(Hook&, SimTime);

  TimerLane(EventQueue& queue, Duration delay, Fire fire)
      : queue_(queue), delay_(delay), fire_(fire) {}
  TimerLane(const TimerLane&) = delete;
  TimerLane& operator=(const TimerLane&) = delete;

  [[nodiscard]] Duration delay() const { return delay_; }
  [[nodiscard]] Fire fire() const { return fire_; }

  /// Arms `hook` to fire delay() from now.  It must not be armed already.
  void arm(Hook& hook);

  /// Disarms `hook`, which must be armed on this lane or not at all (then
  /// this is a no-op).
  void disarm(Hook& hook);

 private:
  void unlink(Hook& hook);
  void schedule_head();
  void on_event(SimTime now);

  EventQueue& queue_;
  Duration delay_;
  Fire fire_;
  Hook* head_ = nullptr;
  Hook* tail_ = nullptr;
  /// Keyed at head_'s (when, sequence) while the lane is not empty.
  EventHandle event_;
};

}  // namespace vod::sim
