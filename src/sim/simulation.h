// Simulation driver.
//
// Owns the event queue and the simulated clock, and provides the run-loop
// variants the benches and tests need (run to exhaustion, run until a time,
// run a bounded number of events).  Also provides PeriodicTask, the building
// block for the SNMP poller and the VRA's continuous re-evaluation.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>

#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace vod::sim {

/// The top-level simulation context.  Components hold a reference to it and
/// schedule their own events.
class Simulation {
 public:
  [[nodiscard]] SimTime now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }

  /// Schedules `callback` after `delay` from now.
  EventHandle schedule_in(Duration delay, EventQueue::Callback callback) {
    return queue_.schedule(now() + delay, std::move(callback));
  }

  /// Schedules `callback` at the absolute time `when`.
  EventHandle schedule_at(SimTime when, EventQueue::Callback callback) {
    return queue_.schedule(when, std::move(callback));
  }

  /// Runs every pending event (including ones scheduled while running).
  /// Returns the number of events executed.  `max_events` guards against
  /// runaway self-rescheduling loops.
  std::size_t run(std::size_t max_events =
                      std::numeric_limits<std::size_t>::max());

  /// Runs events with time <= `until`; the clock ends at exactly `until`
  /// even if the queue drains earlier.
  std::size_t run_until(SimTime until);

 private:
  EventQueue queue_;
};

/// A task that re-fires at a fixed period until stopped.  The callback runs
/// first at `start + period` (matching an SNMP poller that reports at the
/// end of each interval).
class PeriodicTask {
 public:
  /// `body` receives the firing time; `period` must be positive.
  PeriodicTask(Simulation& sim, Duration period,
               std::function<void(SimTime)> body);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void fire(SimTime now);

  Simulation& sim_;
  Duration period_;
  std::function<void(SimTime)> body_;
  EventHandle next_fire_;
  bool running_ = false;
};

}  // namespace vod::sim
