// Simulation driver.
//
// Owns the event queue, the simulated clock, the run's timer lanes and its
// observability context, and provides the run-loop variants the benches and tests need
// (run to exhaustion, run until a time, run a bounded number of events).
// Also provides PeriodicTask, the building block for the SNMP poller and
// the VRA's continuous re-evaluation.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "obs/context.h"
#include "sim/event_queue.h"
#include "sim/timer_lane.h"

namespace vod::sim {

/// The top-level simulation context.  Components hold a reference to it and
/// schedule their own events.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  EventQueue& queue() { return queue_; }

  /// This run's observability sinks, stamped with now(); the loops below
  /// pump its series sampler (DESIGN.md §16).
  [[nodiscard]] obs::Context& obs() { return obs_; }
  [[nodiscard]] const obs::Context& obs() const { return obs_; }

  /// Schedules `callback` after `delay` from now.
  EventHandle schedule_in(Duration delay, EventQueue::Callback callback) {
    return queue_.schedule(now() + delay, std::move(callback));
  }

  /// Schedules `callback` at the absolute time `when`.
  EventHandle schedule_at(SimTime when, EventQueue::Callback callback) {
    return queue_.schedule(when, std::move(callback));
  }

  /// The lane of timers with this `delay` and `fire` callback, created on
  /// first use; it lives as long as the simulation.
  TimerLane& timer_lane(Duration delay, TimerLane::Fire fire);

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
  obs::Context obs_{[this] { return now(); }};
  /// Few lanes (one per stall timeout in use), searched linearly.
  std::vector<std::unique_ptr<TimerLane>> lanes_;
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
