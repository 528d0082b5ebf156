#include "sim/simulation.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "obs/series.h"

namespace vod::sim {

namespace {

/// Series pump (DESIGN.md §16): takes every cadence tick up to the next
/// instant BEFORE that instant executes, so a sample at tick T reflects
/// exactly the events strictly before T.  With no recorder installed this
/// is the one load+branch the determinism contract allows.
inline void pump_series(const EventQueue& queue) {
  if (obs::TimeSeriesRecorder* series = obs::series_sink()) {
    if (const auto next = queue.next_time()) series->on_instant(*next);
  }
}

}  // namespace

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    pump_series(queue_);
    if (!queue_.run_next()) break;
    ++executed;
  }
  return executed;
}

std::size_t Simulation::run_until(SimTime until) {
  std::size_t executed = 0;
  while (auto next = queue_.next_time()) {
    if (*next > until) break;
    pump_series(queue_);
    queue_.run_next();
    ++executed;
  }
  // Advance the clock to `until` with a no-op event so `now()` reflects the
  // requested horizon even when the queue drained early.  The pump fires
  // first so series ticks <= `until` are flushed against the final state.
  if (queue_.now() < until) {
    queue_.schedule(until, [](SimTime) {});
    pump_series(queue_);
    queue_.run_next();
  }
  return executed;
}

PeriodicTask::PeriodicTask(Simulation& sim, Duration period,
                           std::function<void(SimTime)> body)
    : sim_(sim), period_(period), body_(std::move(body)) {
  require(!(period_.seconds() <= 0.0), "PeriodicTask: period must be positive");
  require(body_, "PeriodicTask: empty body");
}

void PeriodicTask::start() {
  if (running_) return;
  running_ = true;
  next_fire_ = sim_.schedule_in(period_, [this](SimTime t) { fire(t); });
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  sim_.queue().cancel(next_fire_);
  next_fire_ = EventHandle{};
}

void PeriodicTask::fire(SimTime now) {
  if (!running_) return;
  body_(now);
  // The body may have stopped the task.
  if (running_) {
    next_fire_ = sim_.schedule_in(period_, [this](SimTime t) { fire(t); });
  }
}

}  // namespace vod::sim
