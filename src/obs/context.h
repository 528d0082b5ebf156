// The observability context of one run.
//
// A Context holds the observe-only sinks a run can carry — the trace
// recorder, the series sampler and the flight recorder — and the clock that
// stamps their events.  sim::Simulation owns one whose clock is its now(),
// so two simulations in one process never see each other's events and no
// caller binds a clock by hand; a sim-less bench owns a standalone one with
// no clock (events stamp t=0).
//
// Instrumentation sites read trace()/series()/flight(): one load and a
// branch when the sink is off.  Components keep a pointer to the context,
// never to a recorder, so a recorder attached after a component is built
// still sees its events.
//
// Wiring (DESIGN.md §11): a user trace recorder is the effective sink and
// mirrors into the flight ring; with no user recorder the ring records
// alone.  Attaching a recorder points its timestamps at this context.  A
// recorder follows one context at a time (the latest attach wins), must
// outlive every context it is attached to or be detached first, and is
// released — clock and mirror — when the context that wired it dies, so it
// can follow the next run.
#pragma once

#include <functional>
#include <utility>

#include "common/sim_time.h"

namespace vod::obs {

class FlightRecorder;
class TimeSeriesRecorder;
class TraceRecorder;

class Context {
 public:
  /// A standalone context: no clock, events stamp t=0.
  Context() = default;
  explicit Context(std::function<SimTime()> clock)
      : clock_(std::move(clock)) {}
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] SimTime now() const {
    return clock_ ? clock_() : SimTime{0.0};
  }

  /// The effective trace sink: the attached recorder, else the flight
  /// ring, else nullptr.
  [[nodiscard]] TraceRecorder* trace() const { return sink_; }
  /// The series sampler the simulation loop pumps before each instant.
  [[nodiscard]] TimeSeriesRecorder* series() const { return series_; }
  /// The black box that anomaly triggers fire.
  [[nodiscard]] FlightRecorder* flight() const { return flight_; }

  /// Each attaches one sink; nullptr detaches it.
  void set_trace(TraceRecorder* recorder);
  void set_series(TimeSeriesRecorder* recorder) { series_ = recorder; }
  void set_flight(FlightRecorder* recorder);

 private:
  /// Recomputes the effective sink and the user recorder's mirror.
  void rewire();
  /// Undoes this context's wiring on `recorder`: its clock, and its mirror
  /// when that is this context's flight ring.
  void release(TraceRecorder& recorder) const;

  std::function<SimTime()> clock_;
  TraceRecorder* sink_ = nullptr;
  TraceRecorder* user_ = nullptr;
  TimeSeriesRecorder* series_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace vod::obs
