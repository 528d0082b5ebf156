// Structured sim-time event tracing.
//
// The TraceRecorder collects timestamped events from every subsystem
// (session lifecycle, VRA route decisions, DMA cache churn, fluid
// reallocation epochs, fault injections, SNMP sweeps) and exports them as
// Chrome trace-event JSON — loadable in Perfetto / about:tracing, with one
// "thread" track per subsystem — or as a deterministic line-per-event text
// dump for golden tests and the double-run determinism harness.
//
// Determinism contract (DESIGN.md §11): tracing is observe-only.  Call
// sites first check their run's obs::Context::trace() (null when tracing
// is off) and only then build event arguments, so a disabled recorder
// costs one load+branch and an enabled one never feeds anything back into
// the simulation.  Timestamps come from the context the recorder is
// attached to — always simulated time, never the wall clock (wall-clock
// profiling lives in obs/profile.h, separately gated).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace vod::obs {

class Context;

/// The subsystem an event belongs to; each renders as its own thread track
/// in the Chrome trace (tid = enum value + 1).
enum class Subsystem {
  kSession = 0,
  kVra,
  kDma,
  kFluid,
  kSnmp,
  kFault,
  kService,
  kSim,
  kSlo,  // SLO burn-rate breach/recover events (obs/slo.h)
};

inline constexpr std::size_t kSubsystemCount = 9;

const char* to_string(Subsystem subsystem);

/// One key/value event annotation.  Values are pre-rendered strings so the
/// recorder stores no type zoo; numbers should be formatted by the call
/// site (deterministically — ostringstream default formatting).
struct TraceArg {
  std::string key;
  std::string value;
};

/// One recorded event.  `phase` uses the Chrome trace-event phase letters:
///   'i' instant   'B'/'E' duration begin/end (nest per subsystem track)
///   'b'/'e' async begin/end (paired by id; sessions use these so
///           overlapping lifespans need no nesting discipline)
///   'C' counter (value plotted as a counter track)
struct TraceEvent {
  SimTime at{0.0};
  Subsystem subsystem = Subsystem::kService;
  char phase = 'i';
  std::string name;
  std::uint64_t id = 0;    // async pair id ('b'/'e' only)
  double value = 0.0;      // counter value ('C' only)
  std::vector<TraceArg> args;
};

/// What a capacity-capped recorder does with event N+1.
enum class OverflowPolicy {
  kDrop,  // count it (dropped_count) and discard — keeps the run's head
  kRing,  // overwrite the oldest event — keeps the run's tail (flight ring)
};

/// Collects events in memory; export with to_chrome_json() / to_text().
class TraceRecorder {
 public:
  /// `max_events` bounds memory on huge runs: once reached, kDrop counts
  /// further events (dropped_count) without storing them, kRing overwrites
  /// the oldest (overwritten_count) so the buffer always holds the most
  /// recent tail.  0 = unlimited (kDrop only).
  explicit TraceRecorder(std::size_t max_events = 0,
                         OverflowPolicy policy = OverflowPolicy::kDrop);

  void instant(Subsystem subsystem, std::string name,
               std::vector<TraceArg> args = {});
  void counter(Subsystem subsystem, std::string name, double value);
  void begin(Subsystem subsystem, std::string name,
             std::vector<TraceArg> args = {});
  void end(Subsystem subsystem, std::string name);
  void async_begin(Subsystem subsystem, std::string name, std::uint64_t id,
                   std::vector<TraceArg> args = {});
  void async_end(Subsystem subsystem, std::string name, std::uint64_t id);

  /// Physical storage order; under kRing after a wrap this is rotated —
  /// use for_each_event() / the exporters for oldest-first order.
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  /// Oldest-to-newest visit that is wrap-aware under kRing.
  template <class Fn>
  void for_each_event(Fn&& fn) const {
    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(events_[(head_ + i) % n]);
    }
  }
  [[nodiscard]] std::size_t dropped_count() const { return dropped_; }
  [[nodiscard]] std::size_t overwritten_count() const { return overwritten_; }
  void clear();

  /// The sim time of the context this recorder is attached to (t=0 when
  /// detached or when the context has no clock); stamps every event.
  [[nodiscard]] SimTime now() const;

  /// Chrome trace-event JSON ("traceEvents" array plus thread-name
  /// metadata); loads in Perfetto and chrome://tracing.  Timestamps are
  /// simulated microseconds.
  [[nodiscard]] std::string to_chrome_json() const;

  /// One line per event: `t=<s> <subsystem> <phase> <name> [k=v ...]` —
  /// the deterministic dump the golden tests and the double-run harness
  /// compare byte for byte.
  [[nodiscard]] std::string to_text() const;

  /// Distinct subsystems with at least one recorded event.
  [[nodiscard]] std::size_t subsystem_count() const;

 private:
  friend class Context;  // attaches the clock and the flight mirror

  void push(TraceEvent event);

  const Context* context_ = nullptr;
  std::vector<TraceEvent> events_;
  std::size_t max_events_ = 0;
  OverflowPolicy policy_ = OverflowPolicy::kDrop;
  std::size_t head_ = 0;  // oldest element / next overwrite slot (kRing)
  std::size_t dropped_ = 0;
  std::size_t overwritten_ = 0;
  /// Receives a copy of every event pushed here, before any capacity
  /// handling, so the flight ring sees events this recorder drops.
  TraceRecorder* mirror_ = nullptr;
};

/// Renders a number the way the text/JSON exporters expect (ostringstream
/// default formatting — deterministic across runs on one platform).
std::string num(double value);
std::string num(std::uint64_t value);

/// JSON string escaping for names and arg values (control characters,
/// quote, backslash); shared by the trace and flight exporters.
std::string json_escape(const std::string& in);

}  // namespace vod::obs
