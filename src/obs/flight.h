// Always-on flight recorder ("black box").
//
// A FlightRecorder keeps a small ring of the most recent trace events —
// independent of any full TraceRecorder sink, cheap enough to leave on for
// every run — and, when an anomaly trigger fires (SLO breach, fault
// injection, preemption commit, or an explicit trigger() call), dumps a
// deterministic postmortem file: the last-N events, a full metrics
// snapshot, the active configuration (QoS knobs, seed — whatever the
// caller injects) and the sim clock.
//
// Attaching it to a run (obs::Context::set_flight) wires the recorder's
// ring into that run's effective trace sink: with no user TraceRecorder
// the ring records directly; with one, the user recorder mirrors into the
// ring — either way instrumentation sites still pay one load+branch when
// everything is off, and the ring sees every event even past a user
// recorder's capacity cap.
//
// Determinism contract (DESIGN.md §16): every byte of a dump derives from
// simulated state — events carry sim timestamps, the clock is the run's
// context clock, config entries are caller-supplied strings, and dump
// files are sequence-numbered (<prefix><seq>.json), never
// wall-clock-named.
// Double-runs produce byte-identical dumps.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vod::obs {

/// Hard cap on dump files per recorder; further triggers are counted as
/// suppressed.
inline constexpr std::size_t kMaxFlightDumps = 8;

struct FlightOptions {
  /// Ring capacity: how many recent events the black box retains.
  std::size_t ring_capacity = 256;
  /// Minimum sim time between dumps; triggers inside the gap are
  /// suppressed (a preemption storm produces one black box, not 400).
  Duration min_gap{60.0};
  /// Dump file path prefix; files are `<prefix><seq>.json` with seq
  /// starting at 0.  Empty = keep dumps in memory only (dumps()).
  std::string dump_path_prefix;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightOptions options = {});

  /// Source of the full metrics snapshot in each dump; nullptr omits it.
  /// Must outlive the recorder or be unbound first.
  void bind_registry(const MetricsRegistry* registry) {
    registry_ = registry;
  }
  /// Config shown in the dump (QoS knobs, seed...).
  /// Later sets with the same key overwrite; rendered key-sorted.
  void set_config(const std::string& key, const std::string& value);

  /// Fires the black box.  Returns true when a dump was produced, false
  /// when suppressed (kMaxFlightDumps reached or inside min_gap).
  bool trigger(const std::string& reason);

  [[nodiscard]] std::size_t dump_count() const { return dumps_.size(); }
  [[nodiscard]] std::size_t suppressed_count() const { return suppressed_; }
  /// In-memory copies of every dump produced (reason, json) — written to
  /// `<prefix><seq>.json` as well when a prefix is configured.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  dumps() const {
    return dumps_;
  }

  /// The ring itself (exposed for tests; the attached context feeds it and
  /// its clock stamps the dump's `sim_time_s`).
  [[nodiscard]] TraceRecorder& ring() { return ring_; }
  [[nodiscard]] const TraceRecorder& ring() const { return ring_; }

 private:
  [[nodiscard]] std::string build_dump(const std::string& reason,
                                       SimTime at) const;

  FlightOptions options_;
  TraceRecorder ring_;
  const MetricsRegistry* registry_ = nullptr;
  std::vector<std::pair<std::string, std::string>> config_;  // key-sorted
  std::vector<std::pair<std::string, std::string>> dumps_;
  std::size_t suppressed_ = 0;
  bool dumped_before_ = false;
  SimTime last_dump_{0.0};
};

}  // namespace vod::obs
