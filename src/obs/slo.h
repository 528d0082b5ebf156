// Declarative SLOs with multi-window burn-rate evaluation.
//
// An SloSpec names a service-level objective over registry metrics — a
// per-class availability floor (good/total counters), a reject-rate
// ceiling (bad/total counters), or a latency-quantile ceiling over an
// existing fixed-bucket histogram — and a set of sliding sim-time windows.
// The monitor keeps a ring of timestamped metric snapshots, computes each
// window's burn rate (how fast the error budget is being consumed, 1.0 =
// exactly at budget) from windowed deltas, and declares a breach only when
// EVERY window exceeds its burn threshold — the SRE multi-window pattern
// that makes short spikes and slow leaks both detectable without paging on
// noise.
//
// Crossings are edge-triggered: entering breach emits one `slo.breach`
// instant on the kSlo trace track of the monitor's run context, increments
// `slo.<name>.breaches`, and pokes that run's flight recorder; leaving
// emits `slo.recover`.  Evaluation is
// driven by the same deterministic cadence as the series sampler (the
// monitor piggybacks on TimeSeriesRecorder ticks via evaluate()), so
// identical runs breach at identical instants.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/context.h"
#include "obs/metrics.h"

namespace vod::obs {

/// One sliding window: burn is computed over the last `window` of sim time
/// and must be >= `max_burn` (for ALL windows of the spec) to breach.
struct BurnWindow {
  Duration window{300.0};
  double max_burn = 1.0;
};

struct SloSpec {
  enum class Kind {
    /// good/total counters; objective: good/total >= threshold.
    /// burn = (1 - windowed good/total) / (1 - threshold).
    kAvailabilityFloor,
    /// bad/total counters; objective: bad/total <= threshold.
    /// burn = windowed bad/total / threshold.
    kRatioCeiling,
    /// histogram quantile; objective: quantile(q) <= threshold over the
    /// window's bucket deltas.  burn = windowed quantile / threshold.
    kQuantileCeiling,
  };

  std::string name;  // metric-safe: slo.<name>.breaches is registered
  Kind kind = Kind::kAvailabilityFloor;
  /// Metric names in the bound registry's snapshot.  kAvailabilityFloor
  /// reads `good_metric` and sums `total_metrics`; kRatioCeiling reads
  /// `bad_metric` and sums `total_metrics`; kQuantileCeiling reads
  /// `histogram_metric`.
  std::string good_metric;
  std::string bad_metric;
  std::vector<std::string> total_metrics;
  std::string histogram_metric;
  double quantile = 0.99;   // kQuantileCeiling only
  double threshold = 0.99;  // floor (availability) or ceiling (ratio/q)
  /// All windows must burn past their threshold to breach.  Must be
  /// non-empty; list longest first by convention (output is order-stable).
  std::vector<BurnWindow> windows;
};

/// Evaluation result for one spec at one instant (status_json exposes the
/// latest; tests introspect via states()).
struct SloState {
  SloSpec spec;
  bool breached = false;
  std::uint64_t breaches = 0;   // edge-triggered count
  std::uint64_t recoveries = 0;
  std::vector<double> last_burn;  // per window, last evaluate()
};

class SloMonitor {
 public:
  /// `registry` receives the `slo.<name>.breaches` counters (registered
  /// eagerly so CSV columns exist from the first snapshot) and is the
  /// source of evaluated metrics.  `context` is the run whose trace and
  /// flight recorder breaches report into (nullptr: counters only).  Both
  /// must outlive the monitor.
  explicit SloMonitor(MetricsRegistry* registry,
                      const Context* context = nullptr);

  void add(SloSpec spec);

  /// Evaluates every spec against a fresh registry snapshot at `at`,
  /// updating burn-rate windows and firing breach/recover edges.  Called
  /// directly by tests; the snapshot is taken into a warm scratch that is
  /// reused across calls.
  void evaluate(SimTime at);

  /// Same, but against a snapshot the caller already holds — the
  /// bench::ObsScope path, which hands over the series sampler's tick
  /// snapshot so one snapshot per tick serves both subsystems.
  void evaluate(SimTime at, const MetricsSnapshot& snap);

  [[nodiscard]] const std::vector<SloState>& states() const {
    return states_;
  }

  /// Deterministic JSON: per-spec breach state, counts and last burns,
  /// in registration order.
  [[nodiscard]] std::string status_json() const;

 private:
  struct HistorySample {
    SimTime at{0.0};
    double good = 0.0;
    double bad = 0.0;
    double total = 0.0;
    std::vector<std::uint64_t> bucket_counts;  // kQuantileCeiling
  };

  /// Evaluates one window: burn over [at - window, at], using the newest
  /// history sample at or before the window start as the baseline (or an
  /// implicit all-zero sample when the run is younger than the window).
  /// Windows with no observations burn 0 (no data = no budget spent).
  [[nodiscard]] double window_burn(const SloSpec& spec,
                                   const std::deque<HistorySample>& history,
                                   const HistorySample& now_sample,
                                   Duration window,
                                   const std::vector<double>& bounds) const;
  [[nodiscard]] HistorySample read_spec(const SloSpec& spec, SimTime at,
                                        const MetricsSnapshot& snap) const;

  MetricsRegistry* registry_ = nullptr;
  const Context* context_ = nullptr;
  std::vector<SloState> states_;
  std::vector<Counter*> breach_counters_;
  /// Per-spec sample history, trimmed to the longest window.
  std::vector<std::deque<HistorySample>> histories_;
  /// Warm snapshot for the evaluate(at) path (see snapshot_into).
  MetricsSnapshot scratch_;
};

}  // namespace vod::obs
