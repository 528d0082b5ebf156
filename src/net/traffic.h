// Background (non-VoD) traffic models.
//
// The paper's case study drives the VRA with real SNMP measurements of the
// GRNET backbone (Table 2).  We reproduce that with TraceTraffic — a
// per-link piecewise-linear load trace — and additionally provide synthetic
// generators (constant load, diurnal curve) for the larger studies the
// paper's testbed could not run.
#pragma once

#include <utility>
#include <vector>

#include "common/id_vector.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"

namespace vod::net {

/// Time-varying background load per link (traffic that is not ours, e.g.
/// the rest of the university network's flows).
///
/// The contract every model keeps: background load is a step function of
/// time.  For every link and every `t`, the load is constant on
/// [t, next_change_after(t)) — bit for bit, not approximately.  Consumers
/// rely on it: FluidNetwork reads each link once per step, and
/// TransferManager solves completion times in closed form between steps.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// Non-VoD bandwidth in use on `link` at time `t`.
  [[nodiscard]] virtual Mbps background_load(LinkId link, SimTime t) const = 0;

  /// The next instant strictly after `t` at which some link's background
  /// load may change (so transfer schedules can be refreshed exactly then).
  /// Returns SimTime{infinity} if the model is constant from `t` on.
  [[nodiscard]] virtual SimTime next_change_after(SimTime t) const;
};

/// Zero background traffic everywhere (an idle network).
class NoTraffic final : public TrafficModel {
 public:
  [[nodiscard]] Mbps background_load(LinkId, SimTime) const override {
    return Mbps{0.0};
  }
};

/// A fixed load per link, constant over time.
class ConstantTraffic final : public TrafficModel {
 public:
  void set_load(LinkId link, Mbps load);
  [[nodiscard]] Mbps background_load(LinkId link, SimTime t) const override;

 private:
  IdVector<LinkId, Mbps> loads_;
};

/// Trace-driven load: per-link (time, load) samples with step interpolation
/// (the load holds its value until the next sample — matching how SNMP
/// counters present interval averages).
class TraceTraffic final : public TrafficModel {
 public:
  /// Appends a sample; samples for each link must be added in increasing
  /// time order.  Load must be non-negative.
  void add_sample(LinkId link, SimTime t, Mbps load);

  [[nodiscard]] Mbps background_load(LinkId link, SimTime t) const override;
  [[nodiscard]] SimTime next_change_after(SimTime t) const override;

 private:
  IdVector<LinkId, std::vector<std::pair<SimTime, Mbps>>> samples_;
};

/// Repeats another model with a fixed period: time t is mapped to
/// t mod period before delegating, so each wrap is a change point where the
/// load snaps back to the inner model's value at 0.  Wrapping the Table 2
/// trace with a 24 h period turns the paper's one-day measurement into an
/// arbitrarily long simulated campaign.
class PeriodicTraffic final : public TrafficModel {
 public:
  /// `inner` must outlive this wrapper; `period` > 0.
  PeriodicTraffic(const TrafficModel& inner, Duration period);

  [[nodiscard]] Mbps background_load(LinkId link, SimTime t) const override;
  [[nodiscard]] SimTime next_change_after(SimTime t) const override;

 private:
  const TrafficModel& inner_;
  Duration period_;
};

/// Synthetic diurnal load: a raised-cosine day curve peaking at `peak_hour`,
/// scaled per link to a fraction of capacity.  The curve is sampled once per
/// simulated minute (the SNMP cadence) at the step's start and held until
/// the next step, the same interval-average semantics as TraceTraffic.
/// Deterministic — no noise — so runs are reproducible; callers wanting
/// jitter add it through TraceTraffic.
class DiurnalTraffic final : public TrafficModel {
 public:
  struct LinkShape {
    Mbps capacity;            // the link's total bandwidth
    double base_fraction;     // load at the quietest hour, as a fraction
    double peak_fraction;     // load at the busiest hour, as a fraction
  };

  /// `peak_hour` in [0, 24).
  explicit DiurnalTraffic(double peak_hour = 14.0);

  void set_shape(LinkId link, LinkShape shape);
  [[nodiscard]] Mbps background_load(LinkId link, SimTime t) const override;
  [[nodiscard]] SimTime next_change_after(SimTime t) const override;

 private:
  static constexpr double kStepSeconds = 60.0;
  /// Start of the step holding `t`; the one clock both the load and the
  /// change points are read from.
  [[nodiscard]] static double step_start(SimTime t);

  double peak_hour_;
  IdVector<LinkId, LinkShape> shapes_;
  bool any_shape_ = false;
};

}  // namespace vod::net
