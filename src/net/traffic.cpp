#include "net/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "common/contract.h"

namespace vod::net {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The link's entry, default-constructed on first use (an invalid link
/// throws std::invalid_argument).
template <typename T>
T& entry(IdVector<LinkId, T>& table, LinkId link) {
  T* found = table.find(link);
  return found != nullptr ? *found : table.insert(link, T{});
}
}  // namespace

SimTime TrafficModel::next_change_after(SimTime) const {
  return SimTime{kInfinity};
}

void ConstantTraffic::set_load(LinkId link, Mbps load) {
  require(!(load.value() < 0.0), "ConstantTraffic: negative load");
  entry(loads_, link) = load;
}

Mbps ConstantTraffic::background_load(LinkId link, SimTime) const {
  const Mbps* load = loads_.find(link);
  return load == nullptr ? Mbps{0.0} : *load;
}

void TraceTraffic::add_sample(LinkId link, SimTime t, Mbps load) {
  require(!(load.value() < 0.0), "TraceTraffic: negative load");
  auto& series = entry(samples_, link);
  require(!(!series.empty() && !(series.back().first < t)),
      "TraceTraffic: samples must be strictly increasing in time");
  series.emplace_back(t, load);
}

Mbps TraceTraffic::background_load(LinkId link, SimTime t) const {
  const auto* found = samples_.find(link);
  if (found == nullptr || found->empty()) return Mbps{0.0};
  const auto& series = *found;
  // Step interpolation: value of the latest sample at or before t; before
  // the first sample the load is the first sample's value (the trace is a
  // day-long snapshot, not a ramp from zero).
  auto after = std::upper_bound(
      series.begin(), series.end(), t,
      [](SimTime time, const auto& sample) { return time < sample.first; });
  if (after == series.begin()) return series.front().second;
  return std::prev(after)->second;
}

SimTime TraceTraffic::next_change_after(SimTime t) const {
  double best = kInfinity;
  samples_.for_each([&](LinkId, const auto& series) {
    auto after = std::upper_bound(
        series.begin(), series.end(), t,
        [](SimTime time, const auto& sample) { return time < sample.first; });
    if (after != series.end()) {
      best = std::min(best, after->first.seconds());
    }
  });
  return SimTime{best};
}

PeriodicTraffic::PeriodicTraffic(const TrafficModel& inner, Duration period)
    : inner_(inner), period_(period) {
  require(!(period.seconds() <= 0.0),
          "PeriodicTraffic: period must be positive");
}

Mbps PeriodicTraffic::background_load(LinkId link, SimTime t) const {
  const double wrapped = std::fmod(t.seconds(), period_.seconds());
  return inner_.background_load(link, SimTime{wrapped});
}

SimTime PeriodicTraffic::next_change_after(SimTime t) const {
  const double period = period_.seconds();
  const double cycle_start = std::floor(t.seconds() / period) * period;
  const double wrapped = t.seconds() - cycle_start;
  const SimTime inner_next = inner_.next_change_after(SimTime{wrapped});
  if (inner_next.seconds() < period) {
    return SimTime{cycle_start + inner_next.seconds()};
  }
  // Nothing more this cycle: the next change is the wrap itself, where the
  // load snaps back to the inner model's value at 0.
  return SimTime{cycle_start + period};
}

DiurnalTraffic::DiurnalTraffic(double peak_hour) : peak_hour_(peak_hour) {
  require(!(peak_hour < 0.0 || peak_hour >= 24.0),
      "DiurnalTraffic: peak_hour outside [0,24)");
}

void DiurnalTraffic::set_shape(LinkId link, LinkShape shape) {
  require(!(shape.capacity.value() <= 0.0),
      "DiurnalTraffic: capacity must be positive");
  require(
      !(shape.base_fraction < 0.0 || shape.peak_fraction > 1.0 || shape.base_fraction > shape.peak_fraction),
      "DiurnalTraffic: need 0 <= base <= peak <= 1");
  entry(shapes_, link) = shape;
  any_shape_ = true;
}

double DiurnalTraffic::step_start(SimTime t) {
  return std::floor(t.seconds() / kStepSeconds) * kStepSeconds;
}

Mbps DiurnalTraffic::background_load(LinkId link, SimTime t) const {
  const LinkShape* found = shapes_.find(link);
  if (found == nullptr) return Mbps{0.0};
  const LinkShape& shape = *found;
  // The curve is sampled at the start of t's step and held to its end.
  const double hour = std::fmod(step_start(t) / 3600.0, 24.0);
  // Raised cosine, maximal at peak_hour_.
  const double phase =
      std::cos((hour - peak_hour_) / 24.0 * 2.0 * std::numbers::pi);
  const double weight = 0.5 * (1.0 + phase);  // in [0,1], 1 at the peak
  const double fraction =
      shape.base_fraction +
      (shape.peak_fraction - shape.base_fraction) * weight;
  return shape.capacity * fraction;
}

SimTime DiurnalTraffic::next_change_after(SimTime t) const {
  if (!any_shape_) return SimTime{kInfinity};
  return SimTime{step_start(t) + kStepSeconds};
}

}  // namespace vod::net
