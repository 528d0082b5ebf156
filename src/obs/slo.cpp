#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/contract.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace vod::obs {

namespace {

/// Matches the series/metrics exporters' deterministic rendering.
std::string render(double value) {
  std::ostringstream os;
  if (value == std::floor(value) && std::abs(value) < 9e15) {
    os << static_cast<long long>(value);
  } else {
    os << value;
  }
  return os.str();
}

}  // namespace

SloMonitor::SloMonitor(MetricsRegistry* registry, const Context* context)
    : registry_(registry), context_(context) {
  require(registry != nullptr, "SloMonitor: registry required");
}

void SloMonitor::add(SloSpec spec) {
  require(!spec.name.empty(), "SloMonitor::add: spec needs a name");
  require(!spec.windows.empty(), "SloMonitor::add: spec needs >= 1 window");
  for (const BurnWindow& w : spec.windows) {
    require(w.window > Duration{0.0},
        "SloMonitor::add: windows must be positive");
    require(w.max_burn > 0.0, "SloMonitor::add: max_burn must be positive");
  }
  switch (spec.kind) {
    case SloSpec::Kind::kAvailabilityFloor:
      require(spec.threshold < 1.0 && spec.threshold >= 0.0,
          "SloMonitor::add: availability floor must be in [0,1)");
      require(!spec.good_metric.empty() && !spec.total_metrics.empty(),
          "SloMonitor::add: availability needs good_metric + total_metrics");
      break;
    case SloSpec::Kind::kRatioCeiling:
      require(spec.threshold > 0.0,
          "SloMonitor::add: ratio ceiling must be positive");
      require(!spec.bad_metric.empty() && !spec.total_metrics.empty(),
          "SloMonitor::add: ratio needs bad_metric + total_metrics");
      break;
    case SloSpec::Kind::kQuantileCeiling:
      require(spec.threshold > 0.0,
          "SloMonitor::add: quantile ceiling must be positive");
      require(spec.quantile >= 0.0 && spec.quantile <= 1.0,
          "SloMonitor::add: quantile outside [0,1]");
      require(!spec.histogram_metric.empty(),
          "SloMonitor::add: quantile needs histogram_metric");
      break;
  }
  breach_counters_.push_back(
      &registry_->counter("slo." + spec.name + ".breaches"));
  states_.push_back(SloState{std::move(spec), false, 0, 0, {}});
  histories_.emplace_back();
}

SloMonitor::HistorySample SloMonitor::read_spec(
    const SloSpec& spec, SimTime at, const MetricsSnapshot& snap) const {
  HistorySample sample;
  sample.at = at;
  const auto scalar_or_zero = [&](const std::string& name) {
    return snap.has(name) ? snap.value(name) : 0.0;
  };
  switch (spec.kind) {
    case SloSpec::Kind::kAvailabilityFloor:
      sample.good = scalar_or_zero(spec.good_metric);
      break;
    case SloSpec::Kind::kRatioCeiling:
      sample.bad = scalar_or_zero(spec.bad_metric);
      break;
    case SloSpec::Kind::kQuantileCeiling: {
      const auto it = snap.histograms().find(spec.histogram_metric);
      if (it != snap.histograms().end()) {
        sample.bucket_counts = it->second.bucket_counts;
      }
      return sample;
    }
  }
  for (const std::string& name : spec.total_metrics) {
    sample.total += scalar_or_zero(name);
  }
  return sample;
}

double SloMonitor::window_burn(const SloSpec& spec,
                               const std::deque<HistorySample>& history,
                               const HistorySample& now_sample,
                               Duration window,
                               const std::vector<double>& bounds) const {
  // Newest sample at or before the window start; an implicit all-zero
  // sample (counters start at 0) covers windows longer than the run.
  const double start = now_sample.at.seconds() - window.seconds();
  HistorySample baseline;  // zeros
  for (const HistorySample& sample : history) {
    if (sample.at.seconds() <= start) {
      baseline = sample;
    } else {
      break;  // history is time-ordered
    }
  }
  switch (spec.kind) {
    case SloSpec::Kind::kAvailabilityFloor: {
      const double total = now_sample.total - baseline.total;
      if (total <= 0.0) return 0.0;
      const double good = now_sample.good - baseline.good;
      const double bad_fraction = std::max(0.0, 1.0 - good / total);
      return bad_fraction / (1.0 - spec.threshold);
    }
    case SloSpec::Kind::kRatioCeiling: {
      const double total = now_sample.total - baseline.total;
      if (total <= 0.0) return 0.0;
      const double bad = std::max(0.0, now_sample.bad - baseline.bad);
      return (bad / total) / spec.threshold;
    }
    case SloSpec::Kind::kQuantileCeiling: {
      if (now_sample.bucket_counts.empty()) return 0.0;
      std::vector<std::uint64_t> delta = now_sample.bucket_counts;
      std::uint64_t delta_count = 0;
      for (std::size_t i = 0; i < delta.size(); ++i) {
        const std::uint64_t base = i < baseline.bucket_counts.size()
                                       ? baseline.bucket_counts[i]
                                       : 0;
        delta[i] = delta[i] >= base ? delta[i] - base : 0;
        delta_count += delta[i];
      }
      if (delta_count == 0) return 0.0;
      return bucket_quantile(bounds, delta, delta_count, spec.quantile) /
             spec.threshold;
    }
  }
  fail_ensure("SloMonitor::window_burn: unknown spec kind");
}

void SloMonitor::evaluate(SimTime at) {
  registry_->snapshot_into(scratch_);
  evaluate(at, scratch_);
}

void SloMonitor::evaluate(SimTime at, const MetricsSnapshot& snap) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    SloState& state = states_[i];
    const SloSpec& spec = state.spec;
    std::deque<HistorySample>& history = histories_[i];

    std::vector<double> bounds;
    if (spec.kind == SloSpec::Kind::kQuantileCeiling) {
      const auto it = snap.histograms().find(spec.histogram_metric);
      if (it != snap.histograms().end()) bounds = it->second.upper_bounds;
    }
    const HistorySample now_sample = read_spec(spec, at, snap);

    state.last_burn.clear();
    bool all_burning = true;
    for (const BurnWindow& w : spec.windows) {
      const double burn =
          window_burn(spec, history, now_sample, w.window, bounds);
      state.last_burn.push_back(burn);
      if (burn < w.max_burn) all_burning = false;
    }

    if (all_burning && !state.breached) {
      state.breached = true;
      ++state.breaches;
      breach_counters_[i]->inc();
      const double min_burn =
          *std::min_element(state.last_burn.begin(), state.last_burn.end());
      if (TraceRecorder* tr = context_ ? context_->trace() : nullptr) {
        tr->instant(Subsystem::kSlo, "slo.breach",
                    {{"slo", spec.name}, {"burn", render(min_burn)}});
      }
      if (FlightRecorder* fr = context_ ? context_->flight() : nullptr) {
        fr->trigger("slo.breach:" + spec.name);
      }
    } else if (!all_burning && state.breached) {
      state.breached = false;
      ++state.recoveries;
      if (TraceRecorder* tr = context_ ? context_->trace() : nullptr) {
        tr->instant(Subsystem::kSlo, "slo.recover", {{"slo", spec.name}});
      }
    }

    // Retain history back to the longest window (plus one older sample as
    // that window's baseline).
    history.push_back(now_sample);
    double longest = 0.0;
    for (const BurnWindow& w : spec.windows) {
      longest = std::max(longest, w.window.seconds());
    }
    const double horizon = at.seconds() - longest;
    while (history.size() > 1 && history[1].at.seconds() <= horizon) {
      history.pop_front();
    }
  }
}

std::string SloMonitor::status_json() const {
  std::ostringstream os;
  os << "{\"slos\":[";
  bool first = true;
  for (const SloState& state : states_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << state.spec.name
       << "\",\"breached\":" << (state.breached ? "true" : "false")
       << ",\"breaches\":" << state.breaches
       << ",\"recoveries\":" << state.recoveries << ",\"burn\":[";
    for (std::size_t i = 0; i < state.last_burn.size(); ++i) {
      if (i != 0) os << ',';
      os << render(state.last_burn[i]);
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace vod::obs
