#include "obs/series.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/contract.h"

namespace vod::obs {

void Series::append(SeriesPoint point) {
  if (capacity_ != 0 && points_.size() >= capacity_) {
    points_[head_] = point;
    head_ = (head_ + 1) % capacity_;
    ++evicted_;
    return;
  }
  points_.push_back(point);
}

const SeriesPoint& Series::back() const {
  require(!points_.empty(), "Series::back: no points");
  const std::size_t n = points_.size();
  return points_[(head_ + n - 1) % n];
}

TimeSeriesRecorder::TimeSeriesRecorder(SeriesOptions options)
    : options_(std::move(options)), next_tick_(options_.first_sample) {
  require(options_.cadence > Duration{0.0},
      "TimeSeriesRecorder: cadence must be positive");
}

bool TimeSeriesRecorder::selected(const std::string& name) const {
  if (options_.include.empty()) return true;
  for (const std::string& prefix : options_.include) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

Series& TimeSeriesRecorder::series_slot(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, Series{options_.capacity}).first;
  }
  return it->second;
}

void TimeSeriesRecorder::record_into(Series& series, SimTime at,
                                     double value) {
  double rate = 0.0;
  if (series.size() > 0) {
    const SeriesPoint& prev = series.back();
    const double dt = at - prev.at;  // SimTime difference is raw seconds
    if (dt > 0.0) rate = (value - prev.value) / dt;
  }
  series.append(SeriesPoint{at, value, rate});
}

void TimeSeriesRecorder::record(const std::string& name, SimTime at,
                                double value) {
  record_into(series_slot(name), at, value);
}

void TimeSeriesRecorder::rebuild_plan() {
  scalar_plan_.clear();
  hist_plan_.clear();
  for (const auto& [name, scalar] : scratch_.scalars()) {
    (void)scalar;
    scalar_plan_.push_back(selected(name) ? &series_slot(name) : nullptr);
  }
  for (const auto& [name, hist] : scratch_.histograms()) {
    (void)hist;
    if (!selected(name)) {
      hist_plan_.emplace_back(nullptr, nullptr);
      continue;
    }
    // The slot calls may rebalance the map but nodes are stable, so the
    // pointers survive later insertions.
    Series* count_series = &series_slot(name + "[count]");
    Series* sum_series = &series_slot(name + "[sum]");
    hist_plan_.emplace_back(count_series, sum_series);
  }
}

void TimeSeriesRecorder::sample(SimTime at) {
  ++samples_taken_;
  if (registry_ != nullptr) {
    registry_->snapshot_into(scratch_);
    // Registries only grow instruments, so a changed shape is always a
    // size change; the plan pins one Series per snapshot entry and the
    // steady-state tick does no name lookups at all.
    if (scratch_.scalars().size() != scalar_plan_.size() ||
        scratch_.histograms().size() != hist_plan_.size()) {
      rebuild_plan();
    }
    std::size_t i = 0;
    for (const auto& [name, scalar] : scratch_.scalars()) {
      (void)name;
      if (Series* series = scalar_plan_[i++]) {
        record_into(*series, at, scalar.value);
      }
    }
    i = 0;
    for (const auto& [name, hist] : scratch_.histograms()) {
      (void)name;
      const auto& [count_series, sum_series] = hist_plan_[i++];
      if (count_series != nullptr) {
        record_into(*count_series, at, static_cast<double>(hist.count));
        record_into(*sum_series, at, hist.sum);
      }
    }
  }
  if (on_sample_) on_sample_(at, scratch_);
}

void TimeSeriesRecorder::on_instant(SimTime upcoming) {
  while (next_tick_ <= upcoming) {
    sample(next_tick_);
    next_tick_ = next_tick_ + options_.cadence;
  }
}

void TimeSeriesRecorder::restart() {
  series_.clear();
  scratch_ = MetricsSnapshot{};
  scalar_plan_.clear();
  hist_plan_.clear();
  samples_taken_ = 0;
  next_tick_ = options_.first_sample;
}

std::string TimeSeriesRecorder::to_csv() const {
  std::ostringstream os;
  os << "series,t,value,rate\n";
  for (const auto& [name, series] : series_) {
    series.for_each_point([&](const SeriesPoint& point) {
      os << name << ',';
      render_value(os, point.at.seconds());
      os << ',';
      render_value(os, point.value);
      os << ',';
      render_value(os, point.rate);
      os << '\n';
    });
  }
  return os.str();
}

std::string TimeSeriesRecorder::to_json() const {
  std::ostringstream os;
  os << "{\"cadence_s\":";
  render_value(os, options_.cadence.seconds());
  os << ",\"samples\":" << samples_taken_ << ",\"series\":{";
  bool first_series = true;
  for (const auto& [name, series] : series_) {
    if (!first_series) os << ',';
    first_series = false;
    os << '"' << name << "\":{\"evicted\":" << series.evicted()
       << ",\"points\":[";
    bool first_point = true;
    series.for_each_point([&](const SeriesPoint& point) {
      if (!first_point) os << ',';
      first_point = false;
      os << "{\"t\":";
      render_value(os, point.at.seconds());
      os << ",\"v\":";
      render_value(os, point.value);
      os << ",\"rate\":";
      render_value(os, point.rate);
      os << '}';
    });
    os << "]}";
  }
  os << "}}\n";
  return os.str();
}

}  // namespace vod::obs
