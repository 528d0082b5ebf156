#include "obs/flight.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/contract.h"

namespace vod::obs {

FlightRecorder::FlightRecorder(FlightOptions options)
    : options_(options),
      ring_(options.ring_capacity, OverflowPolicy::kRing) {
  require(options.ring_capacity > 0,
      "FlightRecorder: ring capacity must be positive");
}

void FlightRecorder::set_config(const std::string& key,
                                const std::string& value) {
  const auto it = std::lower_bound(
      config_.begin(), config_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != config_.end() && it->first == key) {
    it->second = value;
    return;
  }
  config_.insert(it, {key, value});
}

std::string FlightRecorder::build_dump(const std::string& reason,
                                       SimTime at) const {
  std::ostringstream os;
  os << "{\"flight_record\":{\"seq\":" << dumps_.size() << ",\"reason\":\""
     << json_escape(reason) << "\",\"sim_time_s\":";
  render_value(os, at.seconds());
  os << ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  os << "},\"ring\":{\"capacity\":" << options_.ring_capacity
     << ",\"overwritten\":" << ring_.overwritten_count() << ",\"events\":[";
  first = true;
  ring_.for_each_event([&](const TraceEvent& event) {
    if (!first) os << ',';
    first = false;
    os << "{\"t\":";
    render_value(os, event.at.seconds());
    os << ",\"subsystem\":\""
       << to_string(event.subsystem) << "\",\"ph\":\"" << event.phase
       << "\",\"name\":\"" << json_escape(event.name) << '"';
    if (event.phase == 'b' || event.phase == 'e') {
      os << ",\"id\":" << event.id;
    }
    if (event.phase == 'C') {
      os << ",\"value\":" << num(event.value);
    }
    if (!event.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& arg : event.args) {
        if (!first_arg) os << ',';
        first_arg = false;
        os << '"' << json_escape(arg.key) << "\":\""
           << json_escape(arg.value) << '"';
      }
      os << '}';
    }
    os << '}';
  });
  os << "]},\"metrics\":";
  if (registry_ != nullptr) {
    std::string metrics = registry_->snapshot().to_json();
    while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
    os << metrics;
  } else {
    os << "null";
  }
  os << "}}\n";
  return os.str();
}

bool FlightRecorder::trigger(const std::string& reason) {
  const SimTime now = ring_.now();
  if (dumps_.size() >= kMaxFlightDumps) {
    ++suppressed_;
    return false;
  }
  if (dumped_before_ && now - last_dump_ < options_.min_gap.seconds()) {
    ++suppressed_;
    return false;
  }
  std::string json = build_dump(reason, now);
  if (!options_.dump_path_prefix.empty()) {
    const std::string path = options_.dump_path_prefix +
                             std::to_string(dumps_.size()) + ".json";
    std::ofstream out(path);
    ensure(out.good(), [&] {
      return "FlightRecorder: cannot write dump " + path;
    });
    out << json;
  }
  dumps_.emplace_back(reason, std::move(json));
  dumped_before_ = true;
  last_dump_ = now;
  return true;
}

}  // namespace vod::obs
