// Shared scaffolding for the table-regeneration benches.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "grnet/grnet.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace vod::bench {

inline const db::AdminCredential kAdmin{"bench-admin"};

/// The case-study database: all six servers, all seven links, one movie,
/// Table 2 statistics for the chosen instant.
struct CaseDb {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin};
  VideoId movie;

  explicit CaseDb(grnet::TimeOfDay t) {
    for (std::size_t n = 0; n < g.topology.node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      db.register_server(node, g.topology.node_name(node), {});
    }
    for (const net::LinkInfo& info : g.topology.links()) {
      db.register_link(info.id, info.name, info.capacity);
    }
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    for (const LinkId link : g.links_in_paper_order()) {
      const grnet::LinkSample sample = grnet::table2_sample(g, link, t);
      view.update_link_stats(link, sample.used, sample.utilization,
                             grnet::time_of(t));
    }
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }
};

inline void heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Observability plumbing shared by the benches:
///
///   --trace-out FILE      record a Chrome trace (Perfetto-loadable) and
///                         write it to FILE on exit
///   --metrics-out FILE    write a metrics-snapshot CSV via write_metrics()
///   --profile             enable the wall-clock profiler; its CSV goes to
///                         stderr on exit (timings are observe-only, so the
///                         bench's stdout stays byte-identical either way)
///
/// Telemetry v2 (DESIGN.md §16) — all observe-only, all sim-time:
///
///   --series-out FILE     sample the attached registry on the series
///                         cadence and write the series on exit (.json =
///                         JSON, anything else = CSV)
///   --series-cadence S    sim-seconds between samples (default 30; must
///                         be a positive number)
///   --flight-out PREFIX   keep the always-on flight recorder; anomaly
///                         dumps go to PREFIX<seq>.json
///
/// A value flag without its value, or a malformed cadence, prints an error
/// and exits 2.  Construct at the top of main(); the destructor writes
/// every artefact.  Benches that drive a Simulation call attach() once per
/// run; sim-less benches hand context() to their bare components.  SLO
/// specs added with add_slo() are evaluated on the series cadence but only
/// when v2 is active (a flag was given), so default runs stay
/// byte-identical.
class ObsScope {
 public:
  ObsScope(int argc, char** argv) {
    double cadence_s = 30.0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--profile") {
        obs::Profiler::instance().set_enabled(true);
        profile_ = true;
        continue;
      }
      std::string* path = arg == "--trace-out"     ? &trace_path_
                          : arg == "--metrics-out" ? &metrics_path_
                          : arg == "--series-out"  ? &series_path_
                          : arg == "--flight-out"  ? &flight_prefix_
                                                   : nullptr;
      const bool cadence = arg == "--series-cadence";
      if (path == nullptr && !cadence) continue;  // the bench's own flag
      if (i + 1 == argc) fail(arg + " needs a value");
      const std::string value = argv[++i];
      if (path != nullptr) {
        *path = value;
        continue;
      }
      char* end = nullptr;
      cadence_s = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !std::isfinite(cadence_s) ||
          cadence_s <= 0.0) {
        fail("--series-cadence needs a positive number of seconds, got '" +
             value + "'");
      }
    }
    if (v2_active()) {
      obs::SeriesOptions series_options;
      series_options.cadence = Duration{cadence_s};
      series_ = std::make_unique<obs::TimeSeriesRecorder>(series_options);
    }
    if (!flight_prefix_.empty()) {
      obs::FlightOptions flight_options;
      flight_options.dump_path_prefix = flight_prefix_;
      flight_ = std::make_unique<obs::FlightRecorder>(flight_options);
    }
    if (tracing()) context_.set_trace(&recorder_);
    context_.set_flight(flight_.get());
  }

  ~ObsScope() {
    if (series_ && !series_path_.empty()) {
      const bool json = series_path_.size() >= 5 &&
                        series_path_.compare(series_path_.size() - 5, 5,
                                             ".json") == 0;
      std::ofstream out{series_path_};
      out << (json ? series_->to_json() : series_->to_csv());
      std::cerr << "series: " << series_->series().size() << " series, "
                << series_->sample_count() << " sample tick(s) -> "
                << series_path_ << "\n";
    }
    if (flight_) {
      std::cerr << "flight: " << flight_->dump_count() << " dump(s), "
                << flight_->suppressed_count() << " suppressed -> "
                << flight_prefix_ << "<seq>.json\n";
    }
    if (tracing()) {
      std::ofstream out{trace_path_};
      out << recorder_.to_chrome_json();
      std::cerr << "trace: " << recorder_.events().size() << " event(s) from "
                << recorder_.subsystem_count() << " subsystem(s) -> "
                << trace_path_ << "\n";
    }
    if (profile_) {
      std::cerr << obs::Profiler::instance().report_csv();
      obs::Profiler::instance().set_enabled(false);
      obs::Profiler::instance().reset();
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  /// Observes one run.  The trace follows every attached run.  With a
  /// registry, v2 observes this run too: the series sampler restarts its
  /// grid and snapshots the registry each tick, fresh SLO monitors built
  /// from the add_slo() specs evaluate it (breach counters register into
  /// it), and flight dumps embed it.  The run's simulation must die
  /// before this scope, and its registry before the next attach.
  void attach(sim::Simulation& sim, obs::MetricsRegistry* registry = nullptr) {
    obs::Context& context = sim.obs();
    if (tracing()) context.set_trace(&recorder_);
    if (registry == nullptr) return;
    if (series_) {
      series_->restart();
      series_->bind_registry(registry);
      if (!slos_.empty()) {
        slo_ = std::make_unique<obs::SloMonitor>(registry, &context);
        for (const obs::SloSpec& spec : slos_) slo_->add(spec);
        series_->set_on_sample(
            [this](SimTime at, const obs::MetricsSnapshot& snap) {
              slo_->evaluate(at, snap);
            });
      }
      context.set_series(series_.get());
    }
    if (flight_) {
      flight_->bind_registry(registry);
      context.set_flight(flight_.get());
    }
  }

  /// Adds an SLO spec, evaluated on every run attached with a registry.
  /// Inert when v2 is off, so gate runs stay byte-identical by default.
  void add_slo(obs::SloSpec spec) {
    if (v2_active()) slos_.push_back(std::move(spec));
  }

  /// Writes the snapshot CSV to --metrics-out (no-op when the flag was not
  /// given).  Call once, after the run.
  void write_metrics(const obs::MetricsSnapshot& snapshot) {
    if (metrics_path_.empty()) return;
    std::ofstream out{metrics_path_};
    out << snapshot.to_csv();
    std::cerr << "metrics: " << snapshot.scalars().size() << " scalar(s) -> "
              << metrics_path_ << "\n";
  }

  /// The standalone context (no clock: events stamp t=0) for sim-less
  /// benches: the trace and the flight ring, wired as on a run.
  [[nodiscard]] const obs::Context& context() const { return context_; }

 private:
  /// Telemetry v2 is on when any of its flags was given.
  [[nodiscard]] bool v2_active() const {
    return !series_path_.empty() || !flight_prefix_.empty();
  }
  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  [[noreturn]] static void fail(const std::string& message) {
    std::cerr << "error: " << message << "\n";
    std::exit(2);
  }

  obs::TraceRecorder recorder_;
  std::unique_ptr<obs::TimeSeriesRecorder> series_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Declared after the recorders it wires, so it is released first.
  obs::Context context_;
  std::vector<obs::SloSpec> slos_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string series_path_;
  std::string flight_prefix_;
  bool profile_ = false;
};

}  // namespace vod::bench
