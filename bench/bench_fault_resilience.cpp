// Fault-resilience sweep: availability and failover latency under seeded
// fault storms of increasing intensity, comparing the watchdog-only
// baseline against the full failover machinery (proactive notifications,
// service-level retries with backoff, degraded-mode routing).
//
// Gates (exit 1 on violation):
//   - zero hung sessions in every run: everything finishes or fails with
//     an explicit reason;
//   - with faults present, availability with failover enabled strictly
//     exceeds the watchdog-only baseline.
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "fault/fault_injector.h"
#include "service/report.h"
#include "service/vod_service.h"

using namespace vod;

namespace {

struct Intensity {
  int level;
  fault::FaultScheduleOptions storm;
};

struct RunResult {
  service::ResilienceReport report;
  bool reasons_ok = true;      // every failed session names a reason
  std::size_t faults_applied = 0;
};

/// One full service run on GRNET.  Three titles, two replicas each, spread
/// over Thessaloniki/Xanthi/Heraklio; requests arrive from the replica-less
/// west (Patra, Athens, Ioannina) throughout the horizon.
RunResult run_case(const Intensity& intensity, bool failover,
                   int request_count, double horizon,
                   double request_spacing, bench::ObsScope& obs) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.snmp_interval_seconds = 60.0;
  options.dma.admission_threshold = 1'000'000;  // routing only
  if (failover) {
    options.failover.proactive = true;
    options.failover.retry_limit = 3;
    options.failover.retry_backoff_seconds = 60.0;
    options.failover.retry_backoff_factor = 2.5;
    options.degraded_stats_age_seconds =
        3.0 * options.snmp_interval_seconds;
  } else {
    options.failover.proactive = false;  // stall watchdog only
    options.failover.retry_limit = 0;
  }
  service::VodService service{sim, g.topology, network, options,
                              bench::kAdmin};
  // Telemetry v2 re-attaches per run (series restart + registry swap):
  // the exported series cover the sweep's final cell — the worst storm
  // with failover on — while flight dumps accumulate across the whole
  // sweep.  Without a v2 flag only the trace attaches.
  obs.attach(sim, &service.metrics());

  const NodeId replicas[3][2] = {{g.thessaloniki, g.xanthi},
                                 {g.thessaloniki, g.heraklio},
                                 {g.xanthi, g.heraklio}};
  std::vector<VideoId> movies;
  for (int v = 0; v < 3; ++v) {
    const VideoId id = service.add_video("m" + std::to_string(v),
                                         MegaBytes{60.0}, Mbps{2.0});
    service.place_initial_copy(replicas[v][0], id);
    service.place_initial_copy(replicas[v][1], id);
    movies.push_back(id);
  }
  service.start();

  const NodeId homes[] = {g.patra, g.athens, g.ioannina};
  for (int i = 0; i < request_count; ++i) {
    const NodeId home = homes[i % 3];
    const VideoId movie = movies[i % 3];
    sim.schedule_at(SimTime{5.0 + request_spacing * i},
                    [&service, home, movie](SimTime) {
                      service.request_at(home, movie);
                    });
  }

  fault::FaultInjector injector{sim, service};
  if (intensity.level > 0) {
    fault::FaultScheduleOptions storm = intensity.storm;
    storm.horizon_seconds = horizon;
    // Same seed per intensity level: both modes face the same storm.
    injector.schedule_random(storm, 1000 + intensity.level);
  }

  // Drain long enough for sessions herded onto the surviving 2 Mbps links
  // (and late service retries) to finish at their shared rates.
  sim.run_until(SimTime{horizon + 4.0 * 3600.0});

  RunResult result;
  result.report = service::build_resilience_report(service, Mbps{0.0});
  result.faults_applied = injector.trace().size();
  for (const SessionId id : service.session_ids()) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    if (m.failed && m.failure_reason.empty()) result.reasons_ok = false;
  }
  return result;
}

std::string latency_cell(const service::ResilienceReport& report) {
  if (report.failover_latency_seconds.count() == 0) return "-";
  return TextTable::num(report.failover_latency_seconds.median(), 1) +
         " / " +
         TextTable::num(report.failover_latency_seconds.quantile(0.95), 1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv, {"--smoke"}};
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int request_count = smoke ? 12 : 60;
  const double horizon = smoke ? 900.0 : 3600.0;
  const double spacing = smoke ? 60.0 : 60.0;

  bench::heading(
      "Fault resilience: watchdog-only baseline vs. proactive failover");

  std::vector<Intensity> intensities;
  intensities.push_back({0, {}});
  {
    fault::FaultScheduleOptions storm;
    storm.link_mtbf_seconds = 1800.0;
    storm.link_mttr_seconds = 240.0;
    storm.server_mtbf_seconds = 2700.0;
    storm.server_mttr_seconds = 300.0;
    intensities.push_back({1, storm});
  }
  {
    fault::FaultScheduleOptions storm;
    storm.link_mtbf_seconds = 900.0;
    storm.link_mttr_seconds = 240.0;
    storm.server_mtbf_seconds = 1200.0;
    storm.server_mttr_seconds = 300.0;
    storm.snmp_mtbf_seconds = 1500.0;
    storm.snmp_mttr_seconds = 400.0;
    intensities.push_back({2, storm});
  }
  if (smoke) {  // keep it short: the calm run and the worst storm
    intensities.erase(intensities.begin() + 1);
  }

  TextTable table{{"intensity", "mode", "faults", "requests", "finished",
                   "availability", "failover p50/p95 (s)", "proactive",
                   "stall retries", "svc retries", "degraded"}};
  bool hung_ok = true;
  bool reasons_ok = true;
  std::size_t faulty_finished_failover = 0;
  std::size_t faulty_requests_failover = 0;
  std::size_t faulty_finished_baseline = 0;
  std::size_t faulty_requests_baseline = 0;

  for (const Intensity& intensity : intensities) {
    for (const bool failover : {false, true}) {
      const RunResult run =
          run_case(intensity, failover, request_count, horizon, spacing, obs);
      const service::ResilienceReport& r = run.report;
      table.add_row({std::to_string(intensity.level),
                     failover ? "failover" : "baseline",
                     std::to_string(run.faults_applied),
                     std::to_string(r.requests),
                     std::to_string(r.finished),
                     TextTable::num(100.0 * r.availability(), 1) + "%",
                     latency_cell(r),
                     std::to_string(r.proactive_failovers),
                     std::to_string(r.stall_retries),
                     std::to_string(r.service_retries),
                     std::to_string(r.degraded_selections)});
      if (r.hung != 0) hung_ok = false;
      if (!run.reasons_ok) reasons_ok = false;
      if (intensity.level > 0) {
        if (failover) {
          faulty_finished_failover += r.finished;
          faulty_requests_failover += r.requests;
        } else {
          faulty_finished_baseline += r.finished;
          faulty_requests_baseline += r.requests;
        }
      }
    }
  }
  std::cout << table.render() << "\n";

  const double avail_failover =
      faulty_requests_failover > 0
          ? static_cast<double>(faulty_finished_failover) /
                static_cast<double>(faulty_requests_failover)
          : 0.0;
  const double avail_baseline =
      faulty_requests_baseline > 0
          ? static_cast<double>(faulty_finished_baseline) /
                static_cast<double>(faulty_requests_baseline)
          : 0.0;
  std::cout << "aggregate availability under faults: baseline "
            << TextTable::num(100.0 * avail_baseline, 2) << "%, failover "
            << TextTable::num(100.0 * avail_failover, 2) << "%\n";

  if (!hung_ok) {
    std::cout << "FAIL: a run left hung sessions\n";
    return 1;
  }
  if (!reasons_ok) {
    std::cout << "FAIL: a failed session carries no failure reason\n";
    return 1;
  }
  if (!smoke && avail_failover <= avail_baseline) {
    std::cout << "FAIL: failover availability does not beat the "
                 "watchdog-only baseline\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
