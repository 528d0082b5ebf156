// Tiered-QoS storm bench: the same seeded MTBF/MTTR fault storm, at >=90%
// bottleneck utilization, hits a single-class baseline service and a
// three-class tiered one (weighted fluid shares, per-class admission
// headroom, preemption, class-ordered shedding, per-class retry budgets).
//
// Gates (--qos-gate, exit 1 on violation):
//   - the utilization probe confirms the storm ran hot: the time-mean of
//     the busiest link's utilization must be >= 0.9;
//   - premium availability under the tiered policy must be at least the
//     baseline's overall availability (the whole point of the tiers);
//   - premium p99 stall time must be no worse than the baseline's p99;
//   - of the tiered run's shed (failed requests plus preemption
//     sacrifices), background must absorb at least kShedFloor and premium
//     must carry the smallest per-class share.
//
// Usage: bench_qos [--smoke] [--qos-gate] [--out PATH]
//        (default PATH: BENCH_qos.json)
//        plus the shared ObsScope flags (bench_util.h): --series-out FILE
//        samples the tiered run's registry on the series cadence,
//        --flight-out PREFIX arms the flight recorder (the storm's SLO
//        breaches and preemptions dump deterministic black boxes).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "fault/fault_injector.h"
#include "service/report.h"
#include "service/vod_service.h"

using namespace vod;

namespace {

/// Minimum share of the tiered run's shed that must land on background:
/// at least its proportional share of the demand (classes arrive in equal
/// thirds), i.e. strictly more than an un-tiered service would assign it
/// by chance.  Premium must additionally carry the smallest share.
constexpr double kShedFloor = 1.0 / 3.0;

struct RunResult {
  service::ResilienceReport report;
  std::size_t preempted_admits = 0;
  std::size_t rejected = 0;
  double peak_link_utilization_mean = 0.0;  // busiest link, time-averaged
  std::size_t faults_applied = 0;
};

/// One storm run.  Titles live on the eastern replicas; requests arrive
/// from the replica-less west across the 2 Mbps backbone links, enough of
/// them at once to keep the bottleneck pinned while the storm flaps links
/// and servers.  `tiered` flips the whole class machinery on; the storm
/// seed and the request schedule are identical either way.
RunResult run_case(bool tiered, int request_count, double horizon,
                   double spacing, bench::ObsScope& obs) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.snmp_interval_seconds = 60.0;
  options.dma.admission_threshold = 1'000'000;  // routing only
  options.failover.proactive = true;
  options.failover.retry_limit = 2;
  options.failover.retry_backoff_seconds = 60.0;
  options.degraded_stats_age_seconds = 3.0 * options.snmp_interval_seconds;
  if (tiered) {
    options.qos.enabled = true;
    // Defaults plus: background failures are absorbed shed (no retries) —
    // its budget is the storm's pressure-relief valve.
    options.qos.policies[class_index(UserClass::kBackground)].retry_limit =
        0;
  }
  service::VodService service{sim, g.topology, network, options,
                              bench::kAdmin};
  // The trace follows both runs; telemetry v2 watches only the tiered
  // run (its qos.* metrics are what the SLO specs read).  With no v2 flag
  // both runs stay byte-identical to the pre-v2 bench.
  obs.attach(sim, tiered ? &service.metrics() : nullptr);

  const NodeId replicas[3][2] = {{g.thessaloniki, g.xanthi},
                                 {g.thessaloniki, g.heraklio},
                                 {g.xanthi, g.heraklio}};
  std::vector<VideoId> movies;
  for (int v = 0; v < 3; ++v) {
    const VideoId id = service.add_video("m" + std::to_string(v),
                                         MegaBytes{60.0}, Mbps{1.0});
    service.place_initial_copy(replicas[v][0], id);
    service.place_initial_copy(replicas[v][1], id);
    movies.push_back(id);
  }
  service.start();

  // Round-robin homes; classes rotate on a different stride so every
  // class sees every home and title.  The baseline runs the very same
  // schedule single-class.
  const NodeId homes[] = {g.patra, g.athens, g.ioannina};
  const UserClass classes[] = {UserClass::kPremium, UserClass::kStandard,
                               UserClass::kBackground};
  std::size_t rejected = 0;
  for (int i = 0; i < request_count; ++i) {
    const NodeId home = homes[i % 3];
    const VideoId movie = movies[(i / 3) % 3];
    const UserClass cls =
        tiered ? classes[(i / 3) % 3] : UserClass::kStandard;
    sim.schedule_at(
        SimTime{5.0 + spacing * i},
        [&service, &rejected, home, movie, cls](SimTime) {
          const auto outcome = service.request_classed(home, movie, cls);
          if (outcome.verdict == service::VodService::Admission::kRejected) {
            ++rejected;
          }
        });
  }

  // Same seed for both modes: byte-for-byte the same storm.
  fault::FaultInjector injector{sim, service};
  fault::FaultScheduleOptions storm;
  storm.link_mtbf_seconds = 1200.0;
  storm.link_mttr_seconds = 240.0;
  storm.server_mtbf_seconds = 1800.0;
  storm.server_mttr_seconds = 300.0;
  storm.horizon_seconds = horizon;
  injector.schedule_random(storm, 4242);

  // Utilization probe: every 30 s note the busiest link; its time-mean
  // certifies the storm ran at the promised load.
  double probe_sum = 0.0;
  std::size_t probe_count = 0;
  const double probe_until = 5.0 + spacing * request_count;
  for (double t = 30.0; t < probe_until; t += 30.0) {
    sim.schedule_at(
        SimTime{t}, [&network, &g, &probe_sum, &probe_count](SimTime) {
          double peak = 0.0;
          for (const net::LinkInfo& info : g.topology.links()) {
            peak = std::max(peak, network.utilization(info.id));
          }
          probe_sum += peak;
          ++probe_count;
        });
  }

  // Drain well past the horizon: retries, backoffs and the sessions herded
  // onto surviving 2 Mbps links need the tail time.
  sim.run_until(SimTime{horizon + 6.0 * 3600.0});

  RunResult result;
  result.report = service::build_resilience_report(service, Mbps{0.0});
  result.preempted_admits = service.preempted_admit_count();
  result.rejected = rejected;
  result.faults_applied = injector.trace().size();
  result.peak_link_utilization_mean =
      probe_count > 0 ? probe_sum / static_cast<double>(probe_count) : 0.0;
  return result;
}

double p99_stall(const service::ResilienceReport& report) {
  return report.stall_seconds.count() > 0
             ? report.stall_seconds.quantile(0.99)
             : 0.0;
}

void write_json(const std::string& path, const RunResult& baseline,
                const RunResult& tiered, double background_shed_share,
                bool gates_pass) {
  std::ofstream out{path};
  out << "{\n  \"baseline\": {\"availability\": "
      << baseline.report.availability()
      << ", \"p99_stall_s\": " << p99_stall(baseline.report)
      << ", \"utilization\": " << baseline.peak_link_utilization_mean
      << "},\n  \"classes\": [\n";
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    const auto& sla = tiered.report.by_class[c];
    out << "    {\"class\": \""
        << to_string(static_cast<UserClass>(c)) << "\""
        << ", \"requests\": " << sla.requests
        << ", \"finished\": " << sla.finished
        << ", \"availability\": " << sla.availability()
        << ", \"preempted\": " << sla.preempted
        << ", \"p99_stall_s\": "
        << (sla.stall_seconds.count() > 0
                ? sla.stall_seconds.quantile(0.99)
                : 0.0)
        << "}" << (c + 1 < kUserClassCount ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"utilization_floor\": 0.9, "
      << "\"shed_floor\": " << kShedFloor
      << ", \"background_shed_share\": " << background_shed_share
      << ", \"pass\": " << (gates_pass ? "true" : "false") << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv};
  bool smoke = false;
  bool gate = false;
  std::string out_path = "BENCH_qos.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--qos-gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const int request_count = smoke ? 18 : 60;
  const double horizon = smoke ? 1200.0 : 3600.0;
  const double spacing = smoke ? 45.0 : 45.0;

  // SLOs over the tiered run, evaluated on the series cadence (inert with
  // no v2 flag).  Windows follow the SRE multi-window pattern: the short
  // window catches the storm spike, the long one confirms it is not noise.
  {
    obs::SloSpec spec;
    spec.name = "premium-availability";
    spec.kind = obs::SloSpec::Kind::kAvailabilityFloor;
    spec.good_metric = "qos.premium.finished";
    spec.total_metrics = {"qos.premium.finished", "qos.premium.failed"};
    spec.threshold = 0.9;
    spec.windows = {{Duration{1800.0}, 1.0}, {Duration{600.0}, 1.0}};
    obs.add_slo(std::move(spec));
  }
  {
    obs::SloSpec spec;
    spec.name = "stall-p99";
    spec.kind = obs::SloSpec::Kind::kQuantileCeiling;
    spec.histogram_metric = "session.stall_seconds";
    spec.quantile = 0.99;
    spec.threshold = 120.0;  // ceiling: p99 stall <= 2 minutes
    spec.windows = {{Duration{1800.0}, 1.0}, {Duration{600.0}, 1.0}};
    obs.add_slo(std::move(spec));
  }
  {
    obs::SloSpec spec;
    spec.name = "background-reject-rate";
    spec.kind = obs::SloSpec::Kind::kRatioCeiling;
    spec.bad_metric = "qos.background.rejected";
    spec.total_metrics = {"qos.background.requests"};
    spec.threshold = 0.25;  // ceiling: <= 25% of background turned away
    spec.windows = {{Duration{1800.0}, 1.0}, {Duration{600.0}, 1.0}};
    obs.add_slo(std::move(spec));
  }

  bench::heading(
      "Tiered QoS under a fault storm: single-class baseline vs. "
      "premium/standard/background");

  const RunResult baseline =
      run_case(false, request_count, horizon, spacing, obs);
  const RunResult tiered =
      run_case(true, request_count, horizon, spacing, obs);

  TextTable table{{"mode", "class", "requests", "finished", "availability",
                   "p99 stall (s)", "preempted", "rejected"}};
  table.add_row({"baseline", "(all)",
                 std::to_string(baseline.report.requests),
                 std::to_string(baseline.report.finished),
                 TextTable::num(100.0 * baseline.report.availability(), 1) +
                     "%",
                 TextTable::num(p99_stall(baseline.report), 1), "0",
                 std::to_string(baseline.rejected)});
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    const auto& sla = tiered.report.by_class[c];
    table.add_row(
        {"tiered", to_string(static_cast<UserClass>(c)),
         std::to_string(sla.requests), std::to_string(sla.finished),
         TextTable::num(100.0 * sla.availability(), 1) + "%",
         TextTable::num(sla.stall_seconds.count() > 0
                            ? sla.stall_seconds.quantile(0.99)
                            : 0.0,
                        1),
         std::to_string(sla.preempted),
         std::to_string(sla.rejected)});
  }
  std::cout << table.render() << "\n";

  const auto& premium =
      tiered.report.by_class[class_index(UserClass::kPremium)];
  const auto& standard =
      tiered.report.by_class[class_index(UserClass::kStandard)];
  // Shed = failed user-visible requests plus preemption sacrifices (a
  // preempted-then-retried session that recovers still paid once).
  std::size_t shed = 0;
  std::size_t shed_by_class[kUserClassCount] = {};
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    shed_by_class[c] = tiered.report.by_class[c].failed +
                       tiered.report.by_class[c].preempted;
    shed += shed_by_class[c];
  }
  const std::size_t background_shed =
      shed_by_class[class_index(UserClass::kBackground)];
  const std::size_t premium_shed =
      shed_by_class[class_index(UserClass::kPremium)];
  (void)standard;
  const double shed_share =
      shed > 0 ? static_cast<double>(background_shed) /
                     static_cast<double>(shed)
               : 1.0;
  const double premium_p99 = premium.stall_seconds.count() > 0
                                 ? premium.stall_seconds.quantile(0.99)
                                 : 0.0;

  std::cout << "storm: " << tiered.faults_applied << " faults, busiest-link "
            << "utilization (time-mean) "
            << TextTable::num(100.0 * tiered.peak_link_utilization_mean, 1)
            << "%\n";
  std::cout << "premium availability "
            << TextTable::num(100.0 * premium.availability(), 1)
            << "% vs baseline "
            << TextTable::num(100.0 * baseline.report.availability(), 1)
            << "%; premium p99 stall " << TextTable::num(premium_p99, 1)
            << " s vs baseline "
            << TextTable::num(p99_stall(baseline.report), 1)
            << " s; background shed share "
            << TextTable::num(100.0 * shed_share, 1) << "%\n";

  bool ok = true;
  if (!smoke &&
      (tiered.peak_link_utilization_mean < 0.9 ||
       baseline.peak_link_utilization_mean < 0.9)) {
    std::cout << "FAIL: utilization probe below 90% — the storm did not "
                 "run hot enough to mean anything\n";
    ok = false;
  }
  if (!smoke && premium.availability() < baseline.report.availability()) {
    std::cout << "FAIL: premium availability under tiers fell below the "
                 "single-class baseline\n";
    ok = false;
  }
  if (!smoke && premium_p99 > p99_stall(baseline.report)) {
    std::cout << "FAIL: premium p99 stall exceeds the baseline's\n";
    ok = false;
  }
  if (!smoke && shed_share < kShedFloor) {
    std::cout << "FAIL: background absorbed less than "
              << TextTable::num(100.0 * kShedFloor, 0)
              << "% of the shed\n";
    ok = false;
  }
  if (!smoke && shed > 0 && (premium_shed > background_shed ||
                   premium_shed >
                       shed_by_class[class_index(UserClass::kStandard)])) {
    std::cout << "FAIL: premium does not carry the smallest share of the "
                 "shed\n";
    ok = false;
  }
  if (tiered.report.hung != 0 || baseline.report.hung != 0) {
    std::cout << "FAIL: a run left hung sessions\n";
    ok = false;
  }

  write_json(out_path, baseline, tiered, shed_share, ok);
  std::cout << "wrote " << out_path << "\n";
  if (gate && !ok) return 1;
  std::cout << (ok ? "OK\n" : "gates not enforced (run with --qos-gate)\n");
  return 0;
}
