// Tiered user-class QoS, end to end: three classes share one saturated
// backbone link; a premium arrival preempts the background session to get
// in; a server crash then sheds load bottom-up — premium fails over first
// with its 1.5x stall patience, background times out first and its zero
// retry budget makes it absorbed shed.  Ends with the per-class SLA slice
// of the resilience report and a telemetry-v2 postmortem: an SLO burn-rate
// monitor catches the background sacrifice as an availability breach, and
// the always-on flight recorder dumps black boxes (qos_demo_flight_*.json)
// for the preemption and the breach — the README "ops story" walks them.
//
// Build & run:  ./build/examples/qos_demo
#include <iostream>
#include <utility>

#include "grnet/grnet.h"
#include "net/fluid.h"
#include "obs/flight.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "service/report.h"
#include "service/vod_service.h"
#include "sim/simulation.h"

using namespace vod;

int main() {
  const grnet::CaseStudy g = grnet::build_case_study();
  net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.snmp_interval_seconds = 60.0;
  options.dma.admission_threshold = 1'000'000;  // keep the title remote
  options.failover.proactive = true;
  options.failover.retry_limit = 2;
  options.failover.retry_backoff_seconds = 60.0;
  options.qos.enabled = true;  // the whole point of this demo
  options.qos.policies[class_index(UserClass::kBackground)].retry_limit = 0;
  service::VodService service{sim, g.topology, network, options,
                              db::AdminCredential{"qos-admin"}};

  const VideoId movie =
      service.add_video("blockbuster", MegaBytes{30.0}, Mbps{0.5});
  service.place_initial_copy(g.athens, movie);  // sole replica for now
  service.start();

  // --- Telemetry v2 rides along (DESIGN.md §16) -----------------------
  // Flight recorder: a bounded ring of recent trace events, always on;
  // anomalies (the preemption below, SLO breaches) dump deterministic
  // black boxes.  The demo's two anomalies land on the same sim instant
  // (the breach is evaluated on the sampling tick right after the
  // sacrifice), so disable the dump rate-limit gap entirely.
  obs::FlightOptions flight_options;
  flight_options.dump_path_prefix = "qos_demo_flight_";
  flight_options.min_gap = Duration{0.0};
  obs::FlightRecorder flight{flight_options};
  flight.bind_registry(&service.metrics());
  sim.obs().set_flight(&flight);

  // Series sampler: snapshots the service registry every 30 sim-seconds.
  obs::TimeSeriesRecorder series;
  series.bind_registry(&service.metrics());
  sim.obs().set_series(&series);

  // SLO: background availability >= 90% over 5-minute and 1-minute
  // burn-rate windows.  The sacrifice ahead will torch that budget.
  obs::SloMonitor slo{&service.metrics(), &sim.obs()};
  {
    obs::SloSpec spec;
    spec.name = "background-availability";
    spec.kind = obs::SloSpec::Kind::kAvailabilityFloor;
    spec.good_metric = "qos.background.finished";
    spec.total_metrics = {"qos.background.finished",
                          "qos.background.failed"};
    spec.threshold = 0.9;
    spec.windows = {{Duration{300.0}, 1.0}, {Duration{60.0}, 1.0}};
    slo.add(std::move(spec));
  }
  series.set_on_sample([&slo](SimTime at, const obs::MetricsSnapshot& snap) {
    slo.evaluate(at, snap);
  });
  // --------------------------------------------------------------------

  std::cout << "Patra reaches the Athens replica over the 2 Mbps "
               "Patra-Athens link\n(0.2 Mbps of 8am background -> 1.8 Mbps "
               "residual).  A background and a\nstandard viewer take all "
               "of it:\n\n";
  const auto background = service.request_classed(g.patra, movie,
                                                  UserClass::kBackground);
  const auto standard =
      service.request_classed(g.patra, movie, UserClass::kStandard);
  std::cout << "  background session " << background.session->value()
            << " and standard session " << standard.session->value()
            << " admitted\n";

  sim.run_until(SimTime{30.0});
  service.snmp().poll_now(sim.now());
  std::cout << "  t=30s: the link reads "
            << static_cast<int>(100.0 * network.utilization(g.patra_athens))
            << "% utilized; plain admission would now refuse anyone\n\n";

  std::cout << "A premium viewer arrives.  Plain admission fails, so the "
               "planner ranks\nstrictly lower classes (lowest class first, "
               "youngest first) and sacrifices\njust enough:\n\n";
  const auto premium =
      service.request_classed(g.patra, movie, UserClass::kPremium);
  std::cout << "  verdict: "
            << (premium.verdict ==
                        service::VodService::Admission::kPreempted
                    ? "admitted by preemption"
                    : "(unexpected)")
            << ", victims:";
  for (const SessionId victim : premium.preempted) {
    std::cout << " session " << victim.value() << " ("
              << to_string(service.session_class(victim)) << ")";
  }
  std::cout << "\n  the standard session streams on; the preempted "
               "background session has\n  no retry budget -> absorbed "
               "shed\n\n";

  // Storm prep, just ahead of the crash: the administrators seed a
  // second replica so the failover has somewhere to land.  (Any earlier
  // and the per-cluster VRA would migrate the streams off Athens on its
  // own — the less-loaded northern path wins the next cluster.)
  sim.schedule_at(SimTime{110.0}, [&](SimTime) {
    service.place_initial_copy(g.thessaloniki, movie);
  });

  std::cout << "t=120s: the Athens server crashes.  Class-ordered "
               "shedding: premium\nfails over to Thessaloniki first, "
               "lower classes follow behind it.\n\n";
  sim.schedule_at(SimTime{120.0},
                  [&](SimTime) { service.crash_server(g.athens); });
  sim.schedule_at(SimTime{600.0},
                  [&](SimTime) { service.restore_server(g.athens); });
  sim.run_until(from_hours(3.0));

  const service::ResilienceReport report =
      service::build_resilience_report(service, Mbps{0.0});
  std::cout << service::format_resilience_report(report) << "\n";

  const auto& premium_sla =
      report.by_class[class_index(UserClass::kPremium)];
  std::cout << "premium: " << premium_sla.finished << "/"
            << premium_sla.requests << " finished, "
            << service.preemption_victim_count()
            << " victim(s) paid for its admission\n";

  // --- Postmortem: what the monitors saw ------------------------------
  std::cout << "\nSLO status: " << slo.status_json();
  std::cout << "flight recorder: " << flight.dump_count()
            << " black box(es)";
  for (std::size_t i = 0; i < flight.dumps().size(); ++i) {
    std::cout << (i == 0 ? " — " : ", ") << "qos_demo_flight_" << i
              << ".json (" << flight.dumps()[i].first << ")";
  }
  std::cout << "\nEach dump holds the last " << flight_options.ring_capacity
            << " trace events before the anomaly, the full metrics\n"
               "snapshot, and the sim clock — open one and read the story "
               "backwards.\n";

  // The recorders die before the simulation: detach them first.
  sim.obs().set_series(nullptr);
  sim.obs().set_flight(nullptr);
  const bool slo_caught_shed = !slo.states().empty() &&
                               slo.states().front().breaches >= 1;
  return premium_sla.finished == premium_sla.requests &&
                 slo_caught_shed && flight.dump_count() >= 1
             ? 0
             : 1;
}
