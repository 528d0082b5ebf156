// A tour of the limited-access administration module: inspecting SNMP
// statistics, taking a server out of rotation, failing hardware, and
// reading the service-level QoS report — the operator's view of Figure 1.
//
// Build & run:  ./build/examples/admin_tour
#include <iomanip>
#include <iostream>

#include "grnet/grnet.h"
#include "net/fluid.h"
#include "service/report.h"
#include "service/vod_service.h"
#include "sim/simulation.h"

using namespace vod;

int main() {
  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  options.vra_switch_hysteresis = 0.5;
  options.audit_capacity = 128;  // keep a routing-decision trail
  service::VodService service{sim, g.topology, network, options,
                              db::AdminCredential{"ops-team"}};

  const VideoId movie =
      service.add_video("the operator's cut", MegaBytes{60.0}, Mbps{1.5});
  service.place_initial_copy(g.thessaloniki, movie);
  service.place_initial_copy(g.xanthi, movie);
  service.start();

  // Access control: the full-access web view cannot see link statistics;
  // only the right credential opens the limited module.
  try {
    (void)service.database().limited_view(db::AdminCredential{"intruder"});
  } catch (const std::invalid_argument&) {
    std::cout << "limited-access module refused a bad credential (as the "
                 "paper requires)\n";
  }

  sim.run_until(grnet::time_of(grnet::TimeOfDay::k10am));
  auto admin = service.admin_view();
  std::cout << "\nSNMP view of the backbone at 10am:\n" << std::fixed
            << std::setprecision(2);
  for (const LinkId link : g.links_in_paper_order()) {
    const db::LinkRecord& record = admin.link(link);
    std::cout << "  " << std::left << std::setw(22)
              << g.topology.link(link).name << record.used_bandwidth.value()
              << "/"
              << record.total_bandwidth.value() << " Mbps ("
              << record.utilization * 100.0 << "%)"
              << (record.online ? "" : "  OFFLINE") << "\n";
  }

  // Maintenance: drain Thessaloniki, then break a disk at Xanthi.
  std::cout << "\ntaking Thessaloniki's server offline for maintenance\n";
  service.set_server_online(g.thessaloniki, false);
  const SessionId s1 = service.request_at(g.patra, movie);

  std::cout << "disk 0 at Xanthi fails: ";
  const auto lost = service.fail_disk(g.xanthi, 0);
  std::cout << lost.size() << " title(s) lost there\n";
  std::cout << "Thessaloniki returns to rotation\n";
  service.set_server_online(g.thessaloniki, true);
  const SessionId s2 = service.request_at(g.heraklio, movie);

  sim.run_until(grnet::time_of(grnet::TimeOfDay::k6pm));
  std::cout << "\nsession from Patra (during the drain) was served by "
            << g.city(service.session_metrics(s1).cluster_sources.front())
            << "\nsession from Heraklio (after the crash) was served by "
            << g.city(service.session_metrics(s2).cluster_sources.front())
            << "\n";

  std::cout << "\nlast routing decisions (the audit trail):\n"
            << service.audit().format_recent(6, [&](NodeId node) {
                 return g.city(node);
               });

  std::cout << "\nservice report:\n"
            << service::format_report(
                   service::build_report(service, Mbps{0.0}));
  std::cout << "\nper-session CSV (for spreadsheets):\n"
            << service::report_sessions_csv(service);
  return 0;
}
