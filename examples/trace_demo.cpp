// Observability tour: runs a scripted GRNET scenario with the trace
// recorder attached and writes a Chrome trace-event JSON you can drop
// into chrome://tracing or https://ui.perfetto.dev.
//
// The scenario is built to light up every instrumented subsystem:
//   service  - request / coalesce / retry instants, active-session counter
//   vra      - per-request route decisions with the losing candidates
//   session  - async begin/end spanning each download, switch/stall instants
//   dma      - admit / point / hit events on the serving caches
//   fluid    - reallocation epochs with round counts, active-flow counter
//   snmp     - begin/end sweeps over the backbone links
//   fault    - a fiber cut + repair and a server crash + restore
//
// Build & run:  ./build/examples/trace_demo --out trace.json
// Flags:        --out FILE         trace destination (default trace.json)
//               --metrics-out FILE metrics-registry snapshot as CSV
//               --requests N       request count (default 12)
//               --profile          wall-clock profiler CSV on stderr
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "fault/fault_injector.h"
#include "grnet/grnet.h"
#include "net/fluid.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "service/report.h"
#include "service/vod_service.h"
#include "sim/simulation.h"

using namespace vod;

int main(int argc, char** argv) {
  std::string trace_path = "trace.json";
  std::string metrics_path;
  int requests = 12;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (arg == "--profile") {
      profile = true;
    } else {
      std::cerr << "usage: trace_demo [--out trace.json] "
                   "[--metrics-out metrics.csv] [--requests N] [--profile]\n";
      return 2;
    }
  }
  if (profile) obs::Profiler::instance().set_enabled(true);

  obs::TraceRecorder recorder;

  const grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  sim.obs().set_trace(&recorder);
  net::FluidNetwork network{g.topology, traffic};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.snmp_interval_seconds = 120.0;
  options.dma.admission_threshold = 1;  // the second request gets cached
  options.failover.proactive = true;
  options.failover.retry_limit = 2;
  service::VodService service{sim, g.topology, network, options,
                              db::AdminCredential{"trace-admin"}};

  const VideoId news =
      service.add_video("evening news", MegaBytes{40.0}, Mbps{1.5});
  const VideoId film =
      service.add_video("feature film", MegaBytes{80.0}, Mbps{2.0});
  service.place_initial_copy(g.thessaloniki, news);
  service.place_initial_copy(g.heraklio, film);
  service.place_initial_copy(g.xanthi, film);
  service.start();

  // Requests arrive from the replica-less west, one a minute, alternating
  // titles — the repeats are what trip the DMA's admission threshold.
  const NodeId homes[] = {g.patra, g.athens, g.ioannina};
  for (int i = 0; i < requests; ++i) {
    const NodeId home = homes[i % 3];
    const VideoId video = (i % 2 == 0) ? news : film;
    sim.schedule_at(SimTime{60.0 * (i + 1)},
                    [&service, home, video](SimTime) {
                      service.request_at(home, video);
                    });
  }

  // Mid-run faults: a fiber cut that heals, then a server outage.
  fault::FaultInjector injector{sim, service};
  injector.cut_link_at(SimTime{400.0}, g.patra_ioannina);
  injector.restore_link_at(SimTime{900.0}, g.patra_ioannina);
  injector.crash_server_at(SimTime{1500.0}, g.heraklio);
  injector.restore_server_at(SimTime{2100.0}, g.heraklio);

  sim.run_until(from_hours(6.0));

  {
    std::ofstream out{trace_path};
    out << recorder.to_chrome_json();
  }
  std::cout << "wrote " << recorder.events().size() << " event(s) from "
            << recorder.subsystem_count() << " subsystem(s) to " << trace_path
            << "\n\n";
  if (!metrics_path.empty()) {
    const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
    std::ofstream out{metrics_path};
    out << snapshot.to_csv();
    std::cout << "wrote " << snapshot.scalars().size()
              << " metric scalar(s) to " << metrics_path << "\n\n";
  }
  std::cout << service::format_report(
      service::build_report(service, Mbps{0.0}));
  if (profile) {
    std::cerr << obs::Profiler::instance().report_csv();
    obs::Profiler::instance().set_enabled(false);
  }
  return recorder.subsystem_count() >= 5 ? 0 : 1;
}
