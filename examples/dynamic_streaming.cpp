// Mid-stream server switching — the "dynamic" in the paper's title.
//
// A client at Athens starts a long movie just before the 10am traffic
// surge (Table 2).  The VRA initially serves it from Ioannina; when the
// Patra-Athens link saturates at 10am, the per-cluster re-evaluation moves
// the session to Xanthi without interrupting playback.
//
// Build & run:  ./build/examples/dynamic_streaming
#include <iomanip>
#include <iostream>

#include "grnet/grnet.h"
#include "net/fluid.h"
#include "net/transfer.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"
#include "vra/vra.h"

using namespace vod;

int main() {
  const db::AdminCredential admin{"demo-admin"};
  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};
  net::TransferManager transfers{sim, network};

  db::Database db{admin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(admin), Duration{90.0}};
  // Account VoD streams separately so the VRA reacts to the *background*
  // congestion shift rather than to its own flow (without this the stream
  // ping-pongs between the two replicas; try flipping it).
  snmp.set_count_vod_flows(false);
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  const VideoId movie =
      db.register_video("marathon", MegaBytes{400.0}, Mbps{1.5});
  auto view = db.limited_view(admin);
  view.add_title(g.ioannina, movie);
  view.add_title(g.xanthi, movie);

  vra::Vra vra{g.topology, db.full_view(), db.limited_view(admin), {}};
  // 30% switch hysteresis: without it the SNMP counters (which include
  // this session's own flow) make the VRA ping-pong between the two
  // replicas; with it only the real 10am congestion shift triggers a move.
  stream::VraPolicy policy{vra, 0.3};

  std::unique_ptr<stream::Session> session;
  sim.schedule_at(from_hours(9.9), [&](SimTime t) {
    std::cout << "t=" << t.seconds() / 3600.0
              << "h  client at Athens requests the movie\n";
    session = std::make_unique<stream::Session>(
        sim, transfers, policy, *db.full_view().video(movie), g.athens,
        MegaBytes{20.0});
    session->start();
  });
  sim.run_until(from_hours(20.0));
  snmp.stop();

  const stream::SessionMetrics& m = session->metrics();
  std::cout << std::fixed << std::setprecision(2);
  std::cout << "\ncluster log (source server per cluster):\n";
  NodeId last;
  for (std::size_t k = 0; k < m.cluster_sources.size(); ++k) {
    const bool switched = k > 0 && m.cluster_sources[k] != last;
    std::cout << "  cluster " << std::setw(2) << k << " from "
              << g.city(m.cluster_sources[k]) << "  (done t="
              << m.cluster_completed[k].seconds() / 3600.0 << "h)"
              << (switched ? "   <-- switched!" : "") << "\n";
    last = m.cluster_sources[k];
  }
  std::cout << "\nfinished: " << std::boolalpha << m.finished
            << "; switches: " << m.server_switches
            << "; startup: " << m.startup_delay() << "s"
            << "; rebuffer: " << m.rebuffer_seconds << "s\n";
  return 0;
}
