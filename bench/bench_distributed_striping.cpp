// Server-level striping — the paper's future-work proposal, measured.
//
// "...even better results if the various videos were stripped not on the
//  hard disks of one server but of different servers according to the
//  popularity."
//
// The same popular title is streamed to clients at every site, once with
// whole-title placement (all clusters from the title's single holder) and
// once strip-placed across three servers (cluster k from holder k mod 3).
// Strip placement disperses the load across links and server egress ports.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "net/transfer.h"
#include "service/distributed_striping.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"

using namespace vod;

namespace {

struct RunResult {
  double mean_download = 0.0;
  double max_link_utilization = 0.0;
  double egress_imbalance = 0.0;  // max/mean server egress bytes
  int finished = 0;
};

RunResult run(bool striped) {
  const grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;  // isolate our own load dispersion
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  net::TransferManager transfers{sim, network};

  db::Database db{bench::kAdmin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  const VideoId movie =
      db.register_video("blockbuster", MegaBytes{200.0}, Mbps{1.5});
  const std::vector<NodeId> holders{g.athens, g.thessaloniki, g.heraklio};
  auto view = db.limited_view(bench::kAdmin);
  if (striped) {
    for (const NodeId holder : holders) view.add_title(holder, movie);
  } else {
    view.add_title(g.athens, movie);
  }

  vra::Vra vra{g.topology, db.full_view(), db.limited_view(bench::kAdmin),
               {}};
  stream::VraPolicy whole_policy{vra, 0.5};
  service::DistributedStripePlacer placer{holders, holders.size()};
  service::StripedSelectionPolicy striped_policy{vra,
                                                 placer.plan({movie})};
  stream::ServerSelectionPolicy* policy =
      striped ? static_cast<stream::ServerSelectionPolicy*>(&striped_policy)
              : &whole_policy;

  // One client at each of the six sites requests the title together.
  std::vector<std::unique_ptr<stream::Session>> sessions;
  std::vector<double> per_server_egress(g.topology.node_count(), 0.0);
  double max_utilization = 0.0;

  for (std::size_t n = 0; n < g.topology.node_count(); ++n) {
    const NodeId home{static_cast<NodeId::underlying_type>(n)};
    auto session = std::make_unique<stream::Session>(
        sim, transfers, *policy, *db.full_view().video(movie), home,
        MegaBytes{25.0});
    session->start();
    sessions.push_back(std::move(session));
  }

  // Sample link peaks as the run progresses.
  sim::PeriodicTask sampler{sim, Duration{10.0}, [&](SimTime) {
    for (const net::LinkInfo& info : g.topology.links()) {
      max_utilization =
          std::max(max_utilization, network.utilization(info.id));
    }
  }};
  sampler.start();
  sim.run_until(from_hours(4.0));
  sampler.stop();
  snmp.stop();

  RunResult result;
  for (const auto& session : sessions) {
    const stream::SessionMetrics& m = session->metrics();
    if (!m.finished) continue;
    ++result.finished;
    result.mean_download += *m.download_completed_at - m.requested_at;
    // Attribute each cluster's bytes to its source server's egress.
    for (std::size_t k = 0; k < m.cluster_sources.size(); ++k) {
      per_server_egress[m.cluster_sources[k].value()] += 25.0;
    }
  }
  if (result.finished > 0) result.mean_download /= result.finished;
  result.max_link_utilization = max_utilization;

  double total = 0.0, peak = 0.0;
  int active_servers = 0;
  for (const double egress : per_server_egress) {
    total += egress;
    peak = std::max(peak, egress);
    if (egress > 0.0) ++active_servers;
  }
  result.egress_imbalance =
      total > 0.0 ? peak / (total / g.topology.node_count()) : 0.0;
  (void)active_servers;
  return result;
}

}  // namespace

int main() {
  bench::heading(
      "Future work: whole-title vs server-striped placement");
  std::cout << "One 200 MB @1.5 Mbps title requested simultaneously from "
               "all six sites;\ncluster 25 MB; idle background.\n\n";

  TextTable table{{"Placement", "finished", "mean DL (s)",
                   "peak link util", "egress peak/mean"}};
  for (const bool striped : {false, true}) {
    const RunResult r = run(striped);
    table.add_row({striped ? "striped across 3 servers" : "single holder",
                   std::to_string(r.finished),
                   TextTable::num(r.mean_download, 0),
                   TextTable::num(r.max_link_utilization, 2),
                   TextTable::num(r.egress_imbalance, 2)});
  }
  std::cout << table.render();
  std::cout << "\nExpected shape: strip placement spreads the clusters over "
               "three egress\npoints, cutting the single holder's hot links "
               "and its egress concentration\n(peak/mean -> closer to 1 "
               "means better dispersion).\n";
  return 0;
}
