// Regenerates Table 4 — the Dijkstra step table of Experiment A.
//
// 8:00 am: a client at Patra (U2) requests a title held only at
// Thessaloniki (U4) and Xanthi (U5).  Prints the full step-by-step
// Dijkstra table in the paper's layout, the per-candidate least-cost
// paths, and the VRA decision.
//
// KNOWN PAPER DEFECT (documented in DESIGN.md/EXPERIMENTS.md): the paper's
// Table 4 reports the best U2->U4 path as U2,U1,U4 at 0.365, missing the
// relaxation through U3 that yields U2,U3,U4 at ~0.218 — and therefore
// selects Xanthi (0.315).  Correct Dijkstra flips the decision to
// Thessaloniki.  This bench prints both readings.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "routing/trace_format.h"
#include "vra/vra.h"

using namespace vod;

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv};
  bench::heading(
      "Table 4: Dijkstra table for Experiment A (8am, client at U2)");

  bench::CaseDb fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(bench::kAdmin), {}};
  vra.set_obs(&obs.context());

  const auto decision = vra.select_server(fx.g.patra, fx.movie, true);
  if (!decision) {
    std::cerr << "unexpected: no decision\n";
    return 1;
  }
  const routing::Graph graph = vra.current_weighted_graph();
  std::cout << routing::format_dijkstra_trace(graph, fx.g.patra,
                                              decision->trace);

  std::cout << "\nLeast-cost paths to the candidate servers:\n";
  for (const vra::Candidate& candidate : decision->candidates) {
    std::cout << "  " << fx.g.city(candidate.server) << " ("
              << graph.node_name(candidate.server)
              << "): " << candidate.path.to_string(graph) << "  cost "
              << TextTable::num(candidate.path.cost, 4) << "\n";
  }
  std::cout << "\nVRA decision: download from " << fx.g.city(decision->server)
            << " via " << decision->path.to_string(graph) << " (cost "
            << TextTable::num(decision->path.cost, 4) << ")\n";
  std::cout
      << "\nPaper's published decision: Xanthi via U5,U6,U1,U2 at 0.315 —\n"
         "its Table 4 reports D4 = 0.365 via U2,U1,U4, missing the cheaper\n"
         "relaxation U2,U3,U4 = 0.075 + 0.1427 = 0.218 visible in its own\n"
         "Table 3.  Experiments B, C and D are arithmetically consistent.\n";
  return 0;
}
