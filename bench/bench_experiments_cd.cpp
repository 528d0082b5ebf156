// Regenerates Experiments C and D.
//
// 4:00 pm / 6:00 pm: a client at Athens (U1) requests a title held at
// Ioannina (U3), Thessaloniki (U4) and Xanthi (U5).  The paper reports the
// best path to each candidate and the decision (Ioannina via U3,U2,U1 both
// times); this bench prints ours next to the paper's numbers.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "vra/vra.h"

using namespace vod;

namespace {

struct PaperRow {
  const char* server;
  const char* path;
  double cost;
};

void run_experiment(const char* name, grnet::TimeOfDay t,
                    const PaperRow (&paper)[3], const char* paper_choice) {
  bench::CaseDb fx{t};
  fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const vra::Vra vra{fx.g.topology, fx.db.full_view(),
                     fx.db.limited_view(bench::kAdmin), {}};
  const auto decision = vra.select_server(fx.g.athens, fx.movie);
  if (!decision) {
    std::cerr << "unexpected: no decision\n";
    std::exit(1);
  }
  const net::Topology& topology = fx.g.topology;

  bench::heading(std::string("Experiment ") + name + " (" +
                 grnet::time_label(t) + ", client at U1)");
  TextTable table{{"Candidate", "our path", "our cost", "paper path",
                   "paper cost"}};
  for (const vra::Candidate& candidate : decision->candidates) {
    for (const PaperRow& row : paper) {
      if (fx.g.city(candidate.server) == row.server) {
        table.add_row({row.server, candidate.path().to_string(topology),
                       TextTable::num(candidate.path().cost, 4), row.path,
                       TextTable::num(row.cost, 4)});
      }
    }
  }
  std::cout << table.render();
  std::cout << "\nVRA decision: " << fx.g.city(decision->server) << " via "
            << decision->path().to_string(topology) << " (cost "
            << TextTable::num(decision->path().cost, 4) << ")"
            << "   [paper: " << paper_choice << "]\n";
}

}  // namespace

int main() {
  // Paper's reported per-candidate values.  Note: it prints candidate
  // paths in the server->client direction (U3,U2,U1); ours run
  // client->server (U1,U2,U3) — same route.
  const PaperRow experiment_c[3] = {
      {"Thessaloniki", "U1,U4", 1.5433},
      {"Xanthi", "U1,U6,U5", 1.274},
      {"Ioannina", "U1,U2,U3", 1.222},
  };
  run_experiment("C", grnet::TimeOfDay::k4pm, experiment_c,
                 "Ioannina via U3,U2,U1 at 1.222");

  const PaperRow experiment_d[3] = {
      {"Thessaloniki", "U1,U4", 1.4824},
      {"Xanthi", "U1,U6,U5", 1.3574},
      {"Ioannina", "U1,U2,U3", 1.236},
  };
  run_experiment("D", grnet::TimeOfDay::k6pm, experiment_d,
                 "Ioannina via U3,U2,U1 at 1.236");
  return 0;
}
