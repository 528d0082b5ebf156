// The paper's case study, end to end: the GRNET backbone of Figure 6,
// the Table 2 SNMP measurements as background traffic, and the four
// experiments (A-D) decided live by the VRA.
//
// Build & run:  ./build/examples/grnet_case_study
#include <iostream>

#include "common/table.h"
#include "grnet/grnet.h"
#include "vra/explain.h"
#include "db/database.h"
#include "vra/vra.h"

using namespace vod;

namespace {

const db::AdminCredential kAdmin{"case-study-admin"};

struct Experiment {
  const char* name;
  grnet::TimeOfDay at;
  NodeId client;
  std::vector<NodeId> holders;
};

}  // namespace

int main() {
  const grnet::CaseStudy g = grnet::build_case_study();

  const Experiment experiments[] = {
      {"A", grnet::TimeOfDay::k8am, g.patra, {g.thessaloniki, g.xanthi}},
      {"B", grnet::TimeOfDay::k10am, g.patra, {g.thessaloniki, g.xanthi}},
      {"C", grnet::TimeOfDay::k4pm, g.athens,
       {g.ioannina, g.thessaloniki, g.xanthi}},
      {"D", grnet::TimeOfDay::k6pm, g.athens,
       {g.ioannina, g.thessaloniki, g.xanthi}},
  };

  for (const Experiment& experiment : experiments) {
    // A fresh database snapshot per instant, as the limited-access module
    // would hold after the SNMP refresh at that time of day.
    db::Database db{kAdmin, g.topology};
    const VideoId movie =
        db.register_video("case-study title", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    grnet::write_table2(view, g, experiment.at);
    for (const NodeId holder : experiment.holders) {
      view.add_title(holder, movie);
    }

    const vra::Vra vra{g.topology, db.full_view(), db.limited_view(kAdmin),
                       {}};
    const auto decision = vra.select_server(experiment.client, movie);

    std::cout << "Experiment " << experiment.name << " ("
              << grnet::time_label(experiment.at) << ", client at "
              << g.city(experiment.client) << "):\n";
    if (!decision) {
      std::cout << "  no server available!\n";
      continue;
    }
    for (const vra::Candidate& candidate : decision->candidates) {
      std::cout << "  candidate " << g.city(candidate.server) << ": "
                << candidate.path().to_string(g.topology) << "  cost "
                << TextTable::num(candidate.path().cost, 4) << "\n";
    }
    std::cout << "  => download from " << g.city(decision->server)
              << " (cost " << TextTable::num(decision->path().cost, 4)
              << ")\n\n";
  }

  std::cout << "Note: Experiment A differs from the paper by design — its "
               "Table 4 misses the\nU2,U3,U4 relaxation; see DESIGN.md and "
               "EXPERIMENTS.md.\n";

  // The arithmetic behind the 8am weights, spelled out (eqs. 1-4).
  db::Database db{kAdmin, g.topology};
  grnet::write_table2(db.limited_view(kAdmin), g, grnet::TimeOfDay::k8am);
  const vra::LvnCalculator calc{g.topology, db.limited_view(kAdmin)};
  std::cout << "\n8am link validation, term by term:\n"
            << vra::format_validation_table(g.topology, calc);
  return 0;
}
