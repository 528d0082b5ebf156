// Regenerates Table 2 — "The Network status".
//
// The GRNET backbone is simulated for a full day with the paper's SNMP
// counters as the background-traffic trace; the SNMP statistics module
// polls every 90 s into the limited-access database, and the table is read
// back from the database at the paper's four instants, exactly the data
// path the deployed service used.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/table.h"
#include "net/fluid.h"
#include "sim/simulation.h"
#include "snmp/snmp_module.h"

using namespace vod;

int main() {
  bench::heading("Table 2: The Network status (regenerated)");

  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  net::FluidNetwork network{g.topology, trace};
  sim::Simulation sim;

  db::Database db{bench::kAdmin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  // Drive the simulated day, snapshotting the database at each instant.
  struct Snapshot {
    double used[7];
    double util[7];
  };
  Snapshot snapshots[4];
  for (const grnet::TimeOfDay t : grnet::kAllTimes) {
    sim.run_until(grnet::time_of(t));
    snmp.poll_now(grnet::time_of(t));
    const auto view = db.limited_view(bench::kAdmin);
    const auto links = g.links_in_paper_order();
    auto& snap = snapshots[static_cast<int>(t)];
    for (std::size_t row = 0; row < links.size(); ++row) {
      const db::LinkRecord& record = view.link(links[row]);
      snap.used[row] = record.used_bandwidth.value();
      snap.util[row] = record.utilization;
    }
  }

  TextTable table{{"Link", "8am", "10am", "4pm", "6pm"}};
  const auto links = g.links_in_paper_order();
  for (std::size_t row = 0; row < links.size(); ++row) {
    const net::LinkInfo& info = g.topology.link(links[row]);
    std::vector<std::string> cells{
        info.name + " (" + TextTable::num(info.capacity.value(), 0) +
        "Mb)"};
    for (int t = 0; t < 4; ++t) {
      std::ostringstream cell;
      cell << TextTable::num(snapshots[t].used[row], 4) << " Mbps / "
           << TextTable::num(snapshots[t].util[row] * 100.0, 2) << "%";
      cells.push_back(cell.str());
    }
    table.add_row(cells);
  }
  std::cout << table.render();

  // Cross-check against the paper's printed cells.
  double worst = 0.0;
  for (const grnet::TimeOfDay t : grnet::kAllTimes) {
    for (std::size_t row = 0; row < links.size(); ++row) {
      const auto sample = grnet::table2_sample(g, links[row], t);
      worst = std::max(worst,
                       std::abs(snapshots[static_cast<int>(t)].used[row] -
                                sample.used.value()));
    }
  }
  std::cout << "\nMax |simulated - paper| used bandwidth: "
            << TextTable::num(worst, 6) << " Mbps"
            << (worst < 1e-6 ? "  [exact]" : "") << "\n";
  std::cout << "SNMP polls during the simulated day: " << snmp.poll_count()
            << " (90 s interval)\n";
  return 0;
}
