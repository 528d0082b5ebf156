// Reproduction summary — the harness certifying itself.
//
// Re-validates every headline claim of the reproduction programmatically
// and prints one PASS/FAIL line each, so `bench_output.txt` carries its
// own verdict:
//   * Table 3: all 28 LVN cells within tolerance of the paper
//   * Experiments B, C, D: same winner, same route, cost within 0.02
//   * Experiment A: paper's published Xanthi cost reproduced (0.315) AND
//     the corrected Dijkstra decision (Thessaloniki @ ~0.218) — the
//     documented paper defect
//   * Table 2: the simulated SNMP data path returns the trace exactly
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "net/fluid.h"
#include "snmp/snmp_module.h"
#include "vra/vra.h"

using namespace vod;

namespace {

/// Prints one PASS/FAIL line per claim and counts the failures.
struct Checks {
  int failures = 0;

  void check(bool ok, const std::string& what) {
    std::cout << (ok ? "  PASS  " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  }
};

struct ExperimentSpec {
  const char* name;
  grnet::TimeOfDay at;
  bool client_is_athens;
  bool include_ioannina;
  const char* expected_city;
  double expected_cost;
  double tolerance;
};

void run_experiment(Checks& checks, const ExperimentSpec& spec) {
  bench::CaseDb fx{spec.at};
  if (spec.include_ioannina) fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const vra::Vra vra{fx.g.topology, fx.db.full_view(),
                     fx.db.limited_view(bench::kAdmin), {}};
  const NodeId client = spec.client_is_athens ? fx.g.athens : fx.g.patra;
  const auto decision = vra.select_server(client, fx.movie);
  if (!decision) {
    checks.check(false,
                 std::string("experiment ") + spec.name + ": no decision");
    return;
  }
  const bool winner_ok =
      fx.g.city(decision->server) == spec.expected_city;
  const bool cost_ok =
      std::abs(decision->path.cost - spec.expected_cost) < spec.tolerance;
  checks.check(winner_ok && cost_ok,
               std::string("experiment ") + spec.name + ": " +
                   spec.expected_city + " @ " +
                   TextTable::num(spec.expected_cost, 4) + " (got " +
                   fx.g.city(decision->server) + " @ " +
                   TextTable::num(decision->path.cost, 4) + ")");
}

}  // namespace

int main() {
  bench::heading("Reproduction summary (self-check)");
  Checks checks;

  // --- Table 3: all 28 cells ---
  {
    const grnet::CaseStudy g = grnet::build_case_study();
    int within = 0;
    double worst = 0.0;
    for (const grnet::TimeOfDay t : grnet::kAllTimes) {
      const auto stats = grnet::table2_stats(g, t);
      const vra::LvnCalculator calc{g.topology, stats};
      const std::vector<double> nv = calc.node_validations();
      for (const LinkId link : g.links_in_paper_order()) {
        const double err =
            std::abs(calc.link_validation_number(link, nv) -
                     grnet::table3_expected_lvn(g, link, t));
        worst = std::max(worst, err);
        if (err < 0.01) ++within;
      }
    }
    checks.check(within == 28,
                 "Table 3: 28/28 LVN cells within 0.01 (worst " +
                     TextTable::num(worst, 5) + ")");
  }

  // --- Table 2 data path ---
  {
    const grnet::CaseStudy g = grnet::build_case_study();
    const net::TraceTraffic trace = grnet::table2_trace(g);
    net::FluidNetwork network{g.topology, trace};
    sim::Simulation sim;
    db::Database db{bench::kAdmin};
    for (const net::LinkInfo& info : g.topology.links()) {
      db.register_link(info.id, info.name, info.capacity);
    }
    snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin)};
    double worst = 0.0;
    for (const grnet::TimeOfDay t : grnet::kAllTimes) {
      sim.run_until(grnet::time_of(t));
      snmp.poll_now(sim.now());
      for (const LinkId link : g.links_in_paper_order()) {
        const double reported = db.limited_view(bench::kAdmin)
                                    .link(link)
                                    .used_bandwidth.value();
        worst = std::max(
            worst, std::abs(reported -
                            grnet::table2_sample(g, link, t).used.value()));
      }
    }
    checks.check(worst < 1e-9,
                 "Table 2: trace -> network -> SNMP -> DB exact (worst " +
                     TextTable::num(worst, 9) + " Mbps)");
  }

  // --- Experiments ---
  // A: the paper's OWN decision (Xanthi @ 0.315) must appear among the
  // candidates, while correct Dijkstra flips the winner.
  {
    bench::CaseDb fx{grnet::TimeOfDay::k8am};
    fx.place(fx.g.thessaloniki);
    fx.place(fx.g.xanthi);
    const vra::Vra vra{fx.g.topology, fx.db.full_view(),
                       fx.db.limited_view(bench::kAdmin), {}};
    const auto decision = vra.select_server(fx.g.patra, fx.movie);
    bool xanthi_cost_ok = false;
    for (const vra::Candidate& candidate : decision->candidates) {
      if (candidate.server == fx.g.xanthi) {
        xanthi_cost_ok = std::abs(candidate.path.cost - 0.315) < 0.005;
      }
    }
    checks.check(
        xanthi_cost_ok,
        "experiment A: paper's Xanthi candidate cost 0.315 reproduced");
    checks.check(decision->server == fx.g.thessaloniki &&
                     std::abs(decision->path.cost - 0.218) < 0.005,
                 "experiment A: corrected Dijkstra picks Thessaloniki @ "
                 "~0.218 (documented paper defect)");
  }
  run_experiment(checks, {"B", grnet::TimeOfDay::k10am, false, false,
                          "Thessaloniki", 1.007, 0.02});
  run_experiment(checks, {"C", grnet::TimeOfDay::k4pm, true, true,
                          "Ioannina", 1.222, 0.02});
  run_experiment(checks, {"D", grnet::TimeOfDay::k6pm, true, true,
                          "Ioannina", 1.236, 0.02});

  const int failures = checks.failures;
  std::cout << "\n"
            << (failures == 0 ? "ALL CHECKS PASSED"
                              : std::to_string(failures) + " CHECK(S) FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
