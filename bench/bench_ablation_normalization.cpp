// Ablation: the eq. (4) Normalization Constant.
//
// LV_i = bandwidth / NormalizationConstant weights how strongly a link's
// own traffic (LU = LT * LV) counts against the endpoint load term (NV) in
// the LVN.  The paper only says the constant "approaches 10"; this bench
// sweeps it and shows how the Experiment C decision and the NV/LU balance
// respond.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "vra/vra.h"

using namespace vod;

namespace {

/// Mean share of the LVN contributed by the LU term over all links.
double mean_lu_share(const grnet::CaseStudy& g,
                     const vra::LvnCalculator& calc) {
  double total = 0.0;
  int count = 0;
  const std::vector<double> nv = calc.node_validations();
  for (const LinkId link : g.links_in_paper_order()) {
    const double lu = calc.link_utilization_term(link);
    const double lvn = calc.link_validation_number(link, nv);
    if (lvn > 0.0) {
      total += lu / lvn;
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace

int main() {
  bench::heading("Ablation: eq. (4) normalization constant (Experiment C)");
  std::cout << "4pm statistics; client at Athens; title at Ioannina, "
               "Thessaloniki, Xanthi.\n\n";

  TextTable table{{"NormConst", "LU share of LVN", "chosen server", "path",
                   "cost"}};
  for (const double constant : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    bench::CaseDb fx{grnet::TimeOfDay::k4pm};
    fx.place(fx.g.ioannina);
    fx.place(fx.g.thessaloniki);
    fx.place(fx.g.xanthi);
    vra::ValidationOptions options;
    options.normalization_constant = constant;
    const vra::Vra vra{fx.g.topology, fx.db.full_view(),
                       fx.db.limited_view(bench::kAdmin), options};
    const vra::LvnCalculator calc{fx.g.topology,
                                  fx.db.limited_view(bench::kAdmin), options};
    const auto decision = vra.select_server(fx.g.athens, fx.movie);
    table.add_row({TextTable::num(constant, 0),
                   TextTable::num(mean_lu_share(fx.g, calc), 3),
                   decision ? fx.g.city(decision->server) : "-",
                   decision ? decision->path().to_string(fx.g.topology) : "-",
                   decision ? TextTable::num(decision->path().cost, 3) : "-"});
  }
  std::cout << table.render();
  std::cout << "\nSmall constants let high-bandwidth links' raw traffic "
               "dominate the metric;\nlarge constants reduce the LVN to "
               "pure node load.  The paper's ~10 keeps the\ntwo terms "
               "comparable on 2-18 Mbps links.\n";
  return 0;
}
