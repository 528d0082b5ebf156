// Regenerates Table 3 — "The Link Validation Numbers".
//
// Runs equations (1)-(4) over the Table 2 statistics and prints the
// computed LVN for every link at every instant side by side with the
// paper's published value and the absolute error.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "vra/validation.h"

using namespace vod;

int main() {
  bench::heading("Table 3: Link Validation Numbers (computed vs paper)");

  const grnet::CaseStudy g = grnet::build_case_study();

  TextTable table{{"Link", "8am", "10am", "4pm", "6pm"}};
  TextTable errors{{"Link", "8am", "10am", "4pm", "6pm"}};
  double worst = 0.0;
  int exact4 = 0;
  int cells = 0;

  const auto links = g.links_in_paper_order();
  std::vector<std::vector<std::string>> computed_rows(links.size());
  std::vector<std::vector<std::string>> error_rows(links.size());
  for (std::size_t row = 0; row < links.size(); ++row) {
    computed_rows[row].push_back(g.topology.link(links[row]).name);
    error_rows[row].push_back(g.topology.link(links[row]).name);
  }

  for (const grnet::TimeOfDay t : grnet::kAllTimes) {
    const auto stats = grnet::table2_stats(g, t);
    const vra::LvnCalculator calc{g.topology, stats};
    const std::vector<double> nv = calc.node_validations();
    for (std::size_t row = 0; row < links.size(); ++row) {
      const double lvn = calc.link_validation_number(links[row], nv);
      const double paper = grnet::table3_expected_lvn(g, links[row], t);
      const double err = std::abs(lvn - paper);
      worst = std::max(worst, err);
      ++cells;
      if (err < 5e-4) ++exact4;
      computed_rows[row].push_back(TextTable::num(lvn, 5) + " (" +
                                   TextTable::num(paper, 5) + ")");
      error_rows[row].push_back(TextTable::num(err, 5));
    }
  }
  for (std::size_t row = 0; row < links.size(); ++row) {
    table.add_row(computed_rows[row]);
    errors.add_row(error_rows[row]);
  }

  std::cout << "computed (paper):\n" << table.render();
  std::cout << "\nabsolute error per cell:\n" << errors.render();
  std::cout << "\n" << exact4 << "/" << cells
            << " cells match the paper to <5e-4; max error "
            << TextTable::num(worst, 5)
            << " (the paper rounds intermediate node validations)\n";
  return 0;
}
