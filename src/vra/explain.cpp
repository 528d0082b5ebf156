#include "vra/explain.h"

#include <vector>

#include "common/table.h"

namespace vod::vra {

std::string format_validation_table(const net::Topology& topology,
                                    const LvnCalculator& calculator) {
  TextTable table{{"Link", "NV(a)", "NV(b)", "LT", "LV", "LU = LT*LV",
                   "LVN"}};
  const std::vector<double> nv = calculator.node_validations();
  for (const net::LinkInfo& info : topology.links()) {
    const double nv_a = nv[info.a.value()];
    const double nv_b = nv[info.b.value()];
    const double lv = calculator.link_value(info.id);
    const double lu = calculator.link_utilization_term(info.id);
    const double lt = lv > 0.0 ? lu / lv : 0.0;
    table.add_row({info.name, TextTable::num(nv_a, 4),
                   TextTable::num(nv_b, 4), TextTable::num(lt, 4),
                   TextTable::num(lv, 4), TextTable::num(lu, 4),
                   TextTable::num(
                       calculator.link_validation_number(info.id, nv), 4)});
  }
  return table.render();
}

}  // namespace vod::vra
