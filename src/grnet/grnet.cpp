#include "grnet/grnet.h"

#include <stdexcept>

#include "common/contract.h"

namespace vod::grnet {

double hour_of(TimeOfDay t) {
  switch (t) {
    case TimeOfDay::k8am:
      return 8.0;
    case TimeOfDay::k10am:
      return 10.0;
    case TimeOfDay::k4pm:
      return 16.0;
    case TimeOfDay::k6pm:
      return 18.0;
  }
  fail_require("hour_of: bad TimeOfDay");
}

SimTime time_of(TimeOfDay t) { return from_hours(hour_of(t)); }

const char* time_label(TimeOfDay t) {
  switch (t) {
    case TimeOfDay::k8am:
      return "8am";
    case TimeOfDay::k10am:
      return "10am";
    case TimeOfDay::k4pm:
      return "4pm";
    case TimeOfDay::k6pm:
      return "6pm";
  }
  fail_require("time_label: bad TimeOfDay");
}

CaseStudy build_case_study() {
  CaseStudy grnet;
  net::Topology& topo = grnet.topology;
  grnet.athens = topo.add_node("U1");
  grnet.patra = topo.add_node("U2");
  grnet.ioannina = topo.add_node("U3");
  grnet.thessaloniki = topo.add_node("U4");
  grnet.xanthi = topo.add_node("U5");
  grnet.heraklio = topo.add_node("U6");

  grnet.patra_athens =
      topo.add_link(grnet.patra, grnet.athens, Mbps{2.0}, "Patra-Athens");
  grnet.patra_ioannina = topo.add_link(grnet.patra, grnet.ioannina,
                                       Mbps{2.0}, "Patra-Ioannina");
  grnet.thess_athens = topo.add_link(grnet.thessaloniki, grnet.athens,
                                     Mbps{18.0}, "Thessaloniki-Athens");
  grnet.thess_xanthi = topo.add_link(grnet.thessaloniki, grnet.xanthi,
                                     Mbps{2.0}, "Thessaloniki-Xanthi");
  grnet.thess_ioannina = topo.add_link(grnet.thessaloniki, grnet.ioannina,
                                       Mbps{2.0}, "Thessaloniki-Ioannina");
  grnet.athens_heraklio = topo.add_link(grnet.athens, grnet.heraklio,
                                        Mbps{18.0}, "Athens-Heraklio");
  grnet.xanthi_heraklio = topo.add_link(grnet.xanthi, grnet.heraklio,
                                        Mbps{2.0}, "Xanthi-Heraklio");
  return grnet;
}

std::vector<LinkId> CaseStudy::links_in_paper_order() const {
  return {patra_athens,   patra_ioannina, thess_athens,    thess_xanthi,
          thess_ioannina, athens_heraklio, xanthi_heraklio};
}

std::string CaseStudy::city(NodeId node) const {
  if (node == athens) return "Athens";
  if (node == patra) return "Patra";
  if (node == ioannina) return "Ioannina";
  if (node == thessaloniki) return "Thessaloniki";
  if (node == xanthi) return "Xanthi";
  if (node == heraklio) return "Heraklio";
  fail_require("CaseStudy::city: unknown node");
}

namespace {

// Table 2, in paper row order; columns 8am, 10am, 4pm, 6pm.
// Used bandwidth is in Mbps ("100 bits" = 100 bit/s = 1e-4 Mbps);
// utilization is the printed percentage as a fraction.
struct Table2Row {
  double used[4];
  double util[4];
};

constexpr Table2Row kTable2[7] = {
    // Patra-Athens (2 Mbps)
    {{0.2, 1.82, 1.82, 1.82}, {0.10, 0.91, 0.91, 0.91}},
    // Patra-Ioannina (2 Mbps)
    {{1.0e-4, 1.7e-4, 0.2, 0.24}, {5.0e-5, 8.5e-5, 0.10, 0.12}},
    // Thessaloniki-Athens (18 Mbps)
    {{1.7, 7.0, 9.8, 9.6}, {0.094, 0.388, 0.544, 0.533}},
    // Thessaloniki-Xanthi (2 Mbps)
    {{0.48, 0.52, 0.75, 0.60}, {0.24, 0.26, 0.375, 0.30}},
    // Thessaloniki-Ioannina (2 Mbps)
    {{0.30, 1.48, 1.86, 1.30}, {0.15, 0.74, 0.93, 0.65}},
    // Athens-Heraklio (18 Mbps)
    {{0.5, 2.5, 5.5, 6.0}, {0.027, 0.138, 0.305, 0.333}},
    // Xanthi-Heraklio (2 Mbps)
    {{1.0e-4, 1.5e-4, 2.0e-4, 1.5e-4}, {5.0e-5, 5.0e-5, 1.0e-4, 7.5e-5}},
};

// Table 3, the paper's published LVN values (same layout).
constexpr double kTable3[7][4] = {
    {0.083, 0.632, 0.687, 0.697},          // Patra-Athens
    {0.07501, 0.450017, 0.535, 0.539},     // Patra-Ioannina
    {0.2819, 1.1075, 1.5433, 1.4824},      // Thessaloniki-Athens
    {0.168, 0.4611, 0.6391, 0.583},        // Thessaloniki-Xanthi
    {0.1427, 0.5571, 0.7501, 0.653},       // Thessaloniki-Ioannina
    {0.1116, 0.5462, 0.999, 1.0574},       // Athens-Heraklio
    {0.1201, 0.13001, 0.275015, 0.3},      // Xanthi-Heraklio
};

std::size_t row_of(const CaseStudy& grnet, LinkId link) {
  const auto order = grnet.links_in_paper_order();
  for (std::size_t row = 0; row < order.size(); ++row) {
    if (order[row] == link) return row;
  }
  fail_require("grnet: link not part of the case study");
}

}  // namespace

LinkSample table2_sample(const CaseStudy& grnet, LinkId link, TimeOfDay t) {
  const std::size_t row = row_of(grnet, link);
  const auto column = static_cast<std::size_t>(t);
  return LinkSample{Mbps{kTable2[row].used[column]},
                    kTable2[row].util[column]};
}

void write_table2(db::LimitedAccessView view, const CaseStudy& grnet,
                  TimeOfDay t) {
  for (const LinkId link : grnet.links_in_paper_order()) {
    const LinkSample sample = table2_sample(grnet, link, t);
    view.update_link_stats(link, sample.used, sample.utilization, time_of(t));
  }
}

double table3_expected_lvn(const CaseStudy& grnet, LinkId link,
                           TimeOfDay t) {
  return kTable3[row_of(grnet, link)][static_cast<std::size_t>(t)];
}

net::TraceTraffic table2_trace(const CaseStudy& grnet) {
  net::TraceTraffic trace;
  for (const LinkId link : grnet.links_in_paper_order()) {
    for (const TimeOfDay t : kAllTimes) {
      trace.add_sample(link, time_of(t), table2_sample(grnet, link, t).used);
    }
  }
  return trace;
}

}  // namespace vod::grnet
