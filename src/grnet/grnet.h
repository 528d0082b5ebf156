// The paper's case study as data: the Greek Research & Technology Network
// backbone of Figure 6, the SNMP measurements of Table 2, and the published
// LVN values of Table 3 (used as expected values by tests and benches).
//
// Node naming follows the paper's experiment tables:
//   U1 Athens, U2 Patra, U3 Ioannina, U4 Thessaloniki, U5 Xanthi,
//   U6 Heraklio
// Links (paper order): Patra-Athens 2 Mbps, Patra-Ioannina 2, Thessaloniki-
// Athens 18, Thessaloniki-Xanthi 2, Thessaloniki-Ioannina 2, Athens-
// Heraklio 18, Xanthi-Heraklio 2.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "db/database.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace vod::grnet {

/// The four measurement instants of Table 2.
enum class TimeOfDay { k8am = 0, k10am = 1, k4pm = 2, k6pm = 3 };

inline constexpr std::array<TimeOfDay, 4> kAllTimes{
    TimeOfDay::k8am, TimeOfDay::k10am, TimeOfDay::k4pm, TimeOfDay::k6pm};

/// Hour-of-day of a measurement instant (8, 10, 16, 18).
double hour_of(TimeOfDay t);
/// The instant as simulation time (seconds from midnight).
SimTime time_of(TimeOfDay t);
/// "8am", "10am", "4pm", "6pm".
const char* time_label(TimeOfDay t);

/// The GRNET backbone with named handles to every node and link.
struct CaseStudy {
  net::Topology topology;

  NodeId athens;        // U1
  NodeId patra;         // U2
  NodeId ioannina;      // U3
  NodeId thessaloniki;  // U4
  NodeId xanthi;        // U5
  NodeId heraklio;      // U6

  LinkId patra_athens;
  LinkId patra_ioannina;
  LinkId thess_athens;
  LinkId thess_xanthi;
  LinkId thess_ioannina;
  LinkId athens_heraklio;
  LinkId xanthi_heraklio;

  /// The links in the row order of Tables 2 and 3.
  [[nodiscard]] std::vector<LinkId> links_in_paper_order() const;

  /// City name of a node ("Athens", ...); topology names are "U1".."U6".
  [[nodiscard]] std::string city(NodeId node) const;
};

/// Builds the Figure 6 topology.
CaseStudy build_case_study();

/// One cell of Table 2: the SNMP counters of a link at an instant.
struct LinkSample {
  Mbps used;           // traffic_in + traffic_out
  double utilization;  // the printed percentage, as a fraction
};

/// The Table 2 measurement for `link` at `t`.
LinkSample table2_sample(const CaseStudy& grnet, LinkId link, TimeOfDay t);

/// Writes the Table 2 column for instant `t` into a database built from
/// grnet.topology, stamped at time_of(t), in the tables' row order —
/// exactly what the limited-access database held when the paper ran its
/// four experiments.
void write_table2(db::LimitedAccessView view, const CaseStudy& grnet,
                  TimeOfDay t);

/// The paper's published Table 3 LVN for `link` at `t` (expected values for
/// verification; our computed LVNs must match within rounding).
double table3_expected_lvn(const CaseStudy& grnet, LinkId link, TimeOfDay t);

/// Table 2 as a day-long background-traffic trace (step samples at the four
/// instants), for driving the network simulator through the paper's day.
net::TraceTraffic table2_trace(const CaseStudy& grnet);

}  // namespace vod::grnet
