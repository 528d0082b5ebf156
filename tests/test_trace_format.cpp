#include "routing/trace_format.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "grnet/grnet.h"
#include "support/weighted_topology.h"
#include "vra/validation.h"

namespace vod::routing {
namespace {

using test::WeightedTopology;

WeightedTopology triangle() {
  WeightedTopology net;
  const NodeId a = net.node("A");
  const NodeId b = net.node("B");
  const NodeId c = net.node("C");
  net.link(a, b, 1.0);
  net.link(b, c, 1.0);
  net.link(a, c, 3.0);
  return net;
}

/// The trace of Dijkstra from `source`, rendered.
std::string render(const WeightedTopology& net, NodeId source) {
  DijkstraTrace trace;
  dijkstra(net.topology, net.weights, source, &trace);
  return format_dijkstra_trace(net.topology, source, trace);
}

TEST(TraceFormat, HeaderListsNonSourceColumns) {
  const std::string out = render(triangle(), NodeId{0});
  EXPECT_NE(out.find("Step"), std::string::npos);
  EXPECT_NE(out.find("Nodes"), std::string::npos);
  EXPECT_NE(out.find("DB"), std::string::npos);
  EXPECT_NE(out.find("DC"), std::string::npos);
  // The source has no distance column.
  EXPECT_EQ(out.find("DA"), std::string::npos);
}

TEST(TraceFormat, OneRowPerStepWithGrowingPermanentSet) {
  const std::string out = render(triangle(), NodeId{0});
  EXPECT_NE(out.find("{A}"), std::string::npos);
  EXPECT_NE(out.find("{A,B}"), std::string::npos);
  EXPECT_NE(out.find("{A,B,C}"), std::string::npos);
}

TEST(TraceFormat, UnreachedPrintsPaperStyleR) {
  WeightedTopology net;
  const NodeId a = net.node("A");
  net.node("B");  // isolated
  const std::string out = render(net, a);
  EXPECT_NE(out.find("R"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(TraceFormat, PathsUsePaperCommaNotation) {
  const std::string out = render(triangle(), NodeId{0});
  EXPECT_NE(out.find("A,B,C"), std::string::npos);  // improved C path
}

TEST(TraceFormat, GrnetExperimentBMatchesPaperCells) {
  // The full Table 5 rendering must contain the paper's key cells.
  const grnet::CaseStudy g = grnet::build_case_study();
  const db::AdminCredential admin{"admin"};
  db::Database database{admin, g.topology};
  grnet::write_table2(database.limited_view(admin), g,
                      grnet::TimeOfDay::k10am);
  std::vector<double> lvn;
  vra::LvnCalculator{g.topology, database.limited_view(admin)}
      .fill_link_weights(lvn);
  DijkstraTrace trace;
  dijkstra(g.topology, lvn, g.patra, &trace);
  const std::string out = format_dijkstra_trace(g.topology, g.patra, trace);
  EXPECT_NE(out.find("U2,U3,U4"), std::string::npos);     // best U4 path
  EXPECT_NE(out.find("U2,U1,U6,U5"), std::string::npos);  // best U5 path
  EXPECT_NE(out.find("{U2,U3}"), std::string::npos);      // step 2 set
  EXPECT_NE(out.find("1.0122"), std::string::npos);       // D4 ~ 1.007
}

}  // namespace
}  // namespace vod::routing
