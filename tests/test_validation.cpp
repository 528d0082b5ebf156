#include "vra/validation.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "grnet/grnet.h"

namespace vod::vra {
namespace {

/// Hand-checkable two-node fixture: one 2 Mbps link at 50% (1 Mbps used).
struct TwoNode {
  net::Topology topo;
  NodeId a, b;
  LinkId ab;
  MapLinkStatsProvider stats;

  TwoNode() {
    a = topo.add_node("a");
    b = topo.add_node("b");
    ab = topo.add_link(a, b, Mbps{2.0});
    stats.set(ab, LinkStats{Mbps{1.0}, Mbps{2.0}, 0.5});
  }
};

TEST(LvnCalculator, NodeValidationIsUsedOverTotal) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats};
  // Eq. 2: both endpoints see the single link: 1/2.
  const std::vector<double> nv = calc.node_validations();
  EXPECT_DOUBLE_EQ(nv[fx.a.value()], 0.5);
  EXPECT_DOUBLE_EQ(nv[fx.b.value()], 0.5);
}

TEST(LvnCalculator, NodeValidationSumsAdjacentLinks) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId ab = topo.add_link(a, b, Mbps{2.0});
  const LinkId ac = topo.add_link(a, c, Mbps{18.0});
  MapLinkStatsProvider stats;
  stats.set(ab, LinkStats{Mbps{1.0}, Mbps{2.0}, 0.5});
  stats.set(ac, LinkStats{Mbps{9.0}, Mbps{18.0}, 0.5});
  LvnCalculator calc{topo, stats};
  // a: (1+9)/(2+18) = 0.5; b: 1/2; c: 9/18.
  const std::vector<double> nv = calc.node_validations();
  EXPECT_DOUBLE_EQ(nv[a.value()], 0.5);
  EXPECT_DOUBLE_EQ(nv[b.value()], 0.5);
  EXPECT_DOUBLE_EQ(nv[c.value()], 0.5);
}

TEST(LvnCalculator, IsolatedNodeHasZeroValidation) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  MapLinkStatsProvider stats;
  LvnCalculator calc{topo, stats};
  EXPECT_DOUBLE_EQ(calc.node_validations()[a.value()], 0.0);
}

TEST(LvnCalculator, LinkValueIsBandwidthOverNormalization) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats};
  EXPECT_DOUBLE_EQ(calc.link_value(fx.ab), 0.2);  // 2 / 10
}

TEST(LvnCalculator, NormalizationConstantConfigurable) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats,
                     ValidationOptions{.normalization_constant = 4.0}};
  EXPECT_DOUBLE_EQ(calc.link_value(fx.ab), 0.5);  // 2 / 4
}

TEST(LvnCalculator, LinkUtilizationTermIsTrafficTimesValue) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats};
  EXPECT_DOUBLE_EQ(calc.link_utilization_term(fx.ab), 0.5 * 0.2);
}

TEST(LvnCalculator, LvnIsMaxNodeValidationPlusUtilizationTerm) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats};
  EXPECT_DOUBLE_EQ(
      calc.link_validation_number(fx.ab, calc.node_validations()), 0.5 + 0.1);
}

TEST(LvnCalculator, LvnTakesWorseEndpoint) {
  // Asymmetric: node b has a second, heavily loaded link.
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId ab = topo.add_link(a, b, Mbps{2.0});
  const LinkId bc = topo.add_link(b, c, Mbps{2.0});
  MapLinkStatsProvider stats;
  stats.set(ab, LinkStats{Mbps{0.2}, Mbps{2.0}, 0.1});
  stats.set(bc, LinkStats{Mbps{1.8}, Mbps{2.0}, 0.9});
  LvnCalculator calc{topo, stats};
  // NV(a) = 0.1, NV(b) = 2.0/4 = 0.5; LVN(ab) = 0.5 + 0.1*0.2.
  EXPECT_DOUBLE_EQ(calc.link_validation_number(ab, calc.node_validations()),
                   0.5 + 0.02);
}

TEST(LvnCalculator, ValidatesOptions) {
  TwoNode fx;
  EXPECT_THROW(
      LvnCalculator(fx.topo, fx.stats,
                    ValidationOptions{.normalization_constant = 0.0}),
      std::invalid_argument);
}

TEST(LvnCalculator, BuildWeightedGraphMirrorsTopology) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats};
  const routing::Graph graph = calc.build_weighted_graph();
  EXPECT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.node_name(fx.a), "a");
  EXPECT_DOUBLE_EQ(*graph.edge_weight(fx.ab), 0.6);
}

TEST(MapLinkStatsProvider, UnknownLinkThrows) {
  MapLinkStatsProvider provider;
  EXPECT_THROW((void)provider.stats(LinkId{0}), std::out_of_range);
}

TEST(MapLinkStatsProvider, RejectsNonPositiveTotal) {
  MapLinkStatsProvider provider;
  EXPECT_THROW(
      provider.set(LinkId{0}, LinkStats{Mbps{0.0}, Mbps{0.0}, 0.0}),
      std::invalid_argument);
}

TEST(DbLinkStatsProvider, ReadsFromLimitedView) {
  db::Database database{db::AdminCredential{"s"}};
  database.register_link(LinkId{0}, "l", Mbps{2.0});
  auto view = database.limited_view(db::AdminCredential{"s"});
  view.update_link_stats(LinkId{0}, Mbps{1.82}, 0.91, SimTime{0.0});
  DbLinkStatsProvider provider{view};
  const LinkStats stats = provider.stats(LinkId{0});
  EXPECT_EQ(stats.used, Mbps{1.82});
  EXPECT_EQ(stats.total, Mbps{2.0});
  EXPECT_DOUBLE_EQ(stats.traffic_fraction, 0.91);
}

// --- Table 3 reproduction: all 7 links x 4 instants ---

class Table3Reproduction
    : public ::testing::TestWithParam<grnet::TimeOfDay> {};

TEST_P(Table3Reproduction, ComputedLvnsMatchPaperWithinRounding) {
  const grnet::CaseStudy grnet = grnet::build_case_study();
  const auto stats = grnet::table2_stats(grnet, GetParam());
  const LvnCalculator calc{grnet.topology, stats};
  const std::vector<double> nv = calc.node_validations();
  for (const LinkId link : grnet.links_in_paper_order()) {
    const double computed = calc.link_validation_number(link, nv);
    const double published =
        grnet::table3_expected_lvn(grnet, link, GetParam());
    // The paper rounds intermediate values; 0.01 absolute covers every
    // cell (most match to 4 decimals).
    EXPECT_NEAR(computed, published, 0.01)
        << grnet.topology.link(link).name << " at "
        << grnet::time_label(GetParam());
  }
}

TEST_P(Table3Reproduction, MostCellsMatchToFourDecimals) {
  // The majority of Table 3 cells reproduce to 5e-4; count them to catch
  // regressions that stay inside the loose tolerance above.
  const grnet::CaseStudy grnet = grnet::build_case_study();
  const auto stats = grnet::table2_stats(grnet, GetParam());
  const LvnCalculator calc{grnet.topology, stats};
  const std::vector<double> nv = calc.node_validations();
  int tight = 0;
  for (const LinkId link : grnet.links_in_paper_order()) {
    const double computed = calc.link_validation_number(link, nv);
    const double published =
        grnet::table3_expected_lvn(grnet, link, GetParam());
    if (std::abs(computed - published) < 5e-4) ++tight;
  }
  EXPECT_GE(tight, 5) << "at " << grnet::time_label(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllTimes, Table3Reproduction,
                         ::testing::ValuesIn(grnet::kAllTimes));

}  // namespace
}  // namespace vod::vra
