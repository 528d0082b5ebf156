#include "vra/validation.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "grnet/grnet.h"
#include "routing/dijkstra.h"

namespace vod::vra {
namespace {

const db::AdminCredential kAdmin{"admin"};

/// Writes SNMP-style statistics for `link`: `used` Mbps at `utilization`.
void write(db::LimitedAccessView stats, LinkId link, double used,
           double utilization) {
  stats.update_link_stats(link, Mbps{used}, utilization, SimTime{0.0});
}

/// Hand-checkable two-node fixture: one 2 Mbps link at 50% (1 Mbps used).
struct TwoNode {
  net::Topology topo;
  NodeId a = topo.add_node("a");
  NodeId b = topo.add_node("b");
  LinkId ab = topo.add_link(a, b, Mbps{2.0});
  db::Database database{kAdmin, topo};

  TwoNode() { write(stats(), ab, 1.0, 0.5); }

  db::LimitedAccessView stats() { return database.limited_view(kAdmin); }
};

TEST(LvnCalculator, NodeValidationIsUsedOverTotal) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats()};
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
  db::Database database{kAdmin, topo};
  write(database.limited_view(kAdmin), ab, 1.0, 0.5);
  write(database.limited_view(kAdmin), ac, 9.0, 0.5);
  LvnCalculator calc{topo, database.limited_view(kAdmin)};
  // a: (1+9)/(2+18) = 0.5; b: 1/2; c: 9/18.
  const std::vector<double> nv = calc.node_validations();
  EXPECT_DOUBLE_EQ(nv[a.value()], 0.5);
  EXPECT_DOUBLE_EQ(nv[b.value()], 0.5);
  EXPECT_DOUBLE_EQ(nv[c.value()], 0.5);
}

TEST(LvnCalculator, IsolatedNodeHasZeroValidation) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  db::Database database{kAdmin, topo};
  LvnCalculator calc{topo, database.limited_view(kAdmin)};
  EXPECT_DOUBLE_EQ(calc.node_validations()[a.value()], 0.0);
}

TEST(LvnCalculator, LinkValueIsBandwidthOverNormalization) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats()};
  EXPECT_DOUBLE_EQ(calc.link_value(fx.ab), 0.2);  // 2 / 10
}

TEST(LvnCalculator, NormalizationConstantConfigurable) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats(),
                     ValidationOptions{.normalization_constant = 4.0}};
  EXPECT_DOUBLE_EQ(calc.link_value(fx.ab), 0.5);  // 2 / 4
}

TEST(LvnCalculator, LinkUtilizationTermIsTrafficTimesValue) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats()};
  EXPECT_DOUBLE_EQ(calc.link_utilization_term(fx.ab), 0.5 * 0.2);
}

TEST(LvnCalculator, LvnIsMaxNodeValidationPlusUtilizationTerm) {
  TwoNode fx;
  LvnCalculator calc{fx.topo, fx.stats()};
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
  db::Database database{kAdmin, topo};
  write(database.limited_view(kAdmin), ab, 0.2, 0.1);
  write(database.limited_view(kAdmin), bc, 1.8, 0.9);
  LvnCalculator calc{topo, database.limited_view(kAdmin)};
  // NV(a) = 0.1, NV(b) = 2.0/4 = 0.5; LVN(ab) = 0.5 + 0.1*0.2.
  EXPECT_DOUBLE_EQ(calc.link_validation_number(ab, calc.node_validations()),
                   0.5 + 0.02);
}

TEST(LvnCalculator, ValidatesOptions) {
  TwoNode fx;
  EXPECT_THROW(
      LvnCalculator(fx.topo, fx.stats(),
                    ValidationOptions{.normalization_constant = 0.0}),
      std::invalid_argument);
}

TEST(LvnCalculator, LinkWeightsMirrorTopology) {
  TwoNode fx;
  const LvnCalculator calc{fx.topo, fx.stats()};
  std::vector<double> weights{7.0, 7.0, 7.0};  // refilled, not appended
  calc.fill_link_weights(weights);
  EXPECT_EQ(weights, std::vector<double>{0.6});
  // A link the database reports down is not routable.
  fx.stats().set_link_online(fx.ab, false);
  calc.fill_link_weights(weights);
  EXPECT_EQ(weights, std::vector<double>{routing::kNotRoutable});
}

TEST(LvnCalculator, ReadsLimitedAccessView) {
  net::Topology topology;
  const NodeId a = topology.add_node("a");
  topology.add_link(a, topology.add_node("b"), Mbps{2.0});
  db::Database database{kAdmin, topology};
  write(database.limited_view(kAdmin), LinkId{0}, 1.82, 0.91);
  const LvnCalculator calc{topology, database.limited_view(kAdmin)};
  // UBW / LBW with LBW the topology's capacity; LT the SNMP utilization.
  EXPECT_DOUBLE_EQ(calc.node_validations()[a.value()], 1.82 / 2.0);
  EXPECT_DOUBLE_EQ(calc.link_value(LinkId{0}), 0.2);
  EXPECT_DOUBLE_EQ(calc.link_utilization_term(LinkId{0}), 0.91 * 0.2);
  // A later write is what the next read sees.
  write(database.limited_view(kAdmin), LinkId{0}, 0.2, 0.1);
  EXPECT_DOUBLE_EQ(calc.link_utilization_term(LinkId{0}), 0.1 * 0.2);
}

// --- Table 3 reproduction: all 7 links x 4 instants ---

class Table3Reproduction
    : public ::testing::TestWithParam<grnet::TimeOfDay> {};

TEST_P(Table3Reproduction, ComputedLvnsMatchPaperWithinRounding) {
  const grnet::CaseStudy grnet = grnet::build_case_study();
  db::Database database{kAdmin, grnet.topology};
  grnet::write_table2(database.limited_view(kAdmin), grnet, GetParam());
  const LvnCalculator calc{grnet.topology, database.limited_view(kAdmin)};
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
  db::Database database{kAdmin, grnet.topology};
  grnet::write_table2(database.limited_view(kAdmin), grnet, GetParam());
  const LvnCalculator calc{grnet.topology, database.limited_view(kAdmin)};
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
