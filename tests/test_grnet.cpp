#include "grnet/grnet.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::grnet {
namespace {

TEST(CaseStudy, SixNodesSevenLinks) {
  const CaseStudy grnet = build_case_study();
  EXPECT_EQ(grnet.topology.node_count(), 6u);
  EXPECT_EQ(grnet.topology.link_count(), 7u);
}

TEST(CaseStudy, NodeNamesFollowPaperNumbering) {
  const CaseStudy grnet = build_case_study();
  EXPECT_EQ(grnet.topology.node_name(grnet.athens), "U1");
  EXPECT_EQ(grnet.topology.node_name(grnet.patra), "U2");
  EXPECT_EQ(grnet.topology.node_name(grnet.ioannina), "U3");
  EXPECT_EQ(grnet.topology.node_name(grnet.thessaloniki), "U4");
  EXPECT_EQ(grnet.topology.node_name(grnet.xanthi), "U5");
  EXPECT_EQ(grnet.topology.node_name(grnet.heraklio), "U6");
}

TEST(CaseStudy, CityNames) {
  const CaseStudy grnet = build_case_study();
  EXPECT_EQ(grnet.city(grnet.athens), "Athens");
  EXPECT_EQ(grnet.city(grnet.heraklio), "Heraklio");
  EXPECT_THROW(grnet.city(NodeId{99}), std::invalid_argument);
}

TEST(CaseStudy, LinkCapacitiesMatchFigure6) {
  const CaseStudy grnet = build_case_study();
  EXPECT_EQ(grnet.topology.link(grnet.patra_athens).capacity, Mbps{2.0});
  EXPECT_EQ(grnet.topology.link(grnet.patra_ioannina).capacity, Mbps{2.0});
  EXPECT_EQ(grnet.topology.link(grnet.thess_athens).capacity, Mbps{18.0});
  EXPECT_EQ(grnet.topology.link(grnet.thess_xanthi).capacity, Mbps{2.0});
  EXPECT_EQ(grnet.topology.link(grnet.thess_ioannina).capacity, Mbps{2.0});
  EXPECT_EQ(grnet.topology.link(grnet.athens_heraklio).capacity,
            Mbps{18.0});
  EXPECT_EQ(grnet.topology.link(grnet.xanthi_heraklio).capacity, Mbps{2.0});
}

TEST(CaseStudy, LinkEndpointsMatchFigure6) {
  const CaseStudy grnet = build_case_study();
  EXPECT_EQ(grnet.topology.find_link(grnet.patra, grnet.athens),
            grnet.patra_athens);
  EXPECT_EQ(grnet.topology.find_link(grnet.thessaloniki, grnet.ioannina),
            grnet.thess_ioannina);
  EXPECT_EQ(grnet.topology.find_link(grnet.xanthi, grnet.heraklio),
            grnet.xanthi_heraklio);
  // No direct Patra-Thessaloniki or Athens-Xanthi links exist.
  EXPECT_FALSE(
      grnet.topology.find_link(grnet.patra, grnet.thessaloniki).has_value());
  EXPECT_FALSE(
      grnet.topology.find_link(grnet.athens, grnet.xanthi).has_value());
}

TEST(CaseStudy, PaperOrderHasSevenDistinctLinks) {
  const CaseStudy grnet = build_case_study();
  const auto order = grnet.links_in_paper_order();
  EXPECT_EQ(order.size(), 7u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_NE(order[i], order[j]);
    }
  }
}

TEST(TimeOfDay, HoursAndLabels) {
  EXPECT_DOUBLE_EQ(hour_of(TimeOfDay::k8am), 8.0);
  EXPECT_DOUBLE_EQ(hour_of(TimeOfDay::k10am), 10.0);
  EXPECT_DOUBLE_EQ(hour_of(TimeOfDay::k4pm), 16.0);
  EXPECT_DOUBLE_EQ(hour_of(TimeOfDay::k6pm), 18.0);
  EXPECT_STREQ(time_label(TimeOfDay::k8am), "8am");
  EXPECT_STREQ(time_label(TimeOfDay::k6pm), "6pm");
  EXPECT_DOUBLE_EQ(time_of(TimeOfDay::k10am).seconds(), 36000.0);
}

TEST(Table2, SpotCheckAgainstPaper) {
  const CaseStudy grnet = build_case_study();
  // Patra-Athens at 8am: 200 kb, 10%.
  const LinkSample pa8 =
      table2_sample(grnet, grnet.patra_athens, TimeOfDay::k8am);
  EXPECT_NEAR(pa8.used.value(), 0.2, 1e-12);
  EXPECT_NEAR(pa8.utilization, 0.10, 1e-12);
  // Thessaloniki-Athens at 4pm: 9.8 Mb, 54.4%.
  const LinkSample ta4 =
      table2_sample(grnet, grnet.thess_athens, TimeOfDay::k4pm);
  EXPECT_NEAR(ta4.used.value(), 9.8, 1e-12);
  EXPECT_NEAR(ta4.utilization, 0.544, 1e-12);
  // Xanthi-Heraklio at 8am: 100 bits = 1e-4 Mbps.
  const LinkSample xh8 =
      table2_sample(grnet, grnet.xanthi_heraklio, TimeOfDay::k8am);
  EXPECT_NEAR(xh8.used.value(), 1e-4, 1e-12);
}

TEST(Table2, UtilizationConsistentWithUsedOverCapacity) {
  // The printed percentages are the printed used/capacity (up to the
  // paper's own rounding) — verify within 2% of capacity everywhere.
  const CaseStudy grnet = build_case_study();
  for (const TimeOfDay t : kAllTimes) {
    for (const LinkId link : grnet.links_in_paper_order()) {
      const LinkSample s = table2_sample(grnet, link, t);
      const double implied =
          s.used.value() / grnet.topology.link(link).capacity.value();
      EXPECT_NEAR(s.utilization, implied, 0.02)
          << grnet.topology.link(link).name << " at " << time_label(t);
    }
  }
}

TEST(Table2, UnknownLinkThrows) {
  const CaseStudy grnet = build_case_study();
  EXPECT_THROW(table2_sample(grnet, LinkId{99}, TimeOfDay::k8am),
               std::invalid_argument);
}

TEST(Table2Stats, ProviderCarriesCapacityAsTotal) {
  // The database written with a Table 2 column holds the link's capacity
  // as its total bandwidth beside the column's counters.
  const CaseStudy grnet = build_case_study();
  const db::AdminCredential admin{"admin"};
  db::Database database{admin, grnet.topology};
  write_table2(database.limited_view(admin), grnet, TimeOfDay::k10am);
  const db::LinkRecord& ta =
      database.limited_view(admin).link(grnet.thess_athens);
  EXPECT_EQ(ta.total_bandwidth, Mbps{18.0});
  EXPECT_NEAR(ta.used_bandwidth.value(), 7.0, 1e-12);
  EXPECT_NEAR(ta.utilization, 0.388, 1e-12);
  EXPECT_EQ(ta.last_snmp_update, time_of(TimeOfDay::k10am));
}

TEST(Table2Trace, StepsThroughTheDay) {
  const CaseStudy grnet = build_case_study();
  const net::TraceTraffic trace = table2_trace(grnet);
  // Before 8am: holds the 8am value; at 10am: switches.
  EXPECT_NEAR(
      trace.background_load(grnet.patra_athens, from_hours(6.0)).value(),
      0.2, 1e-12);
  EXPECT_NEAR(
      trace.background_load(grnet.patra_athens, from_hours(10.0)).value(),
      1.82, 1e-12);
  EXPECT_NEAR(
      trace.background_load(grnet.thess_ioannina, from_hours(17.0)).value(),
      1.86, 1e-12);
  EXPECT_NEAR(
      trace.background_load(grnet.thess_ioannina, from_hours(23.0)).value(),
      1.3, 1e-12);
}

TEST(Table3, PublishedValuesAccessible) {
  const CaseStudy grnet = build_case_study();
  EXPECT_DOUBLE_EQ(
      table3_expected_lvn(grnet, grnet.patra_athens, TimeOfDay::k8am),
      0.083);
  EXPECT_DOUBLE_EQ(
      table3_expected_lvn(grnet, grnet.xanthi_heraklio, TimeOfDay::k6pm),
      0.3);
  EXPECT_DOUBLE_EQ(
      table3_expected_lvn(grnet, grnet.thess_athens, TimeOfDay::k4pm),
      1.5433);
}

}  // namespace
}  // namespace vod::grnet
