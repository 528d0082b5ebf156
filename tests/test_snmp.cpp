#include "snmp/snmp_module.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::snmp {
namespace {

const db::AdminCredential kAdmin{"secret"};

struct Fixture {
  net::Topology topo;
  NodeId a = topo.add_node("a");
  NodeId b = topo.add_node("b");
  LinkId ab = topo.add_link(a, b, Mbps{2.0});
  net::ConstantTraffic traffic;
  db::Database db{kAdmin, topo};

  Fixture() { traffic.set_load(ab, Mbps{1.0}); }
};

TEST(SnmpModule, PollNowWritesStatsImmediately) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin)};
  snmp.poll_now(SimTime{0.0});
  const auto& record = fx.db.limited_view(kAdmin).link(fx.ab);
  EXPECT_NEAR(record.used_bandwidth.value(), 1.0, 1e-9);
  EXPECT_NEAR(record.utilization, 0.5, 1e-9);
  EXPECT_EQ(snmp.poll_count(), 1u);
}

TEST(SnmpModule, PeriodicPollingAtConfiguredInterval) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{60.0}};
  snmp.start();
  sim.run_until(SimTime{300.0});
  EXPECT_EQ(snmp.poll_count(), 5u);  // at 60, 120, 180, 240, 300
  snmp.stop();
}

TEST(SnmpModule, DefaultIntervalIsPaperRange) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin)};
  EXPECT_GE(snmp.interval_seconds(), 60.0);
  EXPECT_LE(snmp.interval_seconds(), 120.0);
}

TEST(SnmpModule, StatsReflectFlowActivityAtPollTime) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{60.0}};
  snmp.start();
  network.start_flow({fx.ab}, Mbps{0.5});
  sim.run_until(SimTime{60.0});
  const auto& record = fx.db.limited_view(kAdmin).link(fx.ab);
  EXPECT_NEAR(record.used_bandwidth.value(), 1.5, 1e-9);
  EXPECT_NEAR(record.utilization, 0.75, 1e-9);
}

TEST(SnmpModule, StaleBetweenPolls) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  snmp.start();
  // A flow starting mid-interval is invisible until the next poll.
  sim.schedule_at(SimTime{30.0}, [&](SimTime) {
    network.start_flow({fx.ab}, Mbps{0.5});
  });
  sim.run_until(SimTime{60.0});
  EXPECT_NEAR(fx.db.limited_view(kAdmin).link(fx.ab).used_bandwidth.value(),
              1.0, 1e-9);
  sim.run_until(SimTime{90.0});
  EXPECT_NEAR(fx.db.limited_view(kAdmin).link(fx.ab).used_bandwidth.value(),
              1.5, 1e-9);
}

TEST(SnmpModule, StopHaltsPolling) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{60.0}};
  snmp.start();
  sim.run_until(SimTime{120.0});
  snmp.stop();
  sim.run_until(SimTime{600.0});
  EXPECT_EQ(snmp.poll_count(), 2u);
  EXPECT_FALSE(snmp.running());
}

TEST(SnmpModule, StopStartResumesPolling) {
  // A monitor outage and recovery: stop() halts polling, start() resumes
  // one full interval later, and last_poll_at() tracks the real samples.
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{60.0}};
  EXPECT_FALSE(snmp.last_poll_at().has_value());
  snmp.start();
  sim.run_until(SimTime{120.0});  // polls at 60, 120
  snmp.stop();
  sim.run_until(SimTime{300.0});  // outage: nothing at 180, 240, 300
  EXPECT_EQ(snmp.poll_count(), 2u);
  ASSERT_TRUE(snmp.last_poll_at().has_value());
  EXPECT_EQ(*snmp.last_poll_at(), SimTime{120.0});
  snmp.start();
  sim.run_until(SimTime{420.0});  // polls resume at 360, 420
  EXPECT_EQ(snmp.poll_count(), 4u);
  EXPECT_EQ(*snmp.last_poll_at(), SimTime{420.0});
  EXPECT_TRUE(snmp.running());
}

TEST(SnmpModule, BackgroundOnlyModeExcludesVodFlows) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{60.0}};
  EXPECT_TRUE(snmp.count_vod_flows());
  snmp.set_count_vod_flows(false);
  EXPECT_FALSE(snmp.count_vod_flows());
  network.start_flow({fx.ab}, Mbps{0.5});
  snmp.poll_now(SimTime{0.0});
  const auto& record = fx.db.limited_view(kAdmin).link(fx.ab);
  // Only the 1.0 Mbps background is reported, not our 0.5 Mbps flow.
  EXPECT_NEAR(record.used_bandwidth.value(), 1.0, 1e-9);
  EXPECT_NEAR(record.utilization, 0.5, 1e-9);
}

TEST(SnmpModule, RejectsNonPositiveInterval) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  EXPECT_THROW(
      SnmpModule(sim, network, fx.db.limited_view(kAdmin), Duration{0.0}),
      std::invalid_argument);
}

TEST(SnmpModule, UpdateTimestampsMatchPollTime) {
  Fixture fx;
  net::FluidNetwork network{fx.topo, fx.traffic};
  sim::Simulation sim;
  SnmpModule snmp{sim, network, fx.db.limited_view(kAdmin), Duration{90.0}};
  snmp.start();
  sim.run_until(SimTime{180.0});
  EXPECT_EQ(fx.db.limited_view(kAdmin).link(fx.ab).last_snmp_update,
            SimTime{180.0});
}

}  // namespace
}  // namespace vod::snmp
