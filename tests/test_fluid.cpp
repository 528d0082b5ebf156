#include "net/fluid.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace vod::net {
namespace {

/// a -- b -- c with 10 Mbps links.
struct Line {
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;

  Line() {
    a = topo.add_node("a");
    b = topo.add_node("b");
    c = topo.add_node("c");
    ab = topo.add_link(a, b, Mbps{10.0});
    bc = topo.add_link(b, c, Mbps{10.0});
  }
};

TEST(FluidNetwork, SingleFlowCappedByOwnLimit) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab}, Mbps{4.0});
  EXPECT_EQ(network.flow_rate(flow), Mbps{4.0});
}

TEST(FluidNetwork, SingleFlowCappedByLinkCapacity) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab}, Mbps{50.0});
  EXPECT_EQ(network.flow_rate(flow), Mbps{10.0});
}

TEST(FluidNetwork, TwoFlowsShareEqually) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId f1 = network.start_flow({line.ab}, Mbps{50.0});
  const FlowId f2 = network.start_flow({line.ab}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(f1).value(), 5.0, 1e-9);
  EXPECT_NEAR(network.flow_rate(f2).value(), 5.0, 1e-9);
}

TEST(FluidNetwork, CappedFlowReleasesShareToOthers) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId small = network.start_flow({line.ab}, Mbps{2.0});
  const FlowId big = network.start_flow({line.ab}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(small).value(), 2.0, 1e-9);
  EXPECT_NEAR(network.flow_rate(big).value(), 8.0, 1e-9);
}

TEST(FluidNetwork, WeightedFlowsSplitByWeight) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId heavy = network.start_flow({line.ab}, Mbps{50.0}, 3);
  const FlowId light = network.start_flow({line.ab}, Mbps{50.0}, 1);
  EXPECT_EQ(network.flow_weight(heavy), 3u);
  EXPECT_EQ(network.flow_weight(light), 1u);
  EXPECT_NEAR(network.flow_rate(heavy).value(), 7.5, 1e-9);
  EXPECT_NEAR(network.flow_rate(light).value(), 2.5, 1e-9);
}

TEST(FluidNetwork, CappedHeavyFlowLendsShareDownward) {
  // Borrowing: the premium-weighted flow freezes at its cap, so its unused
  // share spills to the lighter flow instead of going idle.
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId heavy = network.start_flow({line.ab}, Mbps{3.0}, 4);
  const FlowId light = network.start_flow({line.ab}, Mbps{50.0}, 1);
  EXPECT_NEAR(network.flow_rate(heavy).value(), 3.0, 1e-9);
  EXPECT_NEAR(network.flow_rate(light).value(), 7.0, 1e-9);
}

TEST(FluidNetwork, DefaultWeightMatchesExplicitOne) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId implicit = network.start_flow({line.ab}, Mbps{50.0});
  const FlowId explicit_one = network.start_flow({line.ab}, Mbps{50.0}, 1);
  EXPECT_EQ(network.flow_weight(implicit), 1u);
  EXPECT_EQ(network.flow_rate(implicit).value(),
            network.flow_rate(explicit_one).value());
}

TEST(FluidNetwork, StartFlowRejectsZeroWeight) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  EXPECT_THROW(network.start_flow({line.ab}, Mbps{5.0}, 0),
               std::invalid_argument);
}

TEST(FluidNetwork, MultiHopFlowLimitedByBottleneck) {
  Line line;
  ConstantTraffic traffic;
  traffic.set_load(line.bc, Mbps{7.0});  // bc residual = 3
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab, line.bc}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(flow).value(), 3.0, 1e-9);
}

TEST(FluidNetwork, StopFlowRestoresBandwidth) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId f1 = network.start_flow({line.ab}, Mbps{50.0});
  const FlowId f2 = network.start_flow({line.ab}, Mbps{50.0});
  network.stop_flow(f2);
  EXPECT_NEAR(network.flow_rate(f1).value(), 10.0, 1e-9);
  EXPECT_EQ(network.active_flow_count(), 1u);
}

TEST(FluidNetwork, EmptyPathFlowRunsAtCap) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId local = network.start_flow({}, Mbps{80.0});
  EXPECT_EQ(network.flow_rate(local), Mbps{80.0});
}

TEST(FluidNetwork, SaturatedLinkGrantsFloorRate) {
  Line line;
  ConstantTraffic traffic;
  traffic.set_load(line.ab, Mbps{10.0});  // fully used by background
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab}, Mbps{5.0});
  EXPECT_EQ(network.flow_rate(flow), kMinFlowRate);
}

TEST(FluidNetwork, BackgroundClampedToCapacity) {
  Line line;
  ConstantTraffic traffic;
  traffic.set_load(line.ab, Mbps{99.0});  // trace exceeds line rate
  FluidNetwork network{line.topo, traffic};
  EXPECT_EQ(network.background(line.ab), Mbps{10.0});
  EXPECT_DOUBLE_EQ(network.utilization(line.ab), 1.0);
}

TEST(FluidNetwork, UsedBandwidthIncludesFlows) {
  Line line;
  ConstantTraffic traffic;
  traffic.set_load(line.ab, Mbps{2.0});
  FluidNetwork network{line.topo, traffic};
  network.start_flow({line.ab}, Mbps{3.0});
  EXPECT_NEAR(network.used_bandwidth(line.ab).value(), 5.0, 1e-9);
  EXPECT_NEAR(network.utilization(line.ab), 0.5, 1e-9);
}

TEST(FluidNetwork, TimeAdvancesBackgroundLoads) {
  Line line;
  TraceTraffic traffic;
  traffic.add_sample(line.ab, SimTime{0.0}, Mbps{1.0});
  traffic.add_sample(line.ab, SimTime{100.0}, Mbps{9.0});
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(flow).value(), 9.0, 1e-9);
  network.set_time(SimTime{100.0});
  EXPECT_NEAR(network.flow_rate(flow).value(), 1.0, 1e-9);
}

TEST(FluidNetwork, TimeCannotGoBackward) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  network.set_time(SimTime{10.0});
  EXPECT_THROW(network.set_time(SimTime{5.0}), std::invalid_argument);
}

TEST(FluidNetwork, RejectsBadFlows) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  EXPECT_THROW(network.start_flow({line.ab}, Mbps{0.0}),
               std::invalid_argument);
  EXPECT_THROW(network.start_flow({LinkId{99}}, Mbps{1.0}),
               std::invalid_argument);
  EXPECT_THROW(network.stop_flow(FlowId{42}), std::out_of_range);
  EXPECT_THROW((void)network.flow_rate(FlowId{42}), std::out_of_range);
}

TEST(FluidNetwork, DisjointFlowsDoNotInteract) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId f1 = network.start_flow({line.ab}, Mbps{50.0});
  const FlowId f2 = network.start_flow({line.bc}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(f1).value(), 10.0, 1e-9);
  EXPECT_NEAR(network.flow_rate(f2).value(), 10.0, 1e-9);
}

TEST(FluidNetwork, FlowPathAccessor) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab, line.bc}, Mbps{5.0});
  EXPECT_EQ(network.flow_path(flow),
            (std::vector<LinkId>{line.ab, line.bc}));
  EXPECT_THROW((void)network.flow_path(FlowId{99}), std::out_of_range);
}

TEST(FluidNetwork, RepeatedLinkInPathCountedOnce) {
  // A path that loops over the same link twice still consumes one share of
  // it, exactly as the naive filler counted (one `break` per flow per link).
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId loop =
      network.start_flow({line.ab, line.bc, line.ab}, Mbps{50.0});
  EXPECT_NEAR(network.flow_rate(loop).value(), 10.0, 1e-9);
  EXPECT_NEAR(network.used_bandwidth(line.ab).value(), 10.0, 1e-9);
}

TEST(FluidNetwork, BatchGuardCoalescesReallocations) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId f1 = network.start_flow({line.ab}, Mbps{50.0});
  const std::size_t before = network.reallocation_count();
  FlowId f2, f3;
  {
    const FluidNetwork::BatchGuard epoch = network.defer_reallocate();
    f2 = network.start_flow({line.ab}, Mbps{50.0});
    f3 = network.start_flow({line.ab}, Mbps{50.0});
    network.stop_flow(f1);
    // Mid-epoch rates are stale: f2/f3 have never been allocated.
    EXPECT_EQ(network.flow_rate(f2), Mbps{0.0});
    EXPECT_EQ(network.reallocation_count(), before);
  }
  EXPECT_EQ(network.reallocation_count(), before + 1);
  EXPECT_NEAR(network.flow_rate(f2).value(), 5.0, 1e-9);
  EXPECT_NEAR(network.flow_rate(f3).value(), 5.0, 1e-9);
}

TEST(FluidNetwork, SymmetricFlowsShareOneBundle) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  // Same unique links (order and repeats do not matter), cap and weight.
  const FlowId f1 = network.start_flow({line.ab, line.bc}, Mbps{50.0});
  const FlowId f2 = network.start_flow({line.bc, line.ab, line.bc}, Mbps{50.0});
  EXPECT_EQ(network.bundle_count(), 1u);
  EXPECT_EQ(network.flow_bundle(f1), network.flow_bundle(f2));
  // A different cap or weight is a different bundle.
  const FlowId capped = network.start_flow({line.ab, line.bc}, Mbps{2.0});
  const FlowId heavy = network.start_flow({line.ab, line.bc}, Mbps{50.0}, 2);
  EXPECT_EQ(network.bundle_count(), 3u);
  EXPECT_NE(network.flow_bundle(capped), network.flow_bundle(f1));
  EXPECT_NE(network.flow_bundle(heavy), network.flow_bundle(f1));
  // 10 Mbps: the capped flow takes 2, the rest split 8 as 1:1:2.
  EXPECT_NEAR(network.flow_rate(f1).value(), 2.0, 1e-9);
  EXPECT_EQ(network.flow_rate(f2), network.flow_rate(f1));
  EXPECT_NEAR(network.flow_rate(heavy).value(), 4.0, 1e-9);
  network.stop_flow(capped);
  network.stop_flow(heavy);
  EXPECT_EQ(network.bundle_count(), 1u);
}

TEST(FluidNetwork, FlowJoiningABundleMidEpochReadsZeroUntilItCloses) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const FlowId f1 = network.start_flow({line.ab}, Mbps{50.0});
  const FlowId f2 = network.start_flow({line.ab}, Mbps{50.0});
  ASSERT_EQ(network.bundle_count(), 1u);
  FlowId joiner;
  {
    const FluidNetwork::BatchGuard epoch = network.defer_reallocate();
    joiner = network.start_flow({line.ab}, Mbps{50.0});
    EXPECT_EQ(network.flow_bundle(joiner), network.flow_bundle(f1));
    EXPECT_EQ(network.bundle_count(), 1u);
    // The joiner has not been solved; its bundle-mates keep their last
    // solved rate, and the link reads only what was solved.
    EXPECT_EQ(network.flow_rate(joiner), Mbps{0.0});
    EXPECT_EQ(network.flow_rate(f1), Mbps{5.0});
    EXPECT_EQ(network.flow_rate(f2), Mbps{5.0});
    EXPECT_EQ(network.used_bandwidth(line.ab), Mbps{10.0});
  }
  const double third = network.flow_rate(f1).value();
  EXPECT_NEAR(third, 10.0 / 3.0, 1e-9);
  EXPECT_EQ(network.flow_rate(f2).value(), third);
  EXPECT_EQ(network.flow_rate(joiner).value(), third);
}

TEST(FluidNetwork, NestedBatchGuardsCloseOnce) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const std::size_t before = network.reallocation_count();
  {
    const FluidNetwork::BatchGuard outer = network.defer_reallocate();
    {
      const FluidNetwork::BatchGuard inner = network.defer_reallocate();
      network.start_flow({line.ab}, Mbps{5.0});
    }
    EXPECT_EQ(network.reallocation_count(), before);  // outer still open
    EXPECT_TRUE(network.epoch_open());
    network.start_flow({line.bc}, Mbps{5.0});
  }
  EXPECT_FALSE(network.epoch_open());
  EXPECT_EQ(network.reallocation_count(), before + 1);
}

TEST(FluidNetwork, UntouchedEpochReallocatesNothing) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  network.start_flow({line.ab}, Mbps{5.0});
  const std::size_t before = network.reallocation_count();
  { const FluidNetwork::BatchGuard epoch = network.defer_reallocate(); }
  EXPECT_EQ(network.reallocation_count(), before);
}

TEST(FluidNetwork, EmptyNetworkSkipsReallocation) {
  Line line;
  NoTraffic traffic;
  FluidNetwork network{line.topo, traffic};
  const std::size_t before = network.reallocation_count();
  network.set_time(SimTime{10.0});
  network.set_link_up(line.ab, false);
  network.set_link_up(line.ab, true);
  EXPECT_EQ(network.reallocation_count(), before);
  const FlowId flow = network.start_flow({line.ab}, Mbps{5.0});
  EXPECT_EQ(network.reallocation_count(), before + 1);
  network.stop_flow(flow);
  // The final stop empties the network; no shares remain to solve.
  EXPECT_EQ(network.reallocation_count(), before + 1);
}

/// Diurnal background on both links of the line: 60 s traffic steps.
DiurnalTraffic line_diurnal(const Line& line) {
  DiurnalTraffic traffic{14.0};
  traffic.set_shape(line.ab, {.capacity = Mbps{10.0},
                              .base_fraction = 0.1,
                              .peak_fraction = 0.6});
  traffic.set_shape(line.bc, {.capacity = Mbps{10.0},
                              .base_fraction = 0.2,
                              .peak_fraction = 0.7});
  return traffic;
}

TEST(FluidNetwork, BackgroundCachedPerTrafficStep) {
  Line line;
  const DiurnalTraffic traffic = line_diurnal(line);
  FluidNetwork network{line.topo, traffic};
  const FlowId flow = network.start_flow({line.ab, line.bc}, Mbps{50.0});
  const std::size_t after_start = network.traffic_query_count();
  EXPECT_EQ(after_start, 2u);  // the lazy first refresh: one per link
  // Re-querying inside the step — used_bandwidth, utilization, another
  // solve — reads the cache; the model is not consulted again.
  (void)network.used_bandwidth(line.ab);
  (void)network.utilization(line.bc);
  network.start_flow({line.ab}, Mbps{5.0});
  EXPECT_EQ(network.traffic_query_count(), after_start);
  // Clock moves inside the step stay mutations (one solve each) but read
  // no traffic.
  const Mbps rate = network.flow_rate(flow);
  for (const double t : {10.0, 30.5, 59.999}) {
    const std::size_t solves = network.reallocation_count();
    network.set_time(SimTime{t});
    EXPECT_EQ(network.reallocation_count(), solves + 1);
    EXPECT_EQ(network.traffic_query_count(), after_start);
    EXPECT_EQ(network.flow_rate(flow), rate);
  }
  // Crossing into the next step costs exactly one query per link.
  network.set_time(SimTime{60.0});
  EXPECT_EQ(network.traffic_query_count(), after_start + 2);
  EXPECT_EQ(network.background(line.ab),
            traffic.background_load(line.ab, SimTime{60.0}));
  network.set_time(SimTime{119.0});
  EXPECT_EQ(network.traffic_query_count(), after_start + 2);
  network.set_time(SimTime{300.0});  // skipping steps still reads once
  EXPECT_EQ(network.traffic_query_count(), after_start + 4);
  EXPECT_EQ(network.background(line.bc),
            traffic.background_load(line.bc, SimTime{300.0}));
}

TEST(FluidNetwork, MidStepFlapMatchesReference) {
  Line line;
  const DiurnalTraffic traffic = line_diurnal(line);
  FluidNetwork network{line.topo, traffic};
  network.set_check_against_reference(true);  // every solve is checked
  // Peak hour: the background leaves ab and bc different residuals.
  network.set_time(from_hours(14.0) + Duration{5.0});
  const FlowId through = network.start_flow({line.ab, line.bc}, Mbps{50.0});
  const FlowId left = network.start_flow({line.ab}, Mbps{50.0}, 2);
  const FlowId right = network.start_flow({line.bc}, Mbps{50.0});
  network.set_time(from_hours(14.0) + Duration{20.0});  // same step
  const std::size_t queries = network.traffic_query_count();
  const std::vector<std::pair<FlowId, Mbps>> before =
      network.reallocate_reference();

  const auto expect_reference = [&network] {
    for (const auto& [flow, rate] : network.reallocate_reference()) {
      EXPECT_EQ(network.flow_rate(flow).value(), rate.value());
    }
  };
  network.set_link_up(line.bc, false);
  EXPECT_EQ(network.flow_rate(through), Mbps{0.0});
  EXPECT_EQ(network.flow_rate(right), Mbps{0.0});
  EXPECT_EQ(network.background(line.bc), Mbps{0.0});
  // ab's residual is no longer shared with the severed flow.
  EXPECT_GT(network.flow_rate(left).value(),
            before[1].second.value());
  expect_reference();

  network.set_time(from_hours(14.0) + Duration{40.0});  // still the step
  expect_reference();
  network.set_link_up(line.bc, true);
  expect_reference();
  EXPECT_EQ(network.reallocate_reference(), before);
  for (const auto& [flow, rate] : before) {
    EXPECT_EQ(network.flow_rate(flow).value(), rate.value());
  }
  EXPECT_EQ(network.traffic_query_count(), queries);  // flaps read no traffic
}

TEST(FluidNetwork, CachedNextTrafficChangeMatchesModel) {
  Line line;
  const DiurnalTraffic diurnal = line_diurnal(line);
  TraceTraffic day;
  day.add_sample(line.ab, SimTime{30.0}, Mbps{1.0});
  day.add_sample(line.ab, SimTime{400.0}, Mbps{2.0});
  day.add_sample(line.bc, SimTime{250.0}, Mbps{3.0});
  const PeriodicTraffic periodic{day, Duration{900.0}};
  Rng rng{17};
  const std::vector<const TrafficModel*> models{&diurnal, &periodic};
  for (const TrafficModel* model : models) {
    FluidNetwork network{line.topo, *model};
    double now = 0.0;
    for (int step = 0; step < 50; ++step) {
      now += rng.uniform(1.0, 400.0);
      network.set_time(SimTime{now});
      (void)network.background(line.ab);  // fills the step cache
      const double until = model->next_change_after(SimTime{now}).seconds();
      for (int k = 0; k < 20; ++k) {
        const SimTime t{rng.uniform(now, until)};
        EXPECT_EQ(network.next_traffic_change(t),
                  model->next_change_after(t))
            << "t=" << t.seconds();
      }
      // Before the clock the cache does not apply; the model answers.
      const SimTime earlier{rng.uniform(0.0, now)};
      EXPECT_EQ(network.next_traffic_change(earlier),
                model->next_change_after(earlier))
          << "t=" << earlier.seconds();
    }
  }
}

TEST(FluidNetwork, ReferenceCheckAcceptsIndexedAllocator) {
  Line line;
  ConstantTraffic traffic;
  traffic.set_load(line.ab, Mbps{4.0});
  FluidNetwork network{line.topo, traffic};
  network.set_check_against_reference(true);
  const FlowId f1 = network.start_flow({line.ab, line.bc}, Mbps{50.0});
  network.start_flow({line.ab}, Mbps{2.0});
  network.set_link_up(line.bc, false);
  EXPECT_EQ(network.flow_rate(f1), Mbps{0.0});  // severed
  network.set_link_up(line.bc, true);
  network.stop_flow(f1);
}

// --- Max–min fairness properties on random configurations ---

class FluidFairnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(FluidFairnessProperty, AllocationsFeasibleAndNonWasteful) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  // Random line network of 4 nodes / 3 links, random flows over sub-paths.
  Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(
        topo.add_link(nodes[i], nodes[i + 1], Mbps{rng.uniform(2.0, 20.0)}));
  }
  ConstantTraffic traffic;
  for (const LinkId link : links) {
    traffic.set_load(link, Mbps{rng.uniform(0.0, 5.0)});
  }
  FluidNetwork network{topo, traffic};

  struct FlowSpec {
    FlowId id;
    std::vector<LinkId> path;
    double cap;
  };
  std::vector<FlowSpec> flows;
  const int flow_count = 1 + GetParam() % 6;
  for (int f = 0; f < flow_count; ++f) {
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const auto last =
        static_cast<std::size_t>(rng.uniform_int(first, 2));
    std::vector<LinkId> path(links.begin() + first,
                             links.begin() + last + 1);
    const double cap = rng.uniform(0.5, 15.0);
    flows.push_back(FlowSpec{network.start_flow(path, Mbps{cap}), path, cap});
  }

  // Feasibility: no link oversubscribed by our flows (beyond the floor).
  for (const LinkId link : links) {
    double flow_sum = 0.0;
    for (const FlowSpec& flow : flows) {
      for (const LinkId l : flow.path) {
        if (l == link) flow_sum += network.flow_rate(flow.id).value();
      }
    }
    const double residual =
        (topo.link(link).capacity - network.background(link)).value();
    const double slack = kMinFlowRate.value() * flow_count + 1e-6;
    EXPECT_LE(flow_sum, residual + slack) << "link " << link.value();
  }

  // No flow exceeds its cap (floor aside).
  for (const FlowSpec& flow : flows) {
    EXPECT_LE(network.flow_rate(flow.id).value(),
              flow.cap + kMinFlowRate.value() + 1e-9);
  }

  // Non-wastefulness: every flow is limited by its cap or by a saturated
  // link on its path.
  for (const FlowSpec& flow : flows) {
    const double rate = network.flow_rate(flow.id).value();
    if (rate >= flow.cap - 1e-6) continue;  // cap-limited
    bool bottlenecked = false;
    for (const LinkId link : flow.path) {
      double flow_sum = 0.0;
      for (const FlowSpec& other : flows) {
        for (const LinkId l : other.path) {
          if (l == link) flow_sum += network.flow_rate(other.id).value();
        }
      }
      const double residual =
          (topo.link(link).capacity - network.background(link)).value();
      if (flow_sum >= residual - 1e-6) bottlenecked = true;
    }
    EXPECT_TRUE(bottlenecked) << "flow neither cap- nor link-limited";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidFairnessProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace vod::net
