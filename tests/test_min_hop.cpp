#include "routing/min_hop.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "routing/dijkstra.h"
#include "support/weighted_topology.h"

namespace vod::routing {
namespace {

using test::WeightedTopology;

/// Square a-b-c-d-a plus heavy-weight diagonal a-c.
WeightedTopology square_with_diagonal() {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const NodeId c = net.node("c");
  const NodeId d = net.node("d");
  net.link(a, b, 100.0);
  net.link(b, c, 100.0);
  net.link(c, d, 100.0);
  net.link(d, a, 100.0);
  net.link(a, c, 1000.0);
  return net;
}

std::optional<Path> hops(const WeightedTopology& net, NodeId from,
                         NodeId to) {
  return min_hop(net.topology, net.weights, from).path_to(to);
}

TEST(MinHop, IgnoresWeights) {
  // By weight, a->c would avoid the 1000 diagonal; by hops it takes it.
  const auto path = hops(square_with_diagonal(), NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 1.0);
  EXPECT_EQ(path->links, std::vector<LinkId>{LinkId{4}});
}

TEST(MinHop, SkipsUnroutableLinks) {
  // With the diagonal down, a->c takes two hops over the lower-id b.
  WeightedTopology net = square_with_diagonal();
  net.weights[4] = kNotRoutable;
  const auto path = hops(net, NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 2.0);
  EXPECT_EQ(path->links, (std::vector<LinkId>{LinkId{0}, LinkId{1}}));
}

TEST(MinHop, TrivialSelfPath) {
  const auto path = hops(square_with_diagonal(), NodeId{0}, NodeId{0});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
  EXPECT_TRUE(path->links.empty());
}

TEST(MinHop, DisconnectedReturnsNullopt) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  net.node("b");
  EXPECT_FALSE(hops(net, a, NodeId{1}).has_value());
}

TEST(MinHop, UnknownNodesThrow) {
  WeightedTopology net;
  net.node("a");
  EXPECT_THROW((void)hops(net, NodeId{0}, NodeId{9}), std::invalid_argument);
  EXPECT_THROW((void)hops(net, NodeId{9}, NodeId{0}), std::invalid_argument);
}

TEST(MinHop, RejectsWrongSizeWeights) {
  WeightedTopology net = square_with_diagonal();
  net.weights.pop_back();
  EXPECT_THROW((void)min_hop(net.topology, net.weights, NodeId{0}),
               std::invalid_argument);
}

TEST(MinHop, DeterministicTieBreak) {
  // Two 2-hop routes a->b->d and a->c->d: the lower-id intermediate wins.
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const NodeId c = net.node("c");
  const NodeId d = net.node("d");
  net.link(a, c, 1.0);
  net.link(a, b, 1.0);
  net.link(c, d, 1.0);
  net.link(b, d, 1.0);
  const auto path = hops(net, a, d);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes[1], b);
}

TEST(MinHop, ParallelLinksTakeTheLowerLinkId) {
  // a-b and b-c are each joined by two links of one hop; the lower link
  // id wins each hop, whatever the weights say.
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const NodeId c = net.node("c");
  const LinkId ab_low = net.link(a, b, 9.0);
  const LinkId bc_low = net.link(b, c, 9.0);
  net.link(b, c, 1.0);
  net.link(a, b, 1.0);
  const auto path = hops(net, a, c);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, (std::vector<LinkId>{ab_low, bc_low}));
}

class MinHopProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinHopProperty, NeverLongerThanWeightedShortestPathHops) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const WeightedTopology net =
      test::random_weighted_topology(rng, 8, 0.5, 0.1, 5.0);
  const ShortestPaths fewest = min_hop(net.topology, net.weights, NodeId{0});
  const ShortestPaths cheapest =
      dijkstra(net.topology, net.weights, NodeId{0});
  for (std::size_t v = 1; v < net.topology.node_count(); ++v) {
    const NodeId target{static_cast<NodeId::underlying_type>(v)};
    const auto hop_path = fewest.path_to(target);
    const auto weighted = cheapest.path_to(target);
    EXPECT_EQ(hop_path.has_value(), weighted.has_value());
    if (hop_path && weighted) {
      EXPECT_LE(hop_path->hop_count(), weighted->hop_count());
      EXPECT_DOUBLE_EQ(hop_path->cost,
                       static_cast<double>(hop_path->hop_count()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinHopProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace vod::routing
