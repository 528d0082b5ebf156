#include "support/bellman_ford.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "routing/dijkstra.h"
#include "support/weighted_topology.h"

namespace vod::routing {
namespace {

using test::WeightedTopology;

WeightedTopology line() {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const NodeId c = net.node("c");
  net.link(a, b, 1.5);
  net.link(b, c, 2.5);
  return net;
}

/// Two nodes, no link.
WeightedTopology pair() {
  WeightedTopology net;
  net.node("a");
  net.node("b");
  return net;
}

TEST(BellmanFord, ComputesLineDistances) {
  const WeightedTopology net = line();
  const auto result = bellman_ford(net.topology, net.weights, NodeId{0});
  EXPECT_DOUBLE_EQ(result.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(result.distance[1], 1.5);
  EXPECT_DOUBLE_EQ(result.distance[2], 4.0);
}

TEST(BellmanFord, UnreachableIsInfinite) {
  const WeightedTopology net = pair();
  const auto result = bellman_ford(net.topology, net.weights, NodeId{0});
  EXPECT_EQ(result.distance[1], kUnreached);
}

TEST(BellmanFord, PathReconstruction) {
  const WeightedTopology net = line();
  const auto result = bellman_ford(net.topology, net.weights, NodeId{0});
  const auto path = result.path_to(NodeId{2}, net.topology, net.weights);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes,
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_EQ(path->links, (std::vector<LinkId>{LinkId{0}, LinkId{1}}));
  EXPECT_DOUBLE_EQ(path->cost, 4.0);
}

TEST(BellmanFord, PathToUnreachableIsNullopt) {
  const WeightedTopology net = pair();
  const auto result = bellman_ford(net.topology, net.weights, NodeId{0});
  EXPECT_FALSE(
      result.path_to(NodeId{1}, net.topology, net.weights).has_value());
}

TEST(BellmanFord, UnknownSourceThrows) {
  const WeightedTopology net;
  EXPECT_THROW(bellman_ford(net.topology, net.weights, NodeId{0}),
               std::invalid_argument);
}

TEST(BellmanFord, SingleNodeGraph) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const auto result = bellman_ford(net.topology, net.weights, a);
  EXPECT_DOUBLE_EQ(result.distance[0], 0.0);
}

TEST(BellmanFord, PicksCheapestParallelEdge) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.link(a, b, 5.0);
  net.link(a, b, 2.0);
  const auto result = bellman_ford(net.topology, net.weights, a);
  EXPECT_DOUBLE_EQ(result.distance[1], 2.0);
  const auto path = result.path_to(b, net.topology, net.weights);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, std::vector<LinkId>{LinkId{1}});
}

TEST(BellmanFord, SkipsUnroutableLinks) {
  WeightedTopology net = line();
  net.weights[1] = kNotRoutable;
  const auto result = bellman_ford(net.topology, net.weights, NodeId{0});
  EXPECT_DOUBLE_EQ(result.distance[1], 1.5);
  EXPECT_EQ(result.distance[2], kUnreached);
}

}  // namespace
}  // namespace vod::routing
