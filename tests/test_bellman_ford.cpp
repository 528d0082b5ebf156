#include "support/bellman_ford.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "routing/dijkstra.h"

namespace vod::routing {
namespace {

Graph line_graph() {
  Graph graph;
  const NodeId a = graph.add_node("a");
  const NodeId b = graph.add_node("b");
  const NodeId c = graph.add_node("c");
  graph.add_undirected_edge(a, b, LinkId{0}, 1.5);
  graph.add_undirected_edge(b, c, LinkId{1}, 2.5);
  return graph;
}

TEST(BellmanFord, ComputesLineDistances) {
  const Graph graph = line_graph();
  const auto result = bellman_ford(graph, NodeId{0});
  EXPECT_DOUBLE_EQ(result.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(result.distance[1], 1.5);
  EXPECT_DOUBLE_EQ(result.distance[2], 4.0);
}

TEST(BellmanFord, UnreachableIsInfinite) {
  Graph graph;
  const NodeId a = graph.add_node();
  graph.add_node();
  const auto result = bellman_ford(graph, a);
  EXPECT_EQ(result.distance[1], kUnreached);
}

TEST(BellmanFord, PathReconstruction) {
  const Graph graph = line_graph();
  const auto result = bellman_ford(graph, NodeId{0});
  const auto path = result.path_to(NodeId{2}, graph);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes,
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_EQ(path->links, (std::vector<LinkId>{LinkId{0}, LinkId{1}}));
  EXPECT_DOUBLE_EQ(path->cost, 4.0);
}

TEST(BellmanFord, PathToUnreachableIsNullopt) {
  Graph graph;
  const NodeId a = graph.add_node();
  graph.add_node();
  const auto result = bellman_ford(graph, a);
  EXPECT_FALSE(result.path_to(NodeId{1}, graph).has_value());
}

TEST(BellmanFord, UnknownSourceThrows) {
  Graph graph;
  EXPECT_THROW(bellman_ford(graph, NodeId{0}), std::invalid_argument);
}

TEST(BellmanFord, SingleNodeGraph) {
  Graph graph;
  const NodeId a = graph.add_node();
  const auto result = bellman_ford(graph, a);
  EXPECT_DOUBLE_EQ(result.distance[0], 0.0);
}

TEST(BellmanFord, PicksCheapestParallelEdge) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 5.0);
  graph.add_undirected_edge(a, b, LinkId{1}, 2.0);
  const auto result = bellman_ford(graph, a);
  EXPECT_DOUBLE_EQ(result.distance[1], 2.0);
  const auto path = result.path_to(b, graph);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, std::vector<LinkId>{LinkId{1}});
}

}  // namespace
}  // namespace vod::routing
