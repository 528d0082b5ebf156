#include "routing/graph.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::routing {
namespace {

TEST(Graph, AddNodeAssignsDenseIds) {
  Graph graph;
  EXPECT_EQ(graph.add_node("a").value(), 0u);
  EXPECT_EQ(graph.add_node("b").value(), 1u);
  EXPECT_EQ(graph.node_count(), 2u);
}

TEST(Graph, NodeNamesPreserved) {
  Graph graph;
  const NodeId a = graph.add_node("U1");
  EXPECT_EQ(graph.node_name(a), "U1");
}

TEST(Graph, EmptyNameGetsDefault) {
  Graph graph;
  const NodeId a = graph.add_node();
  EXPECT_EQ(graph.node_name(a), "n0");
}

TEST(Graph, UndirectedEdgeVisibleFromBothEnds) {
  Graph graph;
  const NodeId a = graph.add_node("a");
  const NodeId b = graph.add_node("b");
  graph.add_undirected_edge(a, b, LinkId{0}, 2.5);
  ASSERT_EQ(graph.neighbors(a).size(), 1u);
  ASSERT_EQ(graph.neighbors(b).size(), 1u);
  EXPECT_EQ(graph.neighbors(a)[0].to, b);
  EXPECT_EQ(graph.neighbors(b)[0].to, a);
  EXPECT_DOUBLE_EQ(graph.neighbors(a)[0].weight, 2.5);
}

TEST(Graph, EdgeCountTracksUndirectedEdges) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  const NodeId c = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  graph.add_undirected_edge(b, c, LinkId{1}, 1.0);
  EXPECT_EQ(graph.edge_count(), 2u);
}

TEST(Graph, RejectsSelfLoop) {
  Graph graph;
  const NodeId a = graph.add_node();
  EXPECT_THROW(graph.add_undirected_edge(a, a, LinkId{0}, 1.0),
               std::invalid_argument);
}

TEST(Graph, RejectsUnknownEndpoint) {
  Graph graph;
  const NodeId a = graph.add_node();
  EXPECT_THROW(graph.add_undirected_edge(a, NodeId{9}, LinkId{0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(graph.add_undirected_edge(a, NodeId{}, LinkId{0}, 1.0),
               std::invalid_argument);
}

TEST(Graph, RejectsNegativeWeight) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  EXPECT_THROW(graph.add_undirected_edge(a, b, LinkId{0}, -0.5),
               std::invalid_argument);
}

TEST(Graph, RejectsDuplicateLinkId) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  const NodeId c = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  EXPECT_THROW(graph.add_undirected_edge(b, c, LinkId{0}, 1.0),
               std::invalid_argument);
}

TEST(Graph, SetEdgeWeightUpdatesBothDirections) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  graph.set_edge_weight(LinkId{0}, 9.0);
  EXPECT_DOUBLE_EQ(graph.neighbors(a)[0].weight, 9.0);
  EXPECT_DOUBLE_EQ(graph.neighbors(b)[0].weight, 9.0);
  EXPECT_DOUBLE_EQ(*graph.edge_weight(LinkId{0}), 9.0);
}

TEST(Graph, SetEdgeWeightUnknownLinkThrows) {
  Graph graph;
  EXPECT_THROW(graph.set_edge_weight(LinkId{7}, 1.0), std::out_of_range);
}

TEST(Graph, SetEdgeWeightRejectsNegative) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  EXPECT_THROW(graph.set_edge_weight(LinkId{0}, -1.0),
               std::invalid_argument);
}

TEST(Graph, EdgeWeightUnknownReturnsNullopt) {
  Graph graph;
  EXPECT_FALSE(graph.edge_weight(LinkId{0}).has_value());
  EXPECT_FALSE(graph.edge_weight(LinkId{}).has_value());
}

TEST(Graph, EdgeEndpointsLookup) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{3}, 1.0);
  const auto endpoints = graph.edge_endpoints(LinkId{3});
  ASSERT_TRUE(endpoints.has_value());
  EXPECT_EQ(endpoints->first, a);
  EXPECT_EQ(endpoints->second, b);
}

TEST(Graph, HasNode) {
  Graph graph;
  const NodeId a = graph.add_node();
  EXPECT_TRUE(graph.has_node(a));
  EXPECT_FALSE(graph.has_node(NodeId{5}));
  EXPECT_FALSE(graph.has_node(NodeId{}));
}

TEST(Graph, NeighborsOfUnknownNodeThrows) {
  Graph graph;
  EXPECT_THROW((void)graph.neighbors(NodeId{0}), std::invalid_argument);
}

TEST(Graph, ParallelEdgesAllowedWithDistinctLinks) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  graph.add_undirected_edge(a, b, LinkId{1}, 2.0);
  EXPECT_EQ(graph.neighbors(a).size(), 2u);
  EXPECT_EQ(graph.edge_count(), 2u);
}

}  // namespace
}  // namespace vod::routing
