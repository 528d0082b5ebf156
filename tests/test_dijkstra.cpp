#include "routing/dijkstra.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "support/bellman_ford.h"

namespace vod::routing {
namespace {

/// a -1- b -1- c, plus a direct a-c edge of weight 3 (not shortest).
Graph triangle() {
  Graph graph;
  const NodeId a = graph.add_node("a");
  const NodeId b = graph.add_node("b");
  const NodeId c = graph.add_node("c");
  graph.add_undirected_edge(a, b, LinkId{0}, 1.0);
  graph.add_undirected_edge(b, c, LinkId{1}, 1.0);
  graph.add_undirected_edge(a, c, LinkId{2}, 3.0);
  return graph;
}

TEST(Dijkstra, SourceDistanceIsZero) {
  const Graph graph = triangle();
  const auto paths = dijkstra(graph, NodeId{0});
  EXPECT_DOUBLE_EQ(paths.distance_to(NodeId{0}), 0.0);
}

TEST(Dijkstra, PrefersCheaperMultiHopPath) {
  const Graph graph = triangle();
  const auto paths = dijkstra(graph, NodeId{0});
  EXPECT_DOUBLE_EQ(paths.distance_to(NodeId{2}), 2.0);
  const auto path = paths.path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->nodes.size(), 3u);
  EXPECT_EQ(path->nodes[1], NodeId{1});
}

TEST(Dijkstra, PathLinksMatchNodes) {
  const Graph graph = triangle();
  const auto path = dijkstra(graph, NodeId{0}).path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, (std::vector<LinkId>{LinkId{0}, LinkId{1}}));
  EXPECT_EQ(path->hop_count(), 2u);
  EXPECT_EQ(path->source(), NodeId{0});
  EXPECT_EQ(path->destination(), NodeId{2});
}

TEST(Dijkstra, PathToSourceIsTrivial) {
  const Graph graph = triangle();
  const auto path = dijkstra(graph, NodeId{0}).path_to(NodeId{0});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, std::vector<NodeId>{NodeId{0}});
  EXPECT_TRUE(path->links.empty());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
}

TEST(Dijkstra, DisconnectedNodeUnreachable) {
  Graph graph;
  const NodeId a = graph.add_node();
  graph.add_node();  // isolated b
  const auto paths = dijkstra(graph, a);
  EXPECT_FALSE(paths.reachable(NodeId{1}));
  EXPECT_EQ(paths.distance_to(NodeId{1}), kUnreached);
  EXPECT_FALSE(paths.path_to(NodeId{1}).has_value());
}

TEST(Dijkstra, UnknownSourceThrows) {
  Graph graph;
  EXPECT_THROW(dijkstra(graph, NodeId{0}), std::invalid_argument);
}

TEST(Dijkstra, DistanceToUnknownNodeThrows) {
  const Graph graph = triangle();
  const auto paths = dijkstra(graph, NodeId{0});
  EXPECT_THROW((void)paths.distance_to(NodeId{99}), std::invalid_argument);
}

TEST(Dijkstra, ZeroWeightEdgesSupported) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 0.0);
  const auto paths = dijkstra(graph, a);
  EXPECT_DOUBLE_EQ(paths.distance_to(b), 0.0);
}

TEST(Dijkstra, TraceHasOneStepPerReachableNode) {
  const Graph graph = triangle();
  DijkstraTrace trace;
  dijkstra(graph, NodeId{0}, &trace);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(Dijkstra, TraceFirstStepFinalizesSource) {
  const Graph graph = triangle();
  DijkstraTrace trace;
  dijkstra(graph, NodeId{0}, &trace);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0].finalized, NodeId{0});
  EXPECT_EQ(trace[0].permanent_set, std::vector<NodeId>{NodeId{0}});
}

TEST(Dijkstra, TraceTentativeDistancesImprove) {
  const Graph graph = triangle();
  DijkstraTrace trace;
  dijkstra(graph, NodeId{0}, &trace);
  // After step 1, c is tentatively reached at 3.0 via the direct edge;
  // after step 2 (b finalized) it improves to 2.0.
  EXPECT_DOUBLE_EQ(trace[0].tentative[2], 3.0);
  EXPECT_DOUBLE_EQ(trace[1].tentative[2], 2.0);
}

TEST(Dijkstra, TraceBestPathsMatchDistances) {
  const Graph graph = triangle();
  DijkstraTrace trace;
  dijkstra(graph, NodeId{0}, &trace);
  const DijkstraStep& last = trace.back();
  EXPECT_EQ(last.best_path[2],
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
}

TEST(Dijkstra, TraceUnreachedMarked) {
  Graph graph;
  const NodeId a = graph.add_node();
  graph.add_node();  // isolated
  DijkstraTrace trace;
  dijkstra(graph, a, &trace);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tentative[1], kUnreached);
  EXPECT_TRUE(trace[0].best_path[1].empty());
}

TEST(Dijkstra, ParallelEdgesUseTheCheaper) {
  Graph graph;
  const NodeId a = graph.add_node();
  const NodeId b = graph.add_node();
  graph.add_undirected_edge(a, b, LinkId{0}, 5.0);
  graph.add_undirected_edge(a, b, LinkId{1}, 2.0);
  const auto paths = dijkstra(graph, a);
  EXPECT_DOUBLE_EQ(paths.distance_to(b), 2.0);
  const auto path = paths.path_to(b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, std::vector<LinkId>{LinkId{1}});
}

TEST(ShortestPath, ConvenienceWrapper) {
  const Graph graph = triangle();
  const auto path = shortest_path(graph, NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 2.0);
}

TEST(ShortestPath, UnknownDestinationThrows) {
  const Graph graph = triangle();
  EXPECT_THROW(shortest_path(graph, NodeId{0}, NodeId{9}),
               std::invalid_argument);
}

TEST(PathToString, UsesNodeNames) {
  const Graph graph = triangle();
  const auto path = shortest_path(graph, NodeId{0}, NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->to_string(graph), "a,b,c");
}

// --- Property: Dijkstra agrees with Bellman–Ford on random graphs ---

class DijkstraRandomAgreement : public ::testing::TestWithParam<int> {};

Graph random_graph(Rng& rng, std::size_t nodes, double edge_probability) {
  Graph graph;
  for (std::size_t i = 0; i < nodes; ++i) graph.add_node();
  LinkId::underlying_type next_link = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = i + 1; j < nodes; ++j) {
      if (rng.bernoulli(edge_probability)) {
        graph.add_undirected_edge(
            NodeId{static_cast<NodeId::underlying_type>(i)},
            NodeId{static_cast<NodeId::underlying_type>(j)},
            LinkId{next_link++}, rng.uniform(0.0, 10.0));
      }
    }
  }
  return graph;
}

TEST_P(DijkstraRandomAgreement, MatchesBellmanFordEverywhere) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const std::size_t nodes = 3 + static_cast<std::size_t>(GetParam()) % 15;
  const Graph graph = random_graph(rng, nodes, 0.4);
  const NodeId source{0};
  const auto dj = dijkstra(graph, source);
  const auto bf = bellman_ford(graph, source);
  for (std::size_t v = 0; v < nodes; ++v) {
    const NodeId node{static_cast<NodeId::underlying_type>(v)};
    if (dj.reachable(node)) {
      EXPECT_NEAR(dj.distance_to(node), bf.distance[v], 1e-9)
          << "node " << v << " seed " << GetParam();
    } else {
      EXPECT_EQ(bf.distance[v], kUnreached);
    }
  }
}

TEST_P(DijkstraRandomAgreement, PathCostsEqualSumOfEdgeWeights) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 1000};
  const Graph graph = random_graph(rng, 10, 0.5);
  const auto paths = dijkstra(graph, NodeId{0});
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    const auto path = paths.path_to(NodeId{
        static_cast<NodeId::underlying_type>(v)});
    if (!path) continue;
    double sum = 0.0;
    for (const LinkId link : path->links) {
      sum += *graph.edge_weight(link);
    }
    EXPECT_NEAR(sum, path->cost, 1e-9);
    EXPECT_EQ(path->nodes.size(), path->links.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomAgreement,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace vod::routing
