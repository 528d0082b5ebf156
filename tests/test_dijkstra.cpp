#include "routing/dijkstra.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "support/bellman_ford.h"
#include "support/weighted_topology.h"

namespace vod::routing {
namespace {

using test::WeightedTopology;

/// a -1- b -1- c, plus a direct a-c link of weight 3 (not shortest).
WeightedTopology triangle() {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const NodeId c = net.node("c");
  net.link(a, b, 1.0);
  net.link(b, c, 1.0);
  net.link(a, c, 3.0);
  return net;
}

/// Two nodes, no link.
WeightedTopology pair() {
  WeightedTopology net;
  net.node("a");
  net.node("b");
  return net;
}

ShortestPaths run(const WeightedTopology& net, NodeId source,
                  DijkstraTrace* trace = nullptr) {
  return dijkstra(net.topology, net.weights, source, trace);
}

TEST(Dijkstra, SourceDistanceIsZero) {
  const auto paths = run(triangle(), NodeId{0});
  EXPECT_DOUBLE_EQ(paths.distance_to(NodeId{0}), 0.0);
}

TEST(Dijkstra, PrefersCheaperMultiHopPath) {
  const auto paths = run(triangle(), NodeId{0});
  EXPECT_DOUBLE_EQ(paths.distance_to(NodeId{2}), 2.0);
  const auto path = paths.path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->nodes.size(), 3u);
  EXPECT_EQ(path->nodes[1], NodeId{1});
}

TEST(Dijkstra, PathLinksMatchNodes) {
  const auto path = run(triangle(), NodeId{0}).path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, (std::vector<LinkId>{LinkId{0}, LinkId{1}}));
  EXPECT_EQ(path->hop_count(), 2u);
  EXPECT_EQ(path->source(), NodeId{0});
  EXPECT_EQ(path->destination(), NodeId{2});
}

TEST(Dijkstra, PathToSourceIsTrivial) {
  const auto path = run(triangle(), NodeId{0}).path_to(NodeId{0});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, std::vector<NodeId>{NodeId{0}});
  EXPECT_TRUE(path->links.empty());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
}

TEST(Dijkstra, DisconnectedNodeUnreachable) {
  const auto paths = run(pair(), NodeId{0});
  EXPECT_FALSE(paths.reachable(NodeId{1}));
  EXPECT_EQ(paths.distance_to(NodeId{1}), kUnreached);
  EXPECT_FALSE(paths.path_to(NodeId{1}).has_value());
}

TEST(Dijkstra, UnknownSourceThrows) {
  EXPECT_THROW(run(WeightedTopology{}, NodeId{0}), std::invalid_argument);
}

TEST(Dijkstra, DistanceToUnknownNodeThrows) {
  const auto paths = run(triangle(), NodeId{0});
  EXPECT_THROW((void)paths.distance_to(NodeId{99}), std::invalid_argument);
}

TEST(Dijkstra, ZeroWeightEdgesSupported) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.link(a, b, 0.0);
  EXPECT_DOUBLE_EQ(run(net, a).distance_to(b), 0.0);
}

TEST(Dijkstra, UnroutableLinkIsNeverRelaxed) {
  // The a-c link is down: c is reached over b, and once b's link is down
  // too, not at all.
  WeightedTopology net = triangle();
  net.weights[2] = kNotRoutable;
  EXPECT_DOUBLE_EQ(run(net, NodeId{0}).distance_to(NodeId{2}), 2.0);
  net.weights[1] = kNotRoutable;
  const auto paths = run(net, NodeId{0});
  EXPECT_FALSE(paths.reachable(NodeId{2}));
  EXPECT_DOUBLE_EQ(paths.distance_to(NodeId{1}), 1.0);
}

TEST(Dijkstra, RejectsNaNWeight) {
  WeightedTopology net = triangle();
  net.weights[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run(net, NodeId{0}), std::invalid_argument);
}

TEST(Dijkstra, RejectsWrongSizeWeights) {
  WeightedTopology net = triangle();
  net.weights.pop_back();
  EXPECT_THROW(run(net, NodeId{0}), std::invalid_argument);
  net.weights.assign(4, 1.0);
  EXPECT_THROW(run(net, NodeId{0}), std::invalid_argument);
}

TEST(Dijkstra, TraceHasOneStepPerReachableNode) {
  DijkstraTrace trace;
  run(triangle(), NodeId{0}, &trace);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(Dijkstra, TraceFirstStepFinalizesSource) {
  DijkstraTrace trace;
  run(triangle(), NodeId{0}, &trace);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0].finalized, NodeId{0});
  EXPECT_EQ(trace[0].permanent_set, std::vector<NodeId>{NodeId{0}});
}

TEST(Dijkstra, TraceTentativeDistancesImprove) {
  DijkstraTrace trace;
  run(triangle(), NodeId{0}, &trace);
  // After step 1, c is tentatively reached at 3.0 via the direct link;
  // after step 2 (b finalized) it improves to 2.0.
  EXPECT_DOUBLE_EQ(trace[0].tentative[2], 3.0);
  EXPECT_DOUBLE_EQ(trace[1].tentative[2], 2.0);
}

TEST(Dijkstra, TraceBestPathsMatchDistances) {
  DijkstraTrace trace;
  run(triangle(), NodeId{0}, &trace);
  const DijkstraStep& last = trace.back();
  EXPECT_EQ(last.best_path[2],
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
}

TEST(Dijkstra, TraceUnreachedMarked) {
  DijkstraTrace trace;
  run(pair(), NodeId{0}, &trace);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tentative[1], kUnreached);
  EXPECT_TRUE(trace[0].best_path[1].empty());
}

TEST(Dijkstra, ParallelEdgesUseTheCheaper) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.link(a, b, 5.0);
  net.link(a, b, 2.0);
  const auto paths = run(net, a);
  EXPECT_DOUBLE_EQ(paths.distance_to(b), 2.0);
  const auto path = paths.path_to(b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->links, std::vector<LinkId>{LinkId{1}});
}

TEST(ShortestPath, UnknownDestinationThrows) {
  const auto paths = run(triangle(), NodeId{0});
  EXPECT_THROW((void)paths.path_to(NodeId{9}), std::invalid_argument);
}

TEST(PathToString, UsesNodeNames) {
  const WeightedTopology net = triangle();
  const auto path = run(net, NodeId{0}).path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->to_string(net.topology), "a,b,c");
}

// --- The graph routing reads: net::Topology plus one weight per link ---
//
// There is no separate graph type: these are the contract cases of one,
// held by the topology (structure) and by dijkstra (the weights).

TEST(Graph, AddNodeAssignsDenseIds) {
  WeightedTopology net;
  EXPECT_EQ(net.node("a").value(), 0u);
  EXPECT_EQ(net.node("b").value(), 1u);
  EXPECT_EQ(net.topology.node_count(), 2u);
  // The tree has a slot for every id.
  const auto paths = run(net, NodeId{0});
  EXPECT_FALSE(paths.reachable(NodeId{1}));
}

TEST(Graph, NodeNamesPreserved) {
  WeightedTopology net;
  const NodeId a = net.node("U1");
  const NodeId b = net.node("U2");
  net.link(a, b, 1.0);
  EXPECT_EQ(net.topology.node_name(a), "U1");
  EXPECT_EQ(run(net, a).path_to(b)->to_string(net.topology), "U1,U2");
}

TEST(Graph, UndirectedEdgeVisibleFromBothEnds) {
  WeightedTopology net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  const LinkId ab = net.link(a, b, 2.5);
  EXPECT_DOUBLE_EQ(run(net, a).distance_to(b), 2.5);
  EXPECT_DOUBLE_EQ(run(net, b).distance_to(a), 2.5);
  EXPECT_EQ(run(net, b).path_to(a)->links, std::vector<LinkId>{ab});
}

TEST(Graph, EdgeEndpointsLookup) {
  // Every hop of a route maps back onto the link joining its two nodes.
  const WeightedTopology net = triangle();
  const auto path = run(net, NodeId{0}).path_to(NodeId{2});
  ASSERT_TRUE(path.has_value());
  for (std::size_t i = 0; i < path->links.size(); ++i) {
    const net::LinkInfo& info = net.topology.link(path->links[i]);
    EXPECT_EQ(info.other_end(path->nodes[i]), path->nodes[i + 1]);
  }
}

TEST(Graph, NeighborsOfUnknownNodeThrows) {
  const WeightedTopology net = triangle();
  EXPECT_THROW((void)net.topology.links_adjacent_to(NodeId{9}),
               std::invalid_argument);
}

TEST(Graph, RejectsDuplicateLinkId) {
  // The topology issues link ids densely, so weights[id] belongs to exactly
  // one link; a span with a weight more than there are links, as a second
  // entry for one id would make it, is rejected.
  WeightedTopology net = triangle();
  for (std::size_t i = 0; i < net.topology.link_count(); ++i) {
    EXPECT_EQ(net.topology.links()[i].id.value(), i);
  }
  net.weights.push_back(1.0);
  EXPECT_THROW(run(net, NodeId{0}), std::invalid_argument);
}

TEST(Dijkstra, RejectsNegativeWeight) {
  WeightedTopology net = triangle();
  net.weights[0] = -1.0;
  EXPECT_THROW(run(net, NodeId{0}), std::invalid_argument);
}

// --- Property: Dijkstra agrees with Bellman–Ford on random graphs ---

class DijkstraRandomAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomAgreement, MatchesBellmanFordEverywhere) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const std::size_t nodes = 3 + static_cast<std::size_t>(GetParam()) % 15;
  WeightedTopology net =
      test::random_weighted_topology(rng, nodes, 0.4, 0.0, 10.0);
  // Take every fifth link down: both must route around it.
  for (std::size_t l = 0; l < net.weights.size(); l += 5) {
    net.weights[l] = kNotRoutable;
  }
  const NodeId source{0};
  const auto dj = run(net, source);
  const auto bf = bellman_ford(net.topology, net.weights, source);
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
  const WeightedTopology net =
      test::random_weighted_topology(rng, 10, 0.5, 0.0, 10.0);
  const auto paths = run(net, NodeId{0});
  for (std::size_t v = 0; v < net.topology.node_count(); ++v) {
    const auto path = paths.path_to(NodeId{
        static_cast<NodeId::underlying_type>(v)});
    if (!path) continue;
    double sum = 0.0;
    for (const LinkId link : path->links) {
      sum += net.weights[link.value()];
    }
    EXPECT_NEAR(sum, path->cost, 1e-9);
    EXPECT_EQ(path->nodes.size(), path->links.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomAgreement,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace vod::routing
