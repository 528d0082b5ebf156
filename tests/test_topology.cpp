#include "net/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::net {
namespace {

Topology two_nodes_one_link() {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_link(a, b, Mbps{2.0});
  return topo;
}

TEST(Topology, AddNodeAssignsDenseIds) {
  Topology topo;
  EXPECT_EQ(topo.add_node("x").value(), 0u);
  EXPECT_EQ(topo.add_node("y").value(), 1u);
  EXPECT_EQ(topo.node_count(), 2u);
}

TEST(Topology, RejectsEmptyNodeName) {
  Topology topo;
  EXPECT_THROW(topo.add_node(""), std::invalid_argument);
}

TEST(Topology, LinkDefaultsToEndpointNames) {
  const Topology topo = two_nodes_one_link();
  EXPECT_EQ(topo.link(LinkId{0}).name, "a-b");
}

TEST(Topology, ExplicitLinkNamePreserved) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId link = topo.add_link(a, b, Mbps{2.0}, "Patra-Athens");
  EXPECT_EQ(topo.link(link).name, "Patra-Athens");
}

TEST(Topology, LinkStoresCapacityAndEndpoints) {
  const Topology topo = two_nodes_one_link();
  const LinkInfo& info = topo.link(LinkId{0});
  EXPECT_EQ(info.capacity, Mbps{2.0});
  EXPECT_EQ(info.a, NodeId{0});
  EXPECT_EQ(info.b, NodeId{1});
}

TEST(Topology, OtherEndResolves) {
  const Topology topo = two_nodes_one_link();
  const LinkInfo& info = topo.link(LinkId{0});
  EXPECT_EQ(info.other_end(NodeId{0}), NodeId{1});
  EXPECT_EQ(info.other_end(NodeId{1}), NodeId{0});
  EXPECT_THROW((void)info.other_end(NodeId{5}), std::invalid_argument);
}

TEST(Topology, RejectsSelfLoop) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  EXPECT_THROW(topo.add_link(a, a, Mbps{1.0}), std::invalid_argument);
}

TEST(Topology, RejectsNonPositiveCapacity) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  EXPECT_THROW(topo.add_link(a, b, Mbps{0.0}), std::invalid_argument);
  EXPECT_THROW(topo.add_link(a, b, Mbps{-2.0}), std::invalid_argument);
}

TEST(Topology, RejectsUnknownEndpoints) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  EXPECT_THROW(topo.add_link(a, NodeId{7}, Mbps{1.0}),
               std::invalid_argument);
}

TEST(Topology, AdjacencyListsBothDirections) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  const LinkId ab = topo.add_link(a, b, Mbps{1.0});
  const LinkId bc = topo.add_link(b, c, Mbps{1.0});
  EXPECT_EQ(topo.links_adjacent_to(a), std::vector<LinkId>{ab});
  EXPECT_EQ(topo.links_adjacent_to(b), (std::vector<LinkId>{ab, bc}));
  EXPECT_EQ(topo.links_adjacent_to(c), std::vector<LinkId>{bc});
}

TEST(Topology, FindLinkEitherOrientation) {
  const Topology topo = two_nodes_one_link();
  EXPECT_EQ(topo.find_link(NodeId{0}, NodeId{1}), LinkId{0});
  EXPECT_EQ(topo.find_link(NodeId{1}, NodeId{0}), LinkId{0});
}

TEST(Topology, FindLinkMissingIsNullopt) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  EXPECT_FALSE(topo.find_link(a, b).has_value());
}

TEST(Topology, FindNodeByName) {
  const Topology topo = two_nodes_one_link();
  EXPECT_EQ(topo.find_node("b"), NodeId{1});
  EXPECT_FALSE(topo.find_node("zebra").has_value());
}

TEST(Topology, UnknownLinkThrows) {
  const Topology topo = two_nodes_one_link();
  EXPECT_THROW((void)topo.link(LinkId{9}), std::out_of_range);
  EXPECT_THROW((void)topo.link(LinkId{}), std::out_of_range);
}

TEST(Topology, ParallelLinksAllowed) {
  Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_link(a, b, Mbps{1.0});
  topo.add_link(a, b, Mbps{2.0});
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.links_adjacent_to(a).size(), 2u);
}

}  // namespace
}  // namespace vod::net
