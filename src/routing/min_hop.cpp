#include "routing/min_hop.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contract.h"

namespace vod::routing {

ShortestPaths min_hop(const net::Topology& topology,
                      std::span<const double> weights, NodeId source) {
  require(topology.has_node(source), "min_hop: source not in topology");
  require(weights.size() == topology.link_count(),
      "min_hop: need one weight per link");
  const std::size_t n = topology.node_count();
  std::vector<double> depth(n, kUnreached);
  std::vector<NodeId> pred(n);
  std::vector<LinkId> via(n);
  std::deque<NodeId> frontier{source};
  depth[source.value()] = 0.0;

  // (neighbour, link) pairs of the node being expanded, reused per node.
  std::vector<std::pair<NodeId, LinkId>> next;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    next.clear();
    for (const LinkId link : topology.links_adjacent_to(u)) {
      if (weights[link.value()] == kNotRoutable) continue;
      next.emplace_back(topology.link(link).other_end(u), link);
    }
    std::sort(next.begin(), next.end());
    for (const auto& [v, link] : next) {
      if (depth[v.value()] == kUnreached) {
        depth[v.value()] = depth[u.value()] + 1.0;
        pred[v.value()] = u;
        via[v.value()] = link;
        frontier.push_back(v);
      }
    }
  }
  return ShortestPaths{source, std::move(depth), std::move(pred),
                       std::move(via)};
}

}  // namespace vod::routing
