#include "support/bellman_ford.h"

#include <algorithm>
#include <stdexcept>

#include "common/contract.h"
#include "routing/dijkstra.h"

namespace vod::routing {

std::optional<Path> BellmanFordResult::path_to(
    NodeId node, const net::Topology& topology,
    std::span<const double> weights) const {
  if (!node.valid() || node.value() >= distance.size() ||
      distance[node.value()] == kUnreached) {
    return std::nullopt;
  }
  Path path;
  path.cost = distance[node.value()];
  for (NodeId at = node; at != source; at = predecessor[at.value()]) {
    path.nodes.push_back(at);
  }
  path.nodes.push_back(source);
  std::reverse(path.nodes.begin(), path.nodes.end());
  // Recover the link ids from consecutive node pairs.
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    LinkId chosen;
    double best = kUnreached;
    for (const LinkId link : topology.links_adjacent_to(path.nodes[i])) {
      if (topology.link(link).other_end(path.nodes[i]) == path.nodes[i + 1] &&
          weights[link.value()] < best) {
        best = weights[link.value()];
        chosen = link;
      }
    }
    path.links.push_back(chosen);
  }
  return path;
}

BellmanFordResult bellman_ford(const net::Topology& topology,
                               std::span<const double> weights,
                               NodeId source) {
  require(topology.has_node(source), "bellman_ford: source not in topology");
  require(weights.size() == topology.link_count(),
      "bellman_ford: need one weight per link");
  const std::size_t n = topology.node_count();
  BellmanFordResult result{source, std::vector<double>(n, kUnreached),
                           std::vector<NodeId>(n)};
  result.distance[source.value()] = 0.0;

  // Relax every link in both directions, n - 1 rounds at most.
  const auto relax = [&](NodeId from, NodeId to, double weight) {
    if (result.distance[from.value()] == kUnreached) return false;
    const double candidate = result.distance[from.value()] + weight;
    if (!(candidate < result.distance[to.value()])) return false;
    result.distance[to.value()] = candidate;
    result.predecessor[to.value()] = from;
    return true;
  };
  for (std::size_t round = 0; round + 1 < std::max<std::size_t>(n, 1);
       ++round) {
    bool changed = false;
    for (const net::LinkInfo& info : topology.links()) {
      const double weight = weights[info.id.value()];
      if (weight == kNotRoutable) continue;
      changed |= relax(info.a, info.b, weight);
      changed |= relax(info.b, info.a, weight);
    }
    if (!changed) break;
  }
  return result;
}

}  // namespace vod::routing
