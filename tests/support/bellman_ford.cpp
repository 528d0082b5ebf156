#include "support/bellman_ford.h"

#include <algorithm>
#include <stdexcept>

#include "common/contract.h"
#include "routing/dijkstra.h"

namespace vod::routing {

std::optional<Path> BellmanFordResult::path_to(NodeId node,
                                               const Graph& graph) const {
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
    for (const Edge& e : graph.neighbors(path.nodes[i])) {
      if (e.to == path.nodes[i + 1] && e.weight < best) {
        best = e.weight;
        chosen = e.link;
      }
    }
    path.links.push_back(chosen);
  }
  return path;
}

BellmanFordResult bellman_ford(const Graph& graph, NodeId source) {
  require(graph.has_node(source), "bellman_ford: source not in graph");
  const std::size_t n = graph.node_count();
  BellmanFordResult result{source, std::vector<double>(n, kUnreached),
                           std::vector<NodeId>(n)};
  result.distance[source.value()] = 0.0;

  for (std::size_t round = 0; round + 1 < std::max<std::size_t>(n, 1);
       ++round) {
    bool changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (result.distance[u] == kUnreached) continue;
      const NodeId from{static_cast<NodeId::underlying_type>(u)};
      for (const Edge& e : graph.neighbors(from)) {
        const double candidate = result.distance[u] + e.weight;
        if (candidate < result.distance[e.to.value()]) {
          result.distance[e.to.value()] = candidate;
          result.predecessor[e.to.value()] = from;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return result;
}

}  // namespace vod::routing
