#include "routing/dijkstra.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::routing {

double ShortestPaths::distance_to(NodeId node) const {
  require(!(!node.valid() || node.value() >= distance_.size()),
      "ShortestPaths: unknown node");
  return distance_[node.value()];
}

std::optional<Path> ShortestPaths::path_to(NodeId node) const {
  if (!reachable(node)) return std::nullopt;
  // Count the hops first so both vectors are sized once, then fill them
  // from the back while walking the predecessors.
  std::size_t hops = 0;
  for (NodeId at = node; at != source_; at = predecessor_[at.value()]) ++hops;
  Path path;
  path.cost = distance_[node.value()];
  path.nodes.resize(hops + 1);
  path.links.resize(hops);
  path.nodes.front() = source_;
  std::size_t i = hops;
  for (NodeId at = node; at != source_; at = predecessor_[at.value()]) {
    path.nodes[i] = at;
    path.links[--i] = via_link_[at.value()];
  }
  return path;
}

namespace {

std::vector<NodeId> reconstruct(const std::vector<NodeId>& predecessor,
                                NodeId source, NodeId node) {
  std::vector<NodeId> nodes;
  for (NodeId at = node; at != source; at = predecessor[at.value()]) {
    nodes.push_back(at);
  }
  nodes.push_back(source);
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

ShortestPaths dijkstra(const Graph& graph, NodeId source,
                       DijkstraTrace* trace) {
  require(graph.has_node(source), "dijkstra: source not in graph");
  const std::size_t n = graph.node_count();
  std::vector<double> dist(n, kUnreached);
  std::vector<NodeId> pred(n);
  std::vector<LinkId> via(n);
  std::vector<bool> done(n, false);
  dist[source.value()] = 0.0;

  using QueueEntry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      frontier;
  frontier.emplace(0.0, source.value());

  std::vector<NodeId> permanent;
  permanent.reserve(n);

  while (!frontier.empty()) {
    const auto [d, u_raw] = frontier.top();
    frontier.pop();
    const NodeId u{u_raw};
    if (done[u_raw]) continue;  // stale entry
    done[u_raw] = true;
    permanent.push_back(u);

    for (const Edge& edge : graph.neighbors(u)) {
      const auto v = edge.to.value();
      const double candidate = d + edge.weight;
      if (candidate < dist[v]) {
        dist[v] = candidate;
        pred[v] = u;
        via[v] = edge.link;
        frontier.emplace(candidate, v);
      }
    }

    if (trace != nullptr) {
      DijkstraStep step;
      step.finalized = u;
      step.permanent_set = permanent;
      step.tentative = dist;
      step.best_path.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        if (dist[v] != kUnreached) {
          step.best_path[v] = reconstruct(pred, source, NodeId{
              static_cast<NodeId::underlying_type>(v)});
        }
      }
      trace->push_back(std::move(step));
    }
  }

  return ShortestPaths{source, std::move(dist), std::move(pred),
                       std::move(via)};
}

std::optional<Path> shortest_path(const Graph& graph, NodeId from,
                                  NodeId to) {
  require(graph.has_node(to), "shortest_path: destination not in graph");
  return dijkstra(graph, from).path_to(to);
}

}  // namespace vod::routing
