#include "routing/dijkstra.h"

#include <algorithm>
#include <cmath>
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

ShortestPaths dijkstra(const net::Topology& topology,
                       std::span<const double> weights, NodeId source,
                       DijkstraTrace* trace) {
  require(topology.has_node(source), "dijkstra: source not in topology");
  require(weights.size() == topology.link_count(),
      "dijkstra: need one weight per link");
  for (const double weight : weights) {
    require(!std::isnan(weight), "dijkstra: NaN link weight");
    require(!(weight < 0.0), "dijkstra: negative link weight");
  }
  const std::size_t n = topology.node_count();
  std::vector<double> dist(n, kUnreached);
  std::vector<NodeId> pred(n);
  std::vector<LinkId> via(n);
  std::vector<bool> done(n, false);
  dist[source.value()] = 0.0;

  using QueueEntry = std::pair<double, NodeId::underlying_type>;
  std::vector<QueueEntry> queue_storage;
  queue_storage.reserve(n);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      frontier{std::greater<>{}, std::move(queue_storage)};
  frontier.emplace(0.0, source.value());

  // The permanent set, in order, for the trace alone.
  std::vector<NodeId> permanent;
  if (trace != nullptr) permanent.reserve(n);
  const std::vector<net::LinkInfo>& links = topology.links();

  while (!frontier.empty()) {
    const auto [d, u_raw] = frontier.top();
    frontier.pop();
    const NodeId u{u_raw};
    if (done[u_raw]) continue;  // stale entry
    done[u_raw] = true;

    // Adjacent links in ascending id order.
    for (const LinkId link : topology.links_adjacent_to(u)) {
      const double weight = weights[link.value()];
      if (weight == kNotRoutable) continue;
      const net::LinkInfo& info = links[link.value()];
      const auto v = (info.a == u ? info.b : info.a).value();
      const double candidate = d + weight;
      if (candidate < dist[v]) {
        dist[v] = candidate;
        pred[v] = u;
        via[v] = link;
        frontier.emplace(candidate, v);
      }
    }

    if (trace != nullptr) {
      permanent.push_back(u);
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

}  // namespace vod::routing
