#include "baselines/selection_baselines.h"

#include <vector>

#include "routing/min_hop.h"

namespace vod::baselines {

namespace {

/// Online holders of `video`, ascending node id.
std::vector<NodeId> online_holders(const db::FullAccessView& catalog,
                                   const db::LimitedAccessView& state,
                                   VideoId video) {
  std::vector<NodeId> holders = catalog.servers_with_title(video);
  std::erase_if(holders,
                [&](NodeId server) { return !state.server_online(server); });
  return holders;
}

/// The topology as an unweighted routing graph.
routing::Graph hop_graph(const net::Topology& topology) {
  routing::Graph graph;
  for (std::size_t n = 0; n < topology.node_count(); ++n) {
    graph.add_node(
        topology.node_name(NodeId{static_cast<NodeId::underlying_type>(n)}));
  }
  for (const net::LinkInfo& info : topology.links()) {
    graph.add_undirected_edge(info.a, info.b, info.id, 1.0);
  }
  return graph;
}

}  // namespace

RandomHolderPolicy::RandomHolderPolicy(const net::Topology& topology,
                                       db::FullAccessView catalog,
                                       db::LimitedAccessView network_state,
                                       Rng rng)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state),
      rng_(std::move(rng)) {}

std::optional<stream::Selection> RandomHolderPolicy::select(NodeId home,
                                                            VideoId video) {
  const auto holders = online_holders(catalog_, network_state_, video);
  if (holders.empty()) return std::nullopt;
  const NodeId server = holders[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(holders.size()) - 1))];
  if (server == home) {
    return stream::Selection{server, routing::local_route(home)};
  }
  const routing::Graph graph = hop_graph(topology_);
  auto path = routing::min_hop_path(graph, home, server);
  if (!path) return std::nullopt;
  return stream::Selection{server, routing::make_route(std::move(*path))};
}

NearestByHopsPolicy::NearestByHopsPolicy(const net::Topology& topology,
                                         db::FullAccessView catalog,
                                         db::LimitedAccessView network_state)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state) {}

std::optional<stream::Selection> NearestByHopsPolicy::select(NodeId home,
                                                             VideoId video) {
  const auto holders = online_holders(catalog_, network_state_, video);
  if (holders.empty()) return std::nullopt;
  const routing::Graph graph = hop_graph(topology_);

  NodeId best_server;
  std::optional<routing::Path> best;
  for (const NodeId server : holders) {
    if (server == home) {
      return stream::Selection{server, routing::local_route(home)};
    }
    auto path = routing::min_hop_path(graph, home, server);
    if (!path) continue;
    if (!best || path->cost < best->cost) {
      best = std::move(path);
      best_server = server;
    }
  }
  if (!best) return std::nullopt;
  return stream::Selection{best_server, routing::make_route(std::move(*best))};
}

std::optional<stream::Selection> StaticOncePolicy::select(NodeId home,
                                                          VideoId video) {
  const auto key = std::make_pair(home, video);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto selection = inner_.select(home, video);
  if (selection) cache_.emplace(key, *selection);
  return selection;
}

}  // namespace vod::baselines
