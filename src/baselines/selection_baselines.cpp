#include "baselines/selection_baselines.h"

#include <algorithm>
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

}  // namespace

RandomHolderPolicy::RandomHolderPolicy(const net::Topology& topology,
                                       db::FullAccessView catalog,
                                       db::LimitedAccessView network_state,
                                       Rng rng)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state),
      rng_(std::move(rng)),
      one_hop_(topology.link_count(), 1.0) {}

std::optional<stream::Selection> RandomHolderPolicy::select(NodeId home,
                                                            VideoId video) {
  const auto holders = online_holders(catalog_, network_state_, video);
  if (holders.empty()) return std::nullopt;
  const NodeId server = holders[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(holders.size()) - 1))];
  if (server == home) {
    return stream::Selection{server, routing::local_route(home)};
  }
  auto path = routing::min_hop(topology_, one_hop_, home).path_to(server);
  if (!path) return std::nullopt;
  return stream::Selection{server, routing::make_route(std::move(*path))};
}

NearestByHopsPolicy::NearestByHopsPolicy(const net::Topology& topology,
                                         db::FullAccessView catalog,
                                         db::LimitedAccessView network_state)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state),
      one_hop_(topology.link_count(), 1.0) {}

std::optional<stream::Selection> NearestByHopsPolicy::select(NodeId home,
                                                             VideoId video) {
  const auto holders = online_holders(catalog_, network_state_, video);
  if (holders.empty()) return std::nullopt;
  if (std::binary_search(holders.begin(), holders.end(), home)) {
    return stream::Selection{home, routing::local_route(home)};
  }
  const routing::ShortestPaths tree =
      routing::min_hop(topology_, one_hop_, home);

  // Holders ascend, so a strict improvement keeps the lowest id on a tie.
  std::optional<NodeId> best;
  for (const NodeId server : holders) {
    if (!tree.reachable(server)) continue;
    if (!best || tree.distance_to(server) < tree.distance_to(*best)) {
      best = server;
    }
  }
  if (!best) return std::nullopt;
  return stream::Selection{*best, routing::make_route(*tree.path_to(*best))};
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
