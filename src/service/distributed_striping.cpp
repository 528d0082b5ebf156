#include "service/distributed_striping.h"

#include <stdexcept>

#include "common/contract.h"
#include "routing/dijkstra.h"

namespace vod::service {

DistributedStripePlacer::DistributedStripePlacer(std::vector<NodeId> servers,
                                                 std::size_t replica_count)
    : servers_(std::move(servers)), replica_count_(replica_count) {
  require(!servers_.empty(), "DistributedStripePlacer: no servers");
  require(!(replica_count_ == 0 || replica_count_ > servers_.size()),
      "DistributedStripePlacer: replica_count outside [1, servers]");
}

std::vector<StripeAssignment> DistributedStripePlacer::plan(
    const std::vector<VideoId>& videos) const {
  std::vector<StripeAssignment> out;
  out.reserve(videos.size());
  for (std::size_t rank = 0; rank < videos.size(); ++rank) {
    StripeAssignment assignment;
    assignment.video = videos[rank];
    assignment.servers.reserve(replica_count_);
    // Rotate the server ring by popularity rank so each popular title's
    // strip-0 lands on a different server.
    for (std::size_t r = 0; r < replica_count_; ++r) {
      assignment.servers.push_back(
          servers_[(rank + r) % servers_.size()]);
    }
    out.push_back(std::move(assignment));
  }
  return out;
}

StripedSelectionPolicy::StripedSelectionPolicy(
    const vra::Vra& vra, std::vector<StripeAssignment> assignments)
    : vra_(vra) {
  for (StripeAssignment& assignment : assignments) {
    require(!assignment.servers.empty(),
        "StripedSelectionPolicy: empty server list");
    assignments_.emplace(assignment.video, std::move(assignment));
  }
}

std::optional<stream::Selection> StripedSelectionPolicy::select(
    NodeId home, VideoId video) {
  return select_cluster(home, video, 0);
}

std::optional<stream::Selection> StripedSelectionPolicy::select_cluster(
    NodeId home, VideoId video, std::size_t cluster_index) {
  const auto it = assignments_.find(video);
  if (it == assignments_.end()) {
    // Not strip-placed: the regular VRA handles it.
    const auto decision = vra_.select_server(home, video);
    if (!decision) return std::nullopt;
    return stream::Selection{decision->server, decision->path};
  }
  const StripeAssignment& assignment = it->second;
  const NodeId holder =
      assignment.servers[cluster_index % assignment.servers.size()];
  if (holder == home) {
    return stream::Selection{home, routing::Path{{home}, {}, 0.0}};
  }
  auto path = routing::shortest_path(vra_.routing_graph(), home, holder);
  if (!path) return std::nullopt;
  return stream::Selection{holder, std::move(*path)};
}

}  // namespace vod::service
