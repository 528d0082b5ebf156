// Route representation shared by all routing algorithms.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace vod::net {
class Topology;
}

namespace vod::routing {

/// A simple path through the topology: the node sequence (source first), the
/// links traversed (one fewer than nodes), and the total weight.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;
  double cost = 0.0;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
  [[nodiscard]] std::size_t hop_count() const { return links.size(); }
  [[nodiscard]] NodeId source() const { return nodes.front(); }
  [[nodiscard]] NodeId destination() const { return nodes.back(); }

  /// "U2,U1,U4" using the topology's node names (the paper's notation).
  [[nodiscard]] std::string to_string(const net::Topology& topology) const;
};

/// A path shared by every layer that streams over it.  The VRA builds one
/// per (home, server) per links epoch and hands the same object to the
/// policy, the session and the transfer; whoever still holds it keeps it
/// alive after the VRA has moved on to newer link weights.
using Route = std::shared_ptr<const Path>;

[[nodiscard]] inline Route make_route(Path path) {
  return std::make_shared<const Path>(std::move(path));
}

/// The route of a title served at the client's home server: {home}, no
/// links, cost 0.
[[nodiscard]] inline Route local_route(NodeId home) {
  return make_route(Path{{home}, {}, 0.0});
}

}  // namespace vod::routing
