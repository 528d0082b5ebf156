// Bellman–Ford single-source shortest paths, a test-only oracle.
//
// The property tests hold Dijkstra to it (they must agree on every
// non-negative-weight graph); it doubles as a reference implementation for
// readers comparing textbook algorithms (the paper cites [5], [6]).  The
// service never runs it, so it lives with the tests, not in src/.  Like
// routing::dijkstra it runs on a topology with one weight per link, and a
// link of weight routing::kNotRoutable is not used.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "net/topology.h"
#include "routing/path.h"

namespace vod::routing {

/// Result of a Bellman–Ford run: per-node distances (kUnreached when
/// disconnected) and reconstructed paths.
struct BellmanFordResult {
  NodeId source;
  std::vector<double> distance;
  std::vector<NodeId> predecessor;

  /// The path to `node`, each hop over the cheapest link joining its two
  /// nodes; nullopt when unreachable.
  [[nodiscard]] std::optional<Path> path_to(
      NodeId node, const net::Topology& topology,
      std::span<const double> weights) const;
};

/// Runs Bellman–Ford from `source`, link l weighing `weights[l]`.  Weights
/// are non-negative, so negative-cycle detection is not needed.
BellmanFordResult bellman_ford(const net::Topology& topology,
                               std::span<const double> weights,
                               NodeId source);

}  // namespace vod::routing
