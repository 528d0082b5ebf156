// Bellman–Ford single-source shortest paths, a test-only oracle.
//
// The property tests hold Dijkstra to it (they must agree on every
// non-negative-weight graph); it doubles as a reference implementation for
// readers comparing textbook algorithms (the paper cites [5], [6]).  The
// service never runs it, so it lives with the tests, not in src/.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "routing/graph.h"
#include "routing/path.h"

namespace vod::routing {

/// Result of a Bellman–Ford run: per-node distances (kUnreached when
/// disconnected) and reconstructed paths.
struct BellmanFordResult {
  NodeId source;
  std::vector<double> distance;
  std::vector<NodeId> predecessor;

  [[nodiscard]] std::optional<Path> path_to(NodeId node,
                                            const Graph& graph) const;
};

/// Runs Bellman–Ford from `source`.  Graph weights are non-negative by
/// construction, so negative-cycle detection is an internal assertion.
BellmanFordResult bellman_ford(const Graph& graph, NodeId source);

}  // namespace vod::routing
