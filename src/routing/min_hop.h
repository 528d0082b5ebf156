// Minimum-hop routing (baseline).
//
// Ignores all load information and routes over the fewest links — what a
// plain static routing table would do.  Used by the baseline comparison
// benches to show what the VRA's load-aware weights buy, and by the VRA's
// degraded mode when its link statistics can no longer be trusted.
#pragma once

#include <span>

#include "common/ids.h"
#include "net/topology.h"
#include "routing/dijkstra.h"

namespace vod::routing {

/// Fewest-hops tree from `source` (BFS) over the links whose weight is not
/// kNotRoutable; the other weights are ignored and each path's cost is its
/// hop count.  Neighbours are visited in ascending (node, link id) order,
/// so among equal-hop routes the lexicographically smallest node sequence
/// wins, and between parallel links the lower link id.  Throws
/// std::invalid_argument if the source is not in the topology or `weights`
/// does not hold one weight per link.
ShortestPaths min_hop(const net::Topology& topology,
                      std::span<const double> weights, NodeId source);

}  // namespace vod::routing
