// Rendering of Dijkstra traces in the paper's table format.
//
// Tables 4 and 5 of the paper show, per algorithm step, the permanent node
// set and the tentative distance + current path for each non-source node.
// This helper reproduces that layout so the bench output can be compared
// against the paper cell by cell.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "routing/dijkstra.h"
#include "net/topology.h"

namespace vod::routing {

/// Renders `trace` (from dijkstra() run on `topology` from `source`) as an
/// aligned text table with one row per step and, for every node except the
/// source, a "D<name>" distance column and a "Path" column.  Unreached
/// entries print as "R" / "-" exactly like the paper.
std::string format_dijkstra_trace(const net::Topology& topology,
                                  NodeId source,
                                  const DijkstraTrace& trace);

}  // namespace vod::routing
