// Dijkstra single-source shortest paths, with the optional step-by-step
// trace the paper prints as Tables 4 and 5.
//
// Routing runs on the one network there is, net::Topology, with a weight
// per link supplied by the caller (the VRA's LVNs, indexed by link id).
// A link of weight kNotRoutable (+∞) is never relaxed: that is how a link
// the database reports down is taken out of the graph.
//
// The trace records, after each node is moved into the finalized set, the
// tentative distance and current best path to every other node — exactly the
// row format of the paper's tables (R = unreachable-so-far).
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "net/topology.h"
#include "routing/path.h"

namespace vod::routing {

/// Distance value used for "not yet reached" (the paper's `R`).
inline constexpr double kUnreached = std::numeric_limits<double>::infinity();

/// The weight of a link routing must not use.
inline constexpr double kNotRoutable = std::numeric_limits<double>::infinity();

/// The shortest-path tree from one source.
class ShortestPaths {
 public:
  ShortestPaths(NodeId source, std::vector<double> distance,
                std::vector<NodeId> predecessor, std::vector<LinkId> via_link)
      : source_(source),
        distance_(std::move(distance)),
        predecessor_(std::move(predecessor)),
        via_link_(std::move(via_link)) {}

  [[nodiscard]] NodeId source() const { return source_; }

  /// Distance to `node`, kUnreached if disconnected.
  [[nodiscard]] double distance_to(NodeId node) const;

  [[nodiscard]] bool reachable(NodeId node) const {
    return distance_to(node) != kUnreached;
  }

  /// Full path source -> node; nullopt if unreachable.
  [[nodiscard]] std::optional<Path> path_to(NodeId node) const;

 private:
  NodeId source_;
  std::vector<double> distance_;
  std::vector<NodeId> predecessor_;
  std::vector<LinkId> via_link_;
};

/// One row of the paper's Dijkstra tables: the state after `finalized` was
/// added to the permanent set.
struct DijkstraStep {
  /// Node moved to the permanent set at this step (the source for step 1).
  NodeId finalized;
  /// The permanent set, in insertion order, up to and including `finalized`.
  std::vector<NodeId> permanent_set;
  /// Tentative distances to every node (kUnreached = the paper's "R").
  std::vector<double> tentative;
  /// Current best-known path to every node (empty if unreached).
  std::vector<std::vector<NodeId>> best_path;
};

using DijkstraTrace = std::vector<DijkstraStep>;

/// Runs Dijkstra from `source` over `topology`, link l weighing
/// `weights[l]`.  If `trace` is non-null it receives one DijkstraStep per
/// finalized node.  Throws std::invalid_argument if the source is not in
/// the topology, or unless `weights` holds one weight per link, none of
/// them negative or NaN (the paper's "negative validation" is a penalty
/// magnitude, not a signed weight — see DESIGN.md).
ShortestPaths dijkstra(const net::Topology& topology,
                       std::span<const double> weights, NodeId source,
                       DijkstraTrace* trace = nullptr);

}  // namespace vod::routing
