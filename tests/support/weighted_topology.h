// A topology plus one weight per link: the graph the routing layer reads.
// Routing tests build their networks through it so each link gets its
// weight in id order.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/topology.h"

namespace vod::test {

struct WeightedTopology {
  net::Topology topology;
  std::vector<double> weights;

  NodeId node(std::string name) { return topology.add_node(std::move(name)); }

  /// Adds a link of capacity 1 Mbps weighing `weight`.
  LinkId link(NodeId a, NodeId b, double weight) {
    weights.push_back(weight);
    return topology.add_link(a, b, Mbps{1.0});
  }
};

/// `nodes` nodes named n0, n1, ...; each pair i < j is joined with
/// probability `p` by a link weighing uniform [lo, hi).
inline WeightedTopology random_weighted_topology(Rng& rng, std::size_t nodes,
                                                 double p, double lo,
                                                 double hi) {
  WeightedTopology out;
  for (std::size_t i = 0; i < nodes; ++i) {
    out.node("n" + std::to_string(i));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = i + 1; j < nodes; ++j) {
      if (rng.bernoulli(p)) {
        out.link(NodeId{static_cast<NodeId::underlying_type>(i)},
                 NodeId{static_cast<NodeId::underlying_type>(j)},
                 rng.uniform(lo, hi));
      }
    }
  }
  return out;
}

}  // namespace vod::test
