#include "routing/path.h"

#include "net/topology.h"

namespace vod::routing {

std::string Path::to_string(const net::Topology& topology) const {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += topology.node_name(nodes[i]);
  }
  return out;
}

}  // namespace vod::routing
