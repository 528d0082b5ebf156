#include "routing/trace_format.h"

#include <sstream>

#include "common/table.h"

namespace vod::routing {

std::string format_dijkstra_trace(const net::Topology& topology,
                                  NodeId source,
                                  const DijkstraTrace& trace) {
  // Column set: Step | Nodes | for each non-source node: D<name> | Path
  std::vector<NodeId> columns;
  for (std::size_t v = 0; v < topology.node_count(); ++v) {
    const NodeId node{static_cast<NodeId::underlying_type>(v)};
    if (node != source) columns.push_back(node);
  }

  std::vector<std::string> headers{"Step", "Nodes"};
  for (NodeId node : columns) {
    headers.push_back("D" + topology.node_name(node));
    headers.push_back("Path");
  }
  TextTable table{std::move(headers)};

  for (std::size_t s = 0; s < trace.size(); ++s) {
    const DijkstraStep& step = trace[s];
    std::ostringstream set;
    set << '{';
    for (std::size_t i = 0; i < step.permanent_set.size(); ++i) {
      if (i > 0) set << ',';
      set << topology.node_name(step.permanent_set[i]);
    }
    set << '}';

    std::vector<std::string> row{std::to_string(s + 1), set.str()};
    for (NodeId node : columns) {
      const double d = step.tentative[node.value()];
      if (d == kUnreached) {
        row.emplace_back("R");
        row.emplace_back("-");
      } else {
        row.push_back(TextTable::num(d, 4));
        std::string path;
        for (std::size_t i = 0; i < step.best_path[node.value()].size();
             ++i) {
          if (i > 0) path += ',';
          path += topology.node_name(step.best_path[node.value()][i]);
        }
        row.push_back(std::move(path));
      }
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace vod::routing
