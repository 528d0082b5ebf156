#include "service/audit.h"

#include <stdexcept>

#include "common/contract.h"
#include "common/table.h"

namespace vod::service {

DecisionAudit::DecisionAudit(std::size_t capacity) : capacity_(capacity) {
  require(capacity != 0, "DecisionAudit: capacity must be positive");
}

void DecisionAudit::record(AuditEntry entry) {
  ++recorded_;
  entries_.push_back(entry);
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::string DecisionAudit::format_recent(
    std::size_t count,
    const std::function<std::string(NodeId)>& node_name) const {
  TextTable table{{"t (s)", "home", "video", "cluster", "served by",
                   "cost", "hops"}};
  const std::size_t first =
      entries_.size() > count ? entries_.size() - count : 0;
  for (std::size_t i = first; i < entries_.size(); ++i) {
    const AuditEntry& entry = entries_[i];
    table.add_row({TextTable::num(entry.at.seconds(), 1),
                   node_name(entry.home),
                   std::to_string(entry.video.value()),
                   std::to_string(entry.cluster_index),
                   entry.satisfied ? node_name(entry.server) : "(none)",
                   entry.satisfied ? TextTable::num(entry.path_cost, 4)
                                   : "-",
                   entry.satisfied ? std::to_string(entry.hop_count)
                                   : "-"});
  }
  return table.render();
}

std::optional<stream::Selection> AuditingPolicy::select_cluster(
    NodeId home, VideoId video, std::size_t cluster_index) {
  auto selection = inner_.select_cluster(home, video, cluster_index);
  AuditEntry entry;
  entry.at = sim_.now();
  entry.home = home;
  entry.video = video;
  entry.cluster_index = cluster_index;
  entry.satisfied = selection.has_value();
  if (selection) {
    entry.server = selection->server;
    entry.path_cost = selection->path().cost;
    entry.hop_count = selection->path().hop_count();
  }
  audit_.record(entry);
  return selection;
}

}  // namespace vod::service
