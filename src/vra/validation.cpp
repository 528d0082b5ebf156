#include "vra/validation.h"

#include <algorithm>
#include <stdexcept>

#include "common/contract.h"

namespace vod::vra {

LinkStats DbLinkStatsProvider::stats(LinkId link) const {
  const db::LinkRecord& record = view_.link(link);
  return LinkStats{record.used_bandwidth, record.total_bandwidth,
                   record.utilization, record.online};
}

void MapLinkStatsProvider::set(LinkId link, LinkStats stats) {
  require(link.valid(), "MapLinkStatsProvider::set: invalid link");
  require(!(stats.total.value() <= 0.0),
      "MapLinkStatsProvider::set: total bandwidth must be positive");
  if (stats_.size() <= link.value()) stats_.resize(link.value() + 1);
  stats_[link.value()] = stats;
}

LinkStats MapLinkStatsProvider::stats(LinkId link) const {
  require_found(
      !(!link.valid() || link.value() >= stats_.size() || !stats_[link.value()]),
      "MapLinkStatsProvider::stats: unknown link");
  return *stats_[link.value()];
}

LvnCalculator::LvnCalculator(const net::Topology& topology,
                             const LinkStatsProvider& stats,
                             ValidationOptions options)
    : topology_(topology), stats_(stats), options_(std::move(options)) {
  require(!(options_.normalization_constant <= 0.0),
      "LvnCalculator: normalization constant must be positive");
}

std::vector<double> LvnCalculator::node_validations() const {
  const std::size_t n = topology_.node_count();
  std::vector<double> used_sum(n, 0.0);
  std::vector<double> total_sum(n, 0.0);
  for (const net::LinkInfo& info : topology_.links()) {
    const LinkStats s = stats_.stats(info.id);
    used_sum[info.a.value()] += s.used.value();
    total_sum[info.a.value()] += s.total.value();
    used_sum[info.b.value()] += s.used.value();
    total_sum[info.b.value()] += s.total.value();
  }
  // An isolated node imposes no network burden.
  std::vector<double> nv(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (total_sum[i] > 0.0) nv[i] = used_sum[i] / total_sum[i];
  }
  return nv;
}

double LvnCalculator::link_validation_number(
    LinkId link, const std::vector<double>& node_validations) const {
  const net::LinkInfo& info = topology_.link(link);
  const double nv = std::max(node_validations[info.a.value()],
                             node_validations[info.b.value()]);
  return nv + link_utilization_term(link);
}

double LvnCalculator::link_value(LinkId link) const {
  return stats_.stats(link).total.value() / options_.normalization_constant;
}

double LvnCalculator::link_utilization_term(LinkId link) const {
  return stats_.stats(link).traffic_fraction * link_value(link);
}

routing::Graph LvnCalculator::build_weighted_graph() const {
  routing::Graph graph;
  for (std::size_t n = 0; n < topology_.node_count(); ++n) {
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    graph.add_node(topology_.node_name(node));
  }
  const std::vector<double> nv = node_validations();
  for (const net::LinkInfo& info : topology_.links()) {
    if (!stats_.stats(info.id).online) continue;  // route around failures
    graph.add_undirected_edge(info.a, info.b, info.id,
                              link_validation_number(info.id, nv));
  }
  return graph;
}

}  // namespace vod::vra
