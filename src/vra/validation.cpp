#include "vra/validation.h"

#include <algorithm>
#include <stdexcept>

#include "common/contract.h"
#include "routing/dijkstra.h"

namespace vod::vra {

LvnCalculator::LvnCalculator(const net::Topology& topology,
                             db::LimitedAccessView stats,
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
    const db::LinkRecord& s = stats_.link(info.id);
    used_sum[info.a.value()] += s.used_bandwidth.value();
    total_sum[info.a.value()] += s.total_bandwidth.value();
    used_sum[info.b.value()] += s.used_bandwidth.value();
    total_sum[info.b.value()] += s.total_bandwidth.value();
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
  return stats_.link(link).total_bandwidth.value() /
         options_.normalization_constant;
}

double LvnCalculator::link_utilization_term(LinkId link) const {
  return stats_.link(link).utilization * link_value(link);
}

void LvnCalculator::fill_link_weights(std::vector<double>& weights) const {
  const std::vector<double> nv = node_validations();
  weights.resize(topology_.link_count());
  for (const net::LinkInfo& info : topology_.links()) {
    weights[info.id.value()] = stats_.link(info.id).online
                                   ? link_validation_number(info.id, nv)
                                   : routing::kNotRoutable;
  }
}

}  // namespace vod::vra
