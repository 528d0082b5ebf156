// Link and node validation — equations (1)–(4) of the paper.
//
//   LVN_i = max{NV_a, NV_b} + LU_i                                  (1)
//   NV_a  = ( Σ UBW_m ) / ( Σ LBW_m ), m ∈ links adjacent to a      (2)
//   LU_i  = LT_i · LV_i                                             (3)
//   LV_i  = link bandwidth (Mbps) / NormalizationConstant           (4)
//
// NV captures the load of the nodes at the ends of the link, LU the link's
// own traffic aggravation; the sum is the (positive, larger-is-worse)
// Dijkstra weight.  The NormalizationConstant "approaches 10" in the paper.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "db/database.h"
#include "net/topology.h"
#include "routing/graph.h"

namespace vod::vra {

/// Snapshot of one link's statistics as the VRA consumes them.
struct LinkStats {
  Mbps used;                     // UBW — used bandwidth
  Mbps total;                    // LBW — total bandwidth
  double traffic_fraction = 0.0; // LT — used/total as reported by SNMP
  bool online = true;            // false: the link is down, do not route on it
};

/// Where the VRA reads link statistics from.  Production use reads the
/// database's limited-access view; tests and the table benches feed raw
/// numbers.
class LinkStatsProvider {
 public:
  virtual ~LinkStatsProvider() = default;
  [[nodiscard]] virtual LinkStats stats(LinkId link) const = 0;
};

/// Stats straight out of the limited-access database sub-module (the
/// paper's arrangement: SNMP writes them, the VRA reads them).
class DbLinkStatsProvider final : public LinkStatsProvider {
 public:
  explicit DbLinkStatsProvider(db::LimitedAccessView view) : view_(view) {}
  [[nodiscard]] LinkStats stats(LinkId link) const override;

 private:
  db::LimitedAccessView view_;
};

/// Fixed stats from a table — used to replay the paper's Table 2 exactly.
class MapLinkStatsProvider final : public LinkStatsProvider {
 public:
  void set(LinkId link, LinkStats stats);
  [[nodiscard]] LinkStats stats(LinkId link) const override;

 private:
  std::vector<std::optional<LinkStats>> stats_;
};

/// Tuning of the validation equations.
struct ValidationOptions {
  /// Eq. 4 denominator; the paper suggests "an integer approaching 10".
  double normalization_constant = 10.0;
};

/// Computes NV / LU / LVN over a topology from a stats provider.
class LvnCalculator {
 public:
  /// References must outlive the calculator.
  LvnCalculator(const net::Topology& topology,
                const LinkStatsProvider& stats,
                ValidationOptions options = {});

  /// Eq. 2 for every node, indexed by node id.  A single pass over the
  /// links in id order accumulates each node's used/total sums.
  [[nodiscard]] std::vector<double> node_validations() const;

  /// Eq. 1 — the Dijkstra weight of `link`, from the endpoint validations
  /// node_validations() returned.
  [[nodiscard]] double link_validation_number(
      LinkId link, const std::vector<double>& node_validations) const;

  /// Eq. 4.
  [[nodiscard]] double link_value(LinkId link) const;

  /// Eq. 3.
  [[nodiscard]] double link_utilization_term(LinkId link) const;

  /// Builds the weighted routing graph: one graph node per topology node
  /// (names preserved), one edge per online link, weight = LVN.  Links
  /// whose statistics report them down are omitted, so Dijkstra routes
  /// around failures.
  [[nodiscard]] routing::Graph build_weighted_graph() const;

 private:
  const net::Topology& topology_;
  const LinkStatsProvider& stats_;
  ValidationOptions options_;
};

}  // namespace vod::vra
