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

#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "db/database.h"
#include "net/topology.h"

namespace vod::vra {

/// Tuning of the validation equations.
struct ValidationOptions {
  /// Eq. 4 denominator; the paper suggests "an integer approaching 10".
  double normalization_constant = 10.0;
};

/// Computes NV / LU / LVN over a topology from the link statistics in the
/// limited-access database (the paper's arrangement: SNMP writes them, the
/// VRA reads them).  Each link's total bandwidth (LBW) is its database
/// entry's, which is the topology's capacity.
class LvnCalculator {
 public:
  /// `topology` must outlive the calculator; `stats` is a view of a
  /// database built from it.
  LvnCalculator(const net::Topology& topology, db::LimitedAccessView stats,
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

  /// Fills `weights` with the Dijkstra weight of every link, indexed by
  /// link id: its LVN, or routing::kNotRoutable for a link whose entry
  /// reports it down, so Dijkstra routes around failures.  The vector's
  /// storage is reused.
  void fill_link_weights(std::vector<double>& weights) const;

 private:
  const net::Topology& topology_;
  db::LimitedAccessView stats_;
  ValidationOptions options_;
};

}  // namespace vod::vra
