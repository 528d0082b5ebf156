// Baseline server-selection policies.
//
// The paper argues the VRA beats naive selection; these are the naive
// selectors the comparison benches measure it against:
//   * RandomHolderPolicy  — any server with the title, routed min-hop
//   * NearestByHopsPolicy — the topologically closest holder (static
//                           routing-table behaviour, no load awareness)
//   * StaticOncePolicy    — decide like the VRA at session start but never
//                           re-evaluate (isolates the value of the paper's
//                           continuous re-routing)
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "db/database.h"
#include "net/topology.h"
#include "stream/policy.h"

namespace vod::baselines {

/// Uniformly random online holder; min-hop route.
class RandomHolderPolicy final : public stream::ServerSelectionPolicy {
 public:
  RandomHolderPolicy(const net::Topology& topology,
                     db::FullAccessView catalog,
                     db::LimitedAccessView network_state, Rng rng);

  [[nodiscard]] std::optional<stream::Selection> select(
      NodeId home, VideoId video) override;
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  const net::Topology& topology_;
  db::FullAccessView catalog_;
  db::LimitedAccessView network_state_;
  Rng rng_;
  /// One hop per link: min-hop routes over every link of the topology.
  std::vector<double> one_hop_;
};

/// The holder with the fewest hops from home (ties: lowest node id).
class NearestByHopsPolicy final : public stream::ServerSelectionPolicy {
 public:
  NearestByHopsPolicy(const net::Topology& topology,
                      db::FullAccessView catalog,
                      db::LimitedAccessView network_state);

  [[nodiscard]] std::optional<stream::Selection> select(
      NodeId home, VideoId video) override;
  [[nodiscard]] const char* name() const override { return "nearest"; }

 private:
  const net::Topology& topology_;
  db::FullAccessView catalog_;
  db::LimitedAccessView network_state_;
  /// One hop per link: min-hop routes over every link of the topology.
  std::vector<double> one_hop_;
};

/// Delegates the first decision per (home, video) to an inner policy, then
/// repeats it forever — the "no mid-stream re-routing" ablation.
class StaticOncePolicy final : public stream::ServerSelectionPolicy {
 public:
  /// `inner` must outlive this policy.
  explicit StaticOncePolicy(stream::ServerSelectionPolicy& inner)
      : inner_(inner) {}

  [[nodiscard]] std::optional<stream::Selection> select(
      NodeId home, VideoId video) override;
  [[nodiscard]] const char* name() const override { return "static-once"; }

  /// Forgets all cached decisions (call between benchmark repetitions).
  void reset() { cache_.clear(); }

 private:
  stream::ServerSelectionPolicy& inner_;
  std::map<std::pair<NodeId, VideoId>, stream::Selection> cache_;
};

}  // namespace vod::baselines
