// Server-level striping — the paper's future-work extension.
//
// "We could have even better results if the various videos were stripped
//  not on the hard disks of one server but of different servers according
//  to the popularity.  This means that the most popular technique ... will
//  not be imposed on whole videos but on video strips."
//
// DistributedStripePlacer assigns each video's strips cyclically across a
// popularity-ordered subset of servers; StripedSelectionPolicy routes
// cluster k to the server holding strip k (falling back to the VRA when the
// strip's holder is offline).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "db/database.h"
#include "net/topology.h"
#include "stream/policy.h"
#include "vra/vra.h"

namespace vod::service {

/// A video's strip-to-server assignment.
struct StripeAssignment {
  VideoId video;
  /// Server holding strip k is servers[k % servers.size()].
  std::vector<NodeId> servers;
};

/// Plans strip placement: the `replica_count` servers chosen per title are
/// rotated with the title's popularity rank so popular titles' strips are
/// spread across different starting servers (load dispersion).
class DistributedStripePlacer {
 public:
  /// `servers` in any fixed order; `replica_count` in [1, servers.size()].
  DistributedStripePlacer(std::vector<NodeId> servers,
                          std::size_t replica_count);

  /// Assigns strips for `videos` given in popularity-rank order.
  [[nodiscard]] std::vector<StripeAssignment> plan(
      const std::vector<VideoId>& videos) const;

 private:
  std::vector<NodeId> servers_;
  std::size_t replica_count_;
};

/// Routes each cluster to the server assigned to that strip, over the
/// VRA's cached least-LVN route (Vra::route); unknown videos, and strips
/// whose holder is offline, fall back to the VRA's own selection.
class StripedSelectionPolicy final : public stream::ServerSelectionPolicy {
 public:
  /// `vra` must outlive the policy.
  StripedSelectionPolicy(const vra::Vra& vra,
                         std::vector<StripeAssignment> assignments);

  [[nodiscard]] std::optional<stream::Selection> select(
      NodeId home, VideoId video) override;
  [[nodiscard]] std::optional<stream::Selection> select_cluster(
      NodeId home, VideoId video, std::size_t cluster_index) override;
  [[nodiscard]] const char* name() const override {
    return "striped-servers";
  }

 private:
  const vra::Vra& vra_;
  // vodlint:dense-ok(sparse: only the striped titles, fixed at construction)
  std::map<VideoId, StripeAssignment> assignments_;
};

}  // namespace vod::service
