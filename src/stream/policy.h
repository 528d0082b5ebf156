// Server-selection policy interface.
//
// The streaming layer asks a policy, before every cluster fetch, which
// server to pull the next cluster from.  The paper's answer is the VRA
// (re-run continuously, enabling mid-stream switching); the baselines
// answer differently.
#pragma once

#include <map>
#include <optional>
#include <utility>

#include "common/ids.h"
#include "routing/path.h"
#include "vra/vra.h"

namespace vod::stream {

/// A policy's answer: the source server and the route to it (a route with
/// no links = the client's home server serves locally).  The route is
/// shared, not copied: the VRA's answer is the object its cache holds.
struct Selection {
  NodeId server;
  routing::Route route;

  [[nodiscard]] const routing::Path& path() const { return *route; }
};

class ServerSelectionPolicy {
 public:
  virtual ~ServerSelectionPolicy() = default;

  /// Chooses a source for the next cluster of `video` for a client homed at
  /// `home`; nullopt when no server can currently provide it.
  [[nodiscard]] virtual std::optional<Selection> select(NodeId home,
                                                        VideoId video) = 0;

  /// Cluster-aware variant; the default ignores the index (the paper's
  /// VRA re-runs the same selection for every cluster).  Policies for
  /// strip-level placement (the paper's future-work extension) override
  /// this to route cluster k to the server holding strip k.
  [[nodiscard]] virtual std::optional<Selection> select_cluster(
      NodeId home, VideoId video, std::size_t /*cluster_index*/) {
    return select(home, video);
  }

  /// Human-readable name for bench output.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The paper's policy: run the VRA afresh for every cluster.
///
/// `switch_hysteresis` is an extension beyond the paper (default 0 =
/// paper behaviour): once a source is chosen for a (home, video) pair, the
/// policy switches away only when the new best path is cheaper than
/// staying by more than the given fraction.  Because the SNMP counters
/// include the session's own flow, a zero-hysteresis VRA penalizes
/// whatever path it is currently using and can oscillate between equally
/// good replicas; a small margin suppresses that flapping.
class VraPolicy final : public ServerSelectionPolicy {
 public:
  /// `vra` must outlive the policy.  `switch_hysteresis` in [0, 1).
  explicit VraPolicy(const vra::Vra& vra, double switch_hysteresis = 0.0);

  [[nodiscard]] std::optional<Selection> select(NodeId home,
                                                VideoId video) override;
  [[nodiscard]] const char* name() const override { return "VRA"; }

  /// Forgets sticky choices (between benchmark repetitions).
  void reset() { last_choice_.clear(); }

 private:
  const vra::Vra& vra_;
  double hysteresis_;
  std::map<std::pair<NodeId, VideoId>, NodeId> last_choice_;
};

}  // namespace vod::stream
