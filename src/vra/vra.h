// The Virtual Routing Algorithm — Figure 5 of the paper.
//
//   1. Find the client's home server (done by the service layer from the
//      client IP; the VRA receives the home NodeId).
//   2. If the home server can provide the title, serve locally and stop.
//   3. Otherwise list every server holding the title, poll which of them
//      can currently provide it (online flag), weight every link with its
//      LVN, run Dijkstra from the home server, and of the least-cost paths
//      to the capable candidates pick the cheapest.
//
// The VRA keeps running during playback: the streaming layer calls
// select_server() again before each cluster, enabling mid-stream switching.
//
// Cached engine: the LVNs are a pure function of the limited-access link
// statistics, which only change when SNMP polls (or an administrator)
// writes them — every 1–2 minutes, and a poll rewrites every link — while
// select_server() runs per cluster fetch.  The VRA routes on the topology
// itself and keeps one vector of link weights (the LVN of each link, +∞
// for a link reported down) and the per-home shortest-path trees, keyed
// on the database's links_changed_epoch(); it refills the weights in
// place and drops the trees when the epoch moves.  Selections are
// bit-for-bit those of a freshly built Vra.  Each tree builds its routes
// lazily, one shared routing::Route per server a lookup asks for, so every
// cluster of every session between two epoch moves streams over the same
// immutable path object.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/id_vector.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "db/database.h"
#include "net/topology.h"
#include "obs/context.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "vra/validation.h"

namespace vod::vra {

/// One candidate source considered by the VRA.
struct Candidate {
  NodeId server;
  routing::Route route;  // least-cost path home -> server

  [[nodiscard]] const routing::Path& path() const { return *route; }
  [[nodiscard]] double cost() const { return route->cost; }
};

/// The VRA's answer for one request.
struct Decision {
  /// True when the home server had the title (Figure 5's first branch).
  bool served_locally = false;
  /// The chosen source server (the home server when served_locally).
  NodeId server;
  /// Least-cost path from the home server to `server` (just {home} when
  /// local): the same object as the first candidate's route.
  routing::Route route;
  /// Every candidate with its least-cost path, sorted by ascending cost
  /// (the chosen one first); empty when served locally.
  std::vector<Candidate> candidates;
  /// True when the decision came from the degraded-mode fallback (min-hop
  /// over links still believed up) because the SNMP statistics were staler
  /// than the configured threshold.
  bool degraded = false;

  [[nodiscard]] const routing::Path& path() const { return *route; }
  [[nodiscard]] double cost() const { return route->cost; }
};

/// Effectiveness counters of the cached engine (reported through
/// service::ServiceReport so benches can assert cache behaviour).
struct VraCacheStats {
  /// Link weights served unchanged (links epoch did not advance).
  std::uint64_t graph_hits = 0;
  /// Link-weight fills (first use, then one per links-epoch move).
  std::uint64_t graph_rebuilds = 0;
  /// Dijkstra trees served from / inserted into the per-home cache.
  std::uint64_t spt_hits = 0;
  std::uint64_t spt_misses = 0;
  /// Routes built: one per (home, server) a selection asked for in each
  /// tree's lifetime, plus one local route per home.
  std::uint64_t routes_built = 0;
};

/// The algorithm object.  Decisions depend only on the database views, so
/// repeated calls between statistics updates are answered from the epoch-
/// keyed cache; behaviour is indistinguishable from recomputing fresh.
class Vra {
 public:
  /// `topology` must outlive the Vra; the views are value facades.
  Vra(const net::Topology& topology, db::FullAccessView catalog,
      db::LimitedAccessView network_state, ValidationOptions options = {});

  /// Runs Figure 5 for a client homed at `home` requesting `video`.
  /// Returns nullopt when no online server holds the title.  (The
  /// Tables 4/5 step table is routing::dijkstra's trace over the topology
  /// and link_weights().)
  [[nodiscard]] std::optional<Decision> select_server(NodeId home,
                                                      VideoId video) const;

  [[nodiscard]] const ValidationOptions& options() const { return options_; }

  /// "Poll all of those servers to find out which ones can provide the
  /// video": here, an online check against the limited-access view.
  [[nodiscard]] bool online(NodeId server) const {
    return network_state_.server_online(server);
  }

  /// The least-LVN route from `home` to `server` over the current link
  /// weights; null when `server` is unreachable.  Built once per
  /// (home, server) per links epoch from the home's cached tree and shared
  /// by every lookup, select_server()'s candidates included.  Counts a
  /// weight hit or fill and a tree hit or miss like a selection would.
  [[nodiscard]] routing::Route route(NodeId home, NodeId server) const;

  // --- degraded mode (SNMP monitor outage fallback) ---

  /// Enables the fallback: when *every* link's statistics are staler than
  /// `max_stats_age` (the monitor is dark, not just one link unreported),
  /// select_server() stops trusting the stale LVNs and routes min-hop over
  /// the links still believed up.  `clock` supplies the current simulation
  /// time; infinity (the default) disables the mode.
  void configure_degraded_mode(Duration max_stats_age,
                               std::function<SimTime()> clock);

  /// True when the next selection would take the degraded path.
  [[nodiscard]] bool degraded_active() const;

  /// Selections answered by the degraded fallback so far.
  [[nodiscard]] std::uint64_t degraded_selection_count() const {
    return degraded_selections_;
  }

  /// The run whose trace receives `vra.select` / `vra.no_source`; nullptr
  /// (the default) traces nothing.  Must outlive the Vra or be reset.
  void set_obs(const obs::Context* context) { obs_ = context; }

  // --- cached engine ---

  /// The Dijkstra weight of every link, indexed by link id: its LVN, or
  /// routing::kNotRoutable for a link the database reports down.  Refilled
  /// in place if the database's links epoch moved (counts a hit or fill
  /// like a request would); the reference is valid until the next
  /// link-state write.
  [[nodiscard]] const std::vector<double>& link_weights() const;

  [[nodiscard]] const VraCacheStats& cache_stats() const {
    return cache_stats_;
  }

 private:
  /// The server is online and the catalog lists it as a holder.
  [[nodiscard]] bool can_provide(NodeId server, VideoId video) const;

  /// The degraded fallback: min-hop paths from `home` to the online
  /// servers among `holders` over the links whose records still say
  /// online, ignoring the (stale) LVN weights.
  [[nodiscard]] std::optional<Decision> select_degraded(
      NodeId home, const std::vector<NodeId>& holders) const;

  /// A home's shortest-path tree and the routes built from it so far,
  /// indexed by server node (null until a lookup first needs one).  Both
  /// are dropped together when the link weights are refilled.
  struct SptEntry {
    routing::ShortestPaths tree;
    std::vector<routing::Route> routes;
  };

  /// The cached tree from `home` over the current link weights.
  [[nodiscard]] SptEntry& tree_from(NodeId home) const;

  /// The route to `server` in `entry`'s tree, built on first use; null
  /// when `server` is unreachable.
  [[nodiscard]] const routing::Route& route_in(SptEntry& entry,
                                               NodeId server) const;

  const net::Topology& topology_;
  db::FullAccessView catalog_;
  db::LimitedAccessView network_state_;
  ValidationOptions options_;
  const obs::Context* obs_ = nullptr;
  double degraded_max_age_ = std::numeric_limits<double>::infinity();
  std::function<SimTime()> clock_;
  mutable std::uint64_t degraded_selections_ = 0;

  // Cache state: logically a memo of pure functions of the database, hence
  // mutable behind the const query interface.
  mutable std::vector<double> link_weights_;
  mutable bool weights_filled_ = false;
  mutable std::uint64_t cached_links_epoch_ = 0;
  mutable IdVector<NodeId, SptEntry> spt_cache_;
  /// The local route {home} of each home, built on its first local serve;
  /// it does not depend on the link weights, so it outlives links epochs.
  mutable IdVector<NodeId, routing::Route> local_routes_;
  mutable VraCacheStats cache_stats_;
};

}  // namespace vod::vra
