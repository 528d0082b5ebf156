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
// select_server() runs per cluster fetch.  The VRA therefore keeps one
// weighted graph and the per-home shortest-path trees, keyed on the
// database's links_changed_epoch(), and rebuilds the graph whole when the
// epoch moves.  Selections are bit-for-bit those of a freshly built Vra.
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
  routing::Path path;  // least-cost path home -> server
};

/// The VRA's answer for one request.
struct Decision {
  /// True when the home server had the title (Figure 5's first branch).
  bool served_locally = false;
  /// The chosen source server (the home server when served_locally).
  NodeId server;
  /// Least-cost path from the home server to `server` (empty when local).
  routing::Path path;
  /// Every candidate with its least-cost path, sorted by ascending cost
  /// (the chosen one first); empty when served locally.
  std::vector<Candidate> candidates;
  /// Step-by-step Dijkstra table (filled only when requested).
  routing::DijkstraTrace trace;
  /// True when the decision came from the degraded-mode fallback (min-hop
  /// over links still believed up) because the SNMP statistics were staler
  /// than the configured threshold.
  bool degraded = false;

  [[nodiscard]] double cost() const { return path.cost; }
};

/// Effectiveness counters of the cached engine (reported through
/// service::ServiceReport so benches can assert cache behaviour).
struct VraCacheStats {
  /// Graph served unchanged (links epoch did not advance).
  std::uint64_t graph_hits = 0;
  /// Whole-graph builds (first use, then one per links-epoch move).
  std::uint64_t graph_rebuilds = 0;
  /// Dijkstra trees served from / inserted into the per-home cache.
  std::uint64_t spt_hits = 0;
  std::uint64_t spt_misses = 0;
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
  /// Returns nullopt when no online server holds the title.
  /// `want_trace` additionally records the Dijkstra step table.
  [[nodiscard]] std::optional<Decision> select_server(
      NodeId home, VideoId video, bool want_trace = false) const;

  [[nodiscard]] const ValidationOptions& options() const { return options_; }

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

  /// The weighted graph the VRA routes on, rebuilt if the database's links
  /// epoch moved (counts a hit or rebuild like a request would).  The
  /// reference is valid until the next link-state write.
  [[nodiscard]] const routing::Graph& routing_graph() const;

  [[nodiscard]] const VraCacheStats& cache_stats() const {
    return cache_stats_;
  }

 private:
  /// "Poll all of those servers to find out which ones can provide the
  /// video": here, an online check against the limited-access view.
  [[nodiscard]] bool online(NodeId server) const {
    return network_state_.server(server).online;
  }

  /// The server is online and the catalog lists it as a holder.
  [[nodiscard]] bool can_provide(NodeId server, VideoId video) const;

  /// The degraded fallback: min-hop paths from `home` to the online
  /// servers among `holders` over the links whose records still say
  /// online, ignoring the (stale) LVN weights.
  [[nodiscard]] std::optional<Decision> select_degraded(
      NodeId home, const std::vector<NodeId>& holders) const;

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
  mutable std::optional<routing::Graph> cached_graph_;
  mutable std::uint64_t cached_links_epoch_ = 0;
  mutable IdVector<NodeId, routing::ShortestPaths> spt_cache_;
  mutable VraCacheStats cache_stats_;
};

}  // namespace vod::vra
