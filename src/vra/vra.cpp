#include "vra/vra.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "routing/min_hop.h"

namespace vod::vra {
namespace {

/// Path costs that differ by no more than this are ties: double sums over
/// different relaxation orders can disagree in the last bits across
/// platforms, and an exact comparison would then pick different servers for
/// the same network state.  LVN costs are O(0.1..10), so 1e-9 is far below
/// any real cost difference and far above accumulation noise.
constexpr double kCostEpsilon = 1e-9;

/// Emits the route-decision trace event: the winner plus up to three
/// runner-up candidates with their LVN path costs.
void trace_decision(const obs::Context* context,
                    const net::Topology& topology, NodeId home, VideoId video,
                    const Decision& decision) {
  obs::TraceRecorder* tr = context != nullptr ? context->trace() : nullptr;
  if (tr == nullptr) return;
  std::vector<obs::TraceArg> args;
  args.push_back({"home", topology.node_name(home)});
  args.push_back(
      {"video", obs::num(static_cast<std::uint64_t>(video.value()))});
  args.push_back({"server", topology.node_name(decision.server)});
  args.push_back({"cost", obs::num(decision.cost())});
  args.push_back({"local", decision.served_locally ? "1" : "0"});
  args.push_back({"degraded", decision.degraded ? "1" : "0"});
  args.push_back({"candidates", obs::num(static_cast<std::uint64_t>(
                                    decision.candidates.size()))});
  for (std::size_t i = 1; i < decision.candidates.size() && i <= 3; ++i) {
    const Candidate& cand = decision.candidates[i];
    args.push_back({"alt" + std::to_string(i),
                    topology.node_name(cand.server) + ":" +
                        obs::num(cand.cost())});
  }
  tr->instant(obs::Subsystem::kVra, "vra.select", std::move(args));
}

void trace_no_source(const obs::Context* context,
                     const net::Topology& topology, NodeId home,
                     VideoId video) {
  obs::TraceRecorder* tr = context != nullptr ? context->trace() : nullptr;
  if (tr == nullptr) return;
  tr->instant(obs::Subsystem::kVra, "vra.no_source",
              {{"home", topology.node_name(home)},
               {"video", obs::num(static_cast<std::uint64_t>(video.value()))}});
}

}  // namespace

Vra::Vra(const net::Topology& topology, db::FullAccessView catalog,
         db::LimitedAccessView network_state, ValidationOptions options)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state),
      options_(std::move(options)) {}

bool Vra::can_provide(NodeId server, VideoId video) const {
  const std::vector<NodeId>& holders = catalog_.servers_with_title(video);
  return online(server) &&
         std::binary_search(holders.begin(), holders.end(), server);
}

void Vra::configure_degraded_mode(Duration max_stats_age,
                                  std::function<SimTime()> clock) {
  const double age = max_stats_age.seconds();
  require(!(std::isnan(age) || age <= 0.0),
      "Vra::configure_degraded_mode: max age must be positive");
  degraded_max_age_ = age;
  clock_ = std::move(clock);
}

bool Vra::degraded_active() const {
  if (!clock_ || !std::isfinite(degraded_max_age_)) return false;
  if (topology_.link_count() == 0) return false;
  const SimTime now = clock_();
  // The mode triggers only when the whole monitor is dark: a single link
  // with fresh statistics means SNMP is alive and individually stale links
  // are the normal between-polls staleness the LVNs already tolerate.
  for (const net::LinkInfo& info : topology_.links()) {
    if (network_state_.stats_age(info.id, now) <= degraded_max_age_) {
      return false;
    }
  }
  return true;
}

std::optional<Decision> Vra::select_degraded(
    NodeId home, const std::vector<NodeId>& holders) const {
  // One hop per link still believed up.  The online flag may itself be
  // stale, but it is the only belief left; links the service marked down
  // via the proactive (connection-reset) path are excluded.
  std::vector<double> hops(topology_.link_count());
  for (const net::LinkInfo& info : topology_.links()) {
    hops[info.id.value()] = network_state_.link(info.id).online
                                ? 1.0
                                : routing::kNotRoutable;
  }
  const routing::ShortestPaths tree = routing::min_hop(topology_, hops, home);

  Decision decision;
  decision.degraded = true;
  for (const NodeId holder : holders) {
    if (!online(holder) || !tree.reachable(holder)) continue;
    decision.candidates.push_back(
        Candidate{holder, routing::make_route(*tree.path_to(holder))});
  }
  if (decision.candidates.empty()) return std::nullopt;
  std::sort(decision.candidates.begin(), decision.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost() != b.cost()) return a.cost() < b.cost();
              return a.server < b.server;
            });
  decision.served_locally = false;
  decision.server = decision.candidates.front().server;
  decision.route = decision.candidates.front().route;
  ++degraded_selections_;
  return decision;
}

const std::vector<double>& Vra::link_weights() const {
  const std::uint64_t epoch = network_state_.links_changed_epoch();
  if (weights_filled_ && epoch == cached_links_epoch_) {
    ++cache_stats_.graph_hits;
    return link_weights_;
  }
  LvnCalculator{topology_, network_state_, options_}.fill_link_weights(
      link_weights_);
  weights_filled_ = true;
  cached_links_epoch_ = epoch;
  spt_cache_ = {};
  ++cache_stats_.graph_rebuilds;
  return link_weights_;
}

Vra::SptEntry& Vra::tree_from(NodeId home) const {
  const std::vector<double>& weights = link_weights();
  SptEntry* entry = spt_cache_.find(home);
  if (entry != nullptr) {
    ++cache_stats_.spt_hits;
    return *entry;
  }
  ++cache_stats_.spt_misses;
  return spt_cache_.insert(
      home, SptEntry{routing::dijkstra(topology_, weights, home),
                     std::vector<routing::Route>(topology_.node_count())});
}

const routing::Route& Vra::route_in(SptEntry& entry, NodeId server) const {
  routing::Route& route = entry.routes[server.value()];
  if (!route && entry.tree.reachable(server)) {
    ++cache_stats_.routes_built;
    route = routing::make_route(*entry.tree.path_to(server));
  }
  return route;
}

routing::Route Vra::route(NodeId home, NodeId server) const {
  require(topology_.has_node(home) && topology_.has_node(server),
      "Vra::route: unknown node");
  return route_in(tree_from(home), server);
}

std::optional<Decision> Vra::select_server(NodeId home,
                                           VideoId video) const {
  require(topology_.has_node(home), "Vra::select_server: unknown home node");
  require(catalog_.has_video(video), "Vra::select_server: unknown video");
  VOD_PROFILE_SCOPE("vra.select_server");

  // "IF the adjacent to the client video server can provide the requested
  //  video THEN authorize the server to start transferring and QUIT."
  if (can_provide(home, video)) {
    routing::Route* local = local_routes_.find(home);
    if (local == nullptr) {
      ++cache_stats_.routes_built;
      local = &local_routes_.insert(home, routing::local_route(home));
    }
    Decision decision;
    decision.served_locally = true;
    decision.server = home;
    decision.route = *local;
    trace_decision(obs_, topology_, home, video, decision);
    return decision;
  }

  // "Make a list of all the servers on the network that have the requested
  //  video title; poll all of those servers."
  const std::vector<NodeId>& holders = catalog_.servers_with_title(video);
  if (std::none_of(holders.begin(), holders.end(),
                   [&](NodeId server) { return online(server); })) {
    trace_no_source(obs_, topology_, home, video);
    return std::nullopt;
  }

  // Monitor dark: the LVNs describe a network that no longer exists, so
  // fall back to min-hop over the links still believed up.
  if (degraded_active()) {
    std::optional<Decision> decision = select_degraded(home, holders);
    if (decision) {
      trace_decision(obs_, topology_, home, video, *decision);
    } else {
      trace_no_source(obs_, topology_, home, video);
    }
    return decision;
  }

  // "Calculate the Link Validation Number for each network link; run the
  //  Dijkstra's routing algorithm from the client's adjacent server."
  SptEntry& entry = tree_from(home);

  Decision decision;
  decision.candidates.reserve(holders.size());

  // "Select those least expensive paths that end at the servers that can
  //  provide the video."  A route is built the first time a lookup needs
  //  it and shared by every later one until the links epoch moves.
  for (const NodeId holder : holders) {
    if (!online(holder)) continue;
    const routing::Route& route = route_in(entry, holder);
    if (route) decision.candidates.push_back(Candidate{holder, route});
  }
  if (decision.candidates.empty()) {  // all disconnected
    trace_no_source(obs_, topology_, home, video);
    return std::nullopt;
  }

  // "From those alternative least cost paths choose the one with the
  //  smallest cost."  Ties break toward the lower node id so replays are
  //  deterministic.
  std::sort(decision.candidates.begin(), decision.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cost() != b.cost()) return a.cost() < b.cost();
              return a.server < b.server;
            });
  // The sort's exact comparison keeps the listing stable, but the *choice*
  // must not hinge on last-bit cost differences: among candidates within
  // kCostEpsilon of the cheapest, take the lowest node id.
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < decision.candidates.size(); ++i) {
    if (decision.candidates[i].cost() >
        decision.candidates[0].cost() + kCostEpsilon) {
      break;
    }
    if (decision.candidates[i].server < decision.candidates[chosen].server) {
      chosen = i;
    }
  }
  if (chosen != 0) {
    std::rotate(decision.candidates.begin(),
                decision.candidates.begin() + chosen,
                decision.candidates.begin() + chosen + 1);
  }

  decision.served_locally = false;
  decision.server = decision.candidates.front().server;
  decision.route = decision.candidates.front().route;
  trace_decision(obs_, topology_, home, video, decision);
  return decision;
}

}  // namespace vod::vra
