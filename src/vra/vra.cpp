#include "vra/vra.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "common/log.h"
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
  args.push_back({"cost", obs::num(decision.path.cost)});
  args.push_back({"local", decision.served_locally ? "1" : "0"});
  args.push_back({"degraded", decision.degraded ? "1" : "0"});
  args.push_back({"candidates", obs::num(static_cast<std::uint64_t>(
                                    decision.candidates.size()))});
  for (std::size_t i = 1; i < decision.candidates.size() && i <= 3; ++i) {
    const Candidate& cand = decision.candidates[i];
    args.push_back({"alt" + std::to_string(i),
                    topology.node_name(cand.server) + ":" +
                        obs::num(cand.path.cost)});
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
         db::LimitedAccessView network_state, ValidationOptions options,
         bool enable_cache)
    : topology_(topology),
      catalog_(catalog),
      network_state_(network_state),
      options_(std::move(options)),
      cache_enabled_(enable_cache) {}

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
  // Unit-weight graph of the links still believed up.  The online flag may
  // itself be stale, but it is the only belief left; links the service
  // marked down via the proactive (connection-reset) path are excluded.
  routing::Graph graph;
  for (std::size_t n = 0; n < topology_.node_count(); ++n) {
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    graph.add_node(topology_.node_name(node));
  }
  for (const net::LinkInfo& info : topology_.links()) {
    if (!network_state_.link(info.id).online) continue;
    graph.add_undirected_edge(info.a, info.b, info.id, 1.0);
  }

  Decision decision;
  decision.degraded = true;
  for (const NodeId holder : holders) {
    if (!online(holder)) continue;
    if (auto path = routing::min_hop_path(graph, home, holder)) {
      decision.candidates.push_back(Candidate{holder, std::move(*path)});
    }
  }
  if (decision.candidates.empty()) return std::nullopt;
  std::sort(decision.candidates.begin(), decision.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.path.cost != b.path.cost) return a.path.cost < b.path.cost;
              return a.server < b.server;
            });
  decision.served_locally = false;
  decision.server = decision.candidates.front().server;
  decision.path = decision.candidates.front().path;
  ++degraded_selections_;
  VOD_LOG_INFO("VRA: degraded mode chose "
               << topology_.node_name(decision.server) << " at "
               << decision.path.cost << " hops");
  return decision;
}

routing::Graph Vra::current_weighted_graph() const {
  const DbLinkStatsProvider stats{network_state_};
  const LvnCalculator calculator{topology_, stats, options_};
  return calculator.build_weighted_graph();
}

void Vra::full_rebuild(std::uint64_t epoch) const {
  const DbLinkStatsProvider stats{network_state_};
  const LvnCalculator calculator{topology_, stats, options_};
  cached_graph_ = calculator.build_weighted_graph();
  cached_links_epoch_ = epoch;
  spt_cache_.clear();
  ++cache_stats_.graph_rebuilds;
}

void Vra::refresh_dirty_links(std::uint64_t epoch) const {
  // The links stamped after our build are the only ones whose statistics
  // moved.  A stats move changes (a) the link's own LU term and (b) the
  // node validation of its two endpoints — and through (b) the LVN of every
  // link adjacent to those endpoints.  Rewriting those weights in place
  // reproduces build_weighted_graph() bit for bit, as long as no link
  // entered or left the graph (online flips force a rebuild).
  std::vector<LinkId> dirty;
  for (const net::LinkInfo& info : topology_.links()) {
    const db::LinkRecord& record = network_state_.link(info.id);
    if (record.last_changed_epoch <= cached_links_epoch_) continue;
    if (record.online != cached_graph_->edge_weight(info.id).has_value()) {
      full_rebuild(epoch);
      return;
    }
    dirty.push_back(info.id);
  }
  if (dirty.empty()) {  // defensive: epoch moved but no stamped link found
    full_rebuild(epoch);
    return;
  }

  const DbLinkStatsProvider stats{network_state_};
  const LvnCalculator calculator{topology_, stats, options_};

  std::vector<char> node_affected(topology_.node_count(), 0);
  for (const LinkId link : dirty) {
    const net::LinkInfo& info = topology_.link(link);
    node_affected[info.a.value()] = 1;
    node_affected[info.b.value()] = 1;
  }

  // Node validations on demand, memoized: an affected edge can end at an
  // unaffected node whose (unchanged) validation we still need.
  std::vector<double> nv(topology_.node_count(), 0.0);
  std::vector<char> nv_known(topology_.node_count(), 0);
  const auto nv_of = [&](NodeId node) {
    if (!nv_known[node.value()]) {
      nv[node.value()] = calculator.node_validation(node);
      nv_known[node.value()] = 1;
    }
    return nv[node.value()];
  };

  std::vector<char> rewritten(topology_.link_count(), 0);
  for (std::size_t n = 0; n < node_affected.size(); ++n) {
    if (!node_affected[n]) continue;
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    for (const LinkId link : topology_.links_adjacent_to(node)) {
      if (rewritten[link.value()]) continue;
      rewritten[link.value()] = 1;
      // Offline links are absent from the graph; their stats still feed
      // their endpoints' validations (handled by nv_of), but they carry no
      // weight to rewrite.
      if (!cached_graph_->edge_weight(link)) continue;
      const net::LinkInfo& info = topology_.link(link);
      const double weight = std::max(nv_of(info.a), nv_of(info.b)) +
                            calculator.link_utilization_term(link);
      cached_graph_->set_edge_weight(link, weight);
      ++cache_stats_.edges_rewritten;
    }
  }
  cached_links_epoch_ = epoch;
  spt_cache_.clear();
  ++cache_stats_.graph_incremental;
}

const routing::Graph& Vra::weighted_graph() const {
  const std::uint64_t epoch = network_state_.links_changed_epoch();
  if (!cache_usable() || !cached_graph_) {
    full_rebuild(epoch);
  } else if (epoch == cached_links_epoch_) {
    ++cache_stats_.graph_hits;
  } else {
    refresh_dirty_links(epoch);
  }
  return *cached_graph_;
}

std::optional<Decision> Vra::select_server(NodeId home, VideoId video,
                                           bool want_trace) const {
  require(topology_.has_node(home), "Vra::select_server: unknown home node");
  require(catalog_.has_video(video), "Vra::select_server: unknown video");
  VOD_PROFILE_SCOPE("vra.select_server");

  // "IF the adjacent to the client video server can provide the requested
  //  video THEN authorize the server to start transferring and QUIT."
  if (can_provide(home, video)) {
    Decision decision;
    decision.served_locally = true;
    decision.server = home;
    decision.path.nodes = {home};
    decision.path.cost = 0.0;
    VOD_LOG_DEBUG("VRA: served locally at " << topology_.node_name(home));
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
  const routing::Graph& graph = weighted_graph();

  Decision decision;
  const routing::ShortestPaths* paths = nullptr;
  std::optional<routing::ShortestPaths> fresh;
  if (want_trace || !cache_usable()) {
    // Trace requests need the step table recorded, so they always run live.
    fresh.emplace(routing::dijkstra(
        graph, home, want_trace ? &decision.trace : nullptr));
    paths = &*fresh;
  } else {
    auto it = spt_cache_.find(home);
    if (it == spt_cache_.end()) {
      ++cache_stats_.spt_misses;
      it = spt_cache_.emplace(home, routing::dijkstra(graph, home)).first;
    } else {
      ++cache_stats_.spt_hits;
    }
    paths = &it->second;
  }

  // "Select those least expensive paths that end at the servers that can
  //  provide the video."
  for (const NodeId holder : holders) {
    if (!online(holder)) continue;
    if (auto path = paths->path_to(holder)) {
      decision.candidates.push_back(Candidate{holder, std::move(*path)});
    }
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
              if (a.path.cost != b.path.cost) return a.path.cost < b.path.cost;
              return a.server < b.server;
            });
  // The sort's exact comparison keeps the listing stable, but the *choice*
  // must not hinge on last-bit cost differences: among candidates within
  // kCostEpsilon of the cheapest, take the lowest node id.
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < decision.candidates.size(); ++i) {
    if (decision.candidates[i].path.cost >
        decision.candidates[0].path.cost + kCostEpsilon) {
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
  decision.path = decision.candidates.front().path;
  VOD_LOG_DEBUG("VRA: chose " << topology_.node_name(decision.server)
                              << " cost " << decision.path.cost);
  trace_decision(obs_, topology_, home, video, decision);
  return decision;
}

}  // namespace vod::vra
