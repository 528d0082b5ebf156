// Cached LVN engine: cold rebuild vs. epoch-cached steady state.
//
// The oracle is a freshly constructed Vra per request: its cold cache
// builds the graph and the shortest-path tree from scratch.
//
// Two parts:
//   1. Decision parity on the paper's own workloads — Experiments A (Table
//      4, 8am) and B (Table 5, 10am) replayed under SNMP churn, asserting
//      the long-lived engine returns bit-for-bit the same Decision.server
//      sequence as a fresh Vra per request.
//   2. A scaled backbone (24-core ring + chords, 4 access spurs per core,
//      132 links) where fewer than 10% of links change per monitoring
//      interval.  Measures steady-state select_server latency of the
//      long-lived engine vs. a fresh Vra per request; the engine must be at
//      least 5x faster with identical selections.
//
// Exits non-zero when parity or the 5x floor fails, so the harness can use
// it as a regression gate.
//
// Usage: bench_vra_incremental
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "vra/vra.h"

using namespace vod;

namespace {

// vodlint:entropy-ok(benchmark harness measures real elapsed time; timings
// are reported, never fed back into simulation state)
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One request's outcome, for the bit-for-bit comparison.
struct Outcome {
  NodeId server;
  double cost;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// --- part 1: the paper's Experiments A and B under churn ---

bool replay_case_study(grnet::TimeOfDay t, const char* label) {
  bench::CaseDb fx{t};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const vra::Vra cached{fx.g.topology, fx.db.full_view(),
                        fx.db.limited_view(bench::kAdmin)};
  auto view = fx.db.limited_view(bench::kAdmin);
  const std::vector<LinkId> links = fx.g.links_in_paper_order();

  Rng rng{20250805};
  bool ok = true;
  for (int round = 0; round < 200; ++round) {
    // SNMP rewrites one link per round; most rounds the value moves.
    const LinkId victim =
        links[static_cast<std::size_t>(rng.uniform_int(0, 6))];
    const double frac = rng.uniform(0.05, 0.95);
    const Mbps capacity = fx.g.topology.link(victim).capacity;
    view.update_link_stats(victim, Mbps{frac * capacity.value()}, frac,
                           SimTime{8.0 * 3600.0 + 90.0 * round});

    const vra::Vra fresh{fx.g.topology, fx.db.full_view(),
                         fx.db.limited_view(bench::kAdmin)};
    const auto a = cached.select_server(fx.g.patra, fx.movie);
    const auto b = fresh.select_server(fx.g.patra, fx.movie);
    if (a.has_value() != b.has_value() ||
        (a && (a->server != b->server || a->path.cost != b->path.cost))) {
      ok = false;
    }
  }
  std::cout << label << ": 200 churned requests, decisions "
            << (ok ? "identical" : "DIVERGED") << "; cached engine did "
            << cached.cache_stats().graph_rebuilds
            << " rebuilds (a fresh Vra per request: 200)\n";
  return ok;
}

// --- part 2: scaled steady state ---

struct Backbone {
  net::Topology topo;
  std::vector<NodeId> cores;
  std::vector<NodeId> edges;
};

Backbone build_backbone() {
  Backbone n;
  constexpr int kCores = 24;
  for (int c = 0; c < kCores; ++c) {
    n.cores.push_back(n.topo.add_node("core" + std::to_string(c)));
  }
  for (int c = 0; c < kCores; ++c) {  // ring
    n.topo.add_link(n.cores[c], n.cores[(c + 1) % kCores], Mbps{34.0});
  }
  for (int c = 0; c < kCores; c += 2) {  // chords
    n.topo.add_link(n.cores[c], n.cores[(c + kCores / 2) % kCores],
                    Mbps{18.0});
  }
  for (int c = 0; c < kCores; ++c) {  // 4 access spurs per core
    for (int s = 0; s < 4; ++s) {
      const NodeId edge =
          n.topo.add_node("edge" + std::to_string(c) + "_" + std::to_string(s));
      n.edges.push_back(edge);
      n.topo.add_link(n.cores[c], edge, Mbps{2.0 + 4.0 * (s % 3)});
    }
  }
  return n;
}

int run_scaled() {
  const Backbone n = build_backbone();
  db::Database db{bench::kAdmin};
  for (std::size_t i = 0; i < n.topo.node_count(); ++i) {
    const NodeId node{static_cast<NodeId::underlying_type>(i)};
    db.register_server(node, n.topo.node_name(node), {});
  }
  for (const net::LinkInfo& info : n.topo.links()) {
    db.register_link(info.id, info.name, info.capacity);
  }
  const VideoId movie = db.register_video("movie", MegaBytes{900.0},
                                          Mbps{2.0});
  auto view = db.limited_view(bench::kAdmin);
  Rng rng{7};
  for (const net::LinkInfo& info : n.topo.links()) {
    const double frac = rng.uniform(0.1, 0.7);
    view.update_link_stats(info.id, Mbps{frac * info.capacity.value()}, frac,
                           SimTime{0.0});
  }
  // Replicas at six cores spread around the ring.
  for (int c = 0; c < 24; c += 4) view.add_title(n.cores[c], movie);

  const vra::Vra cached{n.topo, db.full_view(),
                        db.limited_view(bench::kAdmin)};

  constexpr int kIntervals = 30;
  constexpr int kDirtyPerInterval = 10;   // of 132 links: 7.6% < 10%
  constexpr int kRequestsPerInterval = 400;
  const std::size_t link_count = n.topo.link_count();

  std::vector<Outcome> cached_outcomes, fresh_outcomes;
  double cached_s = 0.0, fresh_s = 0.0, cold_build_s = 0.0;
  std::uint64_t fresh_rebuilds = 0, fresh_spt_misses = 0;

  // Cold build cost, for the headline.
  {
    const auto start = Clock::now();
    (void)cached.routing_graph();
    cold_build_s = seconds_since(start);
  }

  double t = 0.0;
  Rng churn{99};
  Rng homes{3};
  for (int interval = 0; interval < kIntervals; ++interval) {
    // The monitoring pass: <10% of links report changed counters.
    for (int d = 0; d < kDirtyPerInterval; ++d) {
      const auto raw = churn.uniform_int(
          0, static_cast<std::int64_t>(link_count) - 1);
      const LinkId link{static_cast<LinkId::underlying_type>(raw)};
      const double frac = churn.uniform(0.1, 0.9);
      const Mbps capacity = n.topo.link(link).capacity;
      view.update_link_stats(link, Mbps{frac * capacity.value()}, frac,
                             SimTime{t});
    }
    t += 90.0;

    // The request storm between two polls.
    std::vector<NodeId> round_homes;
    for (int r = 0; r < kRequestsPerInterval; ++r) {
      round_homes.push_back(n.edges[static_cast<std::size_t>(
          homes.uniform_int(0, static_cast<std::int64_t>(n.edges.size()) -
                                   1))]);
    }
    const auto record = [](const std::optional<vra::Decision>& decision,
                           std::vector<Outcome>& out) {
      out.push_back(decision ? Outcome{decision->server, decision->path.cost}
                             : Outcome{NodeId{}, -1.0});
    };
    auto start = Clock::now();
    for (const NodeId home : round_homes) {
      record(cached.select_server(home, movie), cached_outcomes);
    }
    cached_s += seconds_since(start);
    start = Clock::now();
    for (const NodeId home : round_homes) {
      const vra::Vra fresh{n.topo, db.full_view(),
                           db.limited_view(bench::kAdmin)};
      record(fresh.select_server(home, movie), fresh_outcomes);
      fresh_rebuilds += fresh.cache_stats().graph_rebuilds;
      fresh_spt_misses += fresh.cache_stats().spt_misses;
    }
    fresh_s += seconds_since(start);
  }

  const bool identical = cached_outcomes == fresh_outcomes;
  const double total = kIntervals * kRequestsPerInterval;
  const double speedup = fresh_s / cached_s;
  const vra::VraCacheStats& stats = cached.cache_stats();

  TextTable table{{"metric", "fresh Vra", "cached"}};
  table.add_row({"select_server mean (us)",
                 TextTable::num(1e6 * fresh_s / total, 2),
                 TextTable::num(1e6 * cached_s / total, 2)});
  table.add_row({"graph rebuilds", std::to_string(fresh_rebuilds),
                 std::to_string(stats.graph_rebuilds)});
  table.add_row({"graph hits", "0", std::to_string(stats.graph_hits)});
  table.add_row({"SPT hits / misses",
                 "0 / " + std::to_string(fresh_spt_misses),
                 std::to_string(stats.spt_hits) + " / " +
                     std::to_string(stats.spt_misses)});
  std::cout << table.render() << "\n";
  std::cout << "nodes " << n.topo.node_count() << ", links " << link_count
            << ", " << kDirtyPerInterval << " dirty links/interval ("
            << TextTable::num(100.0 * kDirtyPerInterval / link_count, 1)
            << "%), " << kRequestsPerInterval << " requests/interval, "
            << kIntervals << " intervals\n";
  std::cout << "cold graph build: " << TextTable::num(1e6 * cold_build_s, 1)
            << " us\n";
  std::cout << "decision sequences: "
            << (identical ? "bit-for-bit identical" : "DIVERGED") << "\n";
  std::cout << "steady-state speedup: " << TextTable::num(speedup, 1)
            << "x (floor: 5x)\n";

  if (!identical) {
    std::cerr << "FAIL: cached and fresh-Vra decisions diverged\n";
    return 1;
  }
  if (speedup < 5.0) {
    std::cerr << "FAIL: speedup " << speedup << " below the 5x floor\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  bench::heading("Cached LVN engine: cached vs. fresh-per-request VRA");

  bool ok = true;
  ok &= replay_case_study(grnet::TimeOfDay::k8am,
                          "Experiment A workload (Table 4, 8am)");
  ok &= replay_case_study(grnet::TimeOfDay::k10am,
                          "Experiment B workload (Table 5, 10am)");
  std::cout << "\n";
  const int scaled = run_scaled();
  return (ok && scaled == 0) ? 0 : 1;
}
