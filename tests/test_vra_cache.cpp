// The cached LVN engine: epoch-keyed link weights, per-home shortest-path-
// tree cache — and the guarantee that none of it changes a single
// decision.  The oracle is a freshly constructed Vra per query: its cold
// cache computes everything from the database as it stands.
#include "vra/vra.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "grnet/grnet.h"
#include "support/grnet_service.h"

namespace vod::vra {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// The paper's case-study database at one instant of Table 2.
struct CaseFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  VideoId movie;

  explicit CaseFixture(grnet::TimeOfDay t = grnet::TimeOfDay::k8am) {
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    grnet::write_table2(db.limited_view(kAdmin), g, t);
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }

  db::LimitedAccessView view() { return db.limited_view(kAdmin); }

  Vra make_vra() {
    return Vra{g.topology, db.full_view(), db.limited_view(kAdmin)};
  }
};

/// The two decisions must agree bit for bit (hence EXPECT_EQ on doubles):
/// server, mode, and every route by value (nodes, links, cost), the
/// chosen one and the whole candidate list.
void expect_same_decision(const std::optional<Decision>& a,
                          const std::optional<Decision>& b,
                          const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a) return;
  EXPECT_EQ(a->server, b->server) << where;
  EXPECT_EQ(a->served_locally, b->served_locally) << where;
  EXPECT_EQ(a->degraded, b->degraded) << where;
  const auto same_route = [&](const routing::Path& x, const routing::Path& y) {
    EXPECT_EQ(x.nodes, y.nodes) << where;
    EXPECT_EQ(x.links, y.links) << where;
    EXPECT_EQ(x.cost, y.cost) << where;
  };
  same_route(a->path(), b->path());
  ASSERT_EQ(a->candidates.size(), b->candidates.size()) << where;
  for (std::size_t i = 0; i < a->candidates.size(); ++i) {
    EXPECT_EQ(a->candidates[i].server, b->candidates[i].server) << where;
    same_route(a->candidates[i].path(), b->candidates[i].path());
  }
}

/// Every link weight of the engine must equal a from-scratch fill exactly
/// (bit for bit, hence EXPECT_EQ on doubles).
void expect_weights_match_fresh_fill(CaseFixture& fx, const Vra& vra) {
  const Vra fresh_vra = fx.make_vra();
  EXPECT_EQ(vra.link_weights(), fresh_vra.link_weights());
}

/// True when the engine routes over `link`: its weight is finite.
bool routable(const Vra& vra, LinkId link) {
  return std::isfinite(vra.link_weights()[link.value()]);
}

TEST(VraCache, GraphReusedUntilEpochAdvances) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  }
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 5u);
}

TEST(VraCache, StatsWriteRebuildsGraph) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());

  fx.view().update_link_stats(fx.g.patra_athens, Mbps{1.9}, 0.95,
                              SimTime{100.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 0u);
  expect_weights_match_fresh_fill(fx, vra);
}

TEST(VraCache, IdenticalSnmpRewriteIsStillAHit) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  // SNMP re-reports the very same counters (as it does on quiet links).
  const db::LinkRecord before = fx.view().link(fx.g.patra_athens);
  fx.view().update_link_stats(fx.g.patra_athens, before.used_bandwidth,
                              before.utilization, SimTime{90.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
}

TEST(VraCache, OfflineLinkIsExcludedAndFlipRebuildsGraph) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  // Warm the cache: U2,U3,U4 is the corrected Experiment A route.
  const auto warm = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(routable(vra, fx.g.patra_ioannina));

  // Kill Patra-Ioannina (U2-U3): membership changes -> full rebuild, and the
  // offline link must become unroutable.
  fx.view().set_link_online(fx.g.patra_ioannina, false);
  const auto rerouted = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_FALSE(routable(vra, fx.g.patra_ioannina));
  // The decision must route around the dead link.
  for (std::size_t i = 0; i + 1 < rerouted->path().nodes.size(); ++i) {
    EXPECT_FALSE((rerouted->path().nodes[i] == fx.g.patra &&
                  rerouted->path().nodes[i + 1] == fx.g.ioannina) ||
                 (rerouted->path().nodes[i] == fx.g.ioannina &&
                  rerouted->path().nodes[i + 1] == fx.g.patra));
  }
  expect_weights_match_fresh_fill(fx, vra);

  // Back online: invalidation fires again and the edge reappears.
  fx.view().set_link_online(fx.g.patra_ioannina, true);
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 3u);
  EXPECT_TRUE(routable(vra, fx.g.patra_ioannina));
  expect_weights_match_fresh_fill(fx, vra);
}

TEST(VraCache, OfflineServerIsReconsideredWithoutGraphRebuild) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto both = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->server, fx.g.thessaloniki);

  // A server going offline changes the holder set, not the link graph: the
  // next decision must see it immediately while the graph stays cached.
  fx.view().set_server_online(fx.g.thessaloniki, false);
  const auto fallback = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->server, fx.g.xanthi);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
}

TEST(VraCache, StatsChangeOnOfflineLinkStillMovesNeighborWeights) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  fx.view().set_link_online(fx.g.patra_ioannina, false);
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());

  // The offline link's statistics still feed its endpoints' node
  // validations (eq. 2 does not filter by online), so a stats write on it
  // must move the neighboring online edges' weights.
  fx.view().update_link_stats(fx.g.patra_ioannina, Mbps{1.8}, 0.88,
                              SimTime{200.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  expect_weights_match_fresh_fill(fx, vra);
}

TEST(VraCache, SptCacheServesRepeatedHomesAndInvalidates) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  const Vra vra = fx.make_vra();
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.athens, fx.movie).has_value());
  ASSERT_TRUE(vra.select_server(fx.g.athens, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().spt_misses, 2u);  // one per distinct home
  EXPECT_EQ(vra.cache_stats().spt_hits, 2u);

  fx.view().update_link_stats(fx.g.patra_athens, Mbps{1.5}, 0.75,
                              SimTime{300.0});
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().spt_misses, 3u);  // tree recomputed
}

TEST(VraCache, RoutesAreSharedWithinAnEpochAndRebuiltAfterIt) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto first = vra.select_server(fx.g.patra, fx.movie);
  const auto second = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(first && second);
  // One epoch: the same immutable object every time, and the chosen route
  // is the first candidate's.
  EXPECT_EQ(first->route, second->route);
  EXPECT_EQ(first->route, first->candidates.front().route);
  ASSERT_EQ(first->candidates.size(), 2u);
  EXPECT_EQ(first->candidates[1].route, second->candidates[1].route);
  EXPECT_EQ(vra.cache_stats().routes_built, 2u);  // one per holder

  // The local route is built once per home, and survives epoch moves.
  const auto local = vra.select_server(fx.g.xanthi, fx.movie);
  ASSERT_TRUE(local && local->served_locally);
  EXPECT_EQ(local->path().nodes, std::vector<NodeId>{fx.g.xanthi});
  EXPECT_TRUE(local->path().links.empty());
  EXPECT_EQ(vra.cache_stats().routes_built, 3u);

  // An epoch move drops the tree and its routes: the next selection builds
  // fresh objects, while the old ones stay intact for whoever holds them.
  const routing::Path before = first->path();
  fx.view().update_link_stats(fx.g.patra_athens, Mbps{1.5}, 0.75,
                              SimTime{300.0});
  const auto moved = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(moved.has_value());
  EXPECT_NE(moved->route, first->route);
  EXPECT_EQ(vra.cache_stats().routes_built, 5u);
  // Only the two decisions (route and first candidate each) hold it now.
  EXPECT_EQ(first->route.use_count(), 4);
  EXPECT_EQ(first->path().nodes, before.nodes);
  EXPECT_EQ(first->path().links, before.links);
  EXPECT_EQ(first->path().cost, before.cost);
  EXPECT_EQ(vra.select_server(fx.g.xanthi, fx.movie)->route, local->route);
}

TEST(VraCache, InflightSessionKeepsItsRouteAcrossAnEpochMove) {
  test::GrnetService fx;
  service::VodService& service = *fx.service;
  // Past the start-up poll, so no links-epoch move until the test's own.
  SessionId id;
  fx.sim.schedule_at(SimTime{1.0}, [&](SimTime) {
    id = service.request_at(fx.g.patra, fx.movie);
  });
  fx.sim.run_until(SimTime{5.0});
  const stream::Session& session = service.session(id);
  const auto chosen = service.vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(chosen.has_value());
  // The session streams over the very object the VRA's cache holds.
  const std::vector<LinkId>& inflight = session.inflight_links();
  ASSERT_FALSE(inflight.empty());
  EXPECT_EQ(&inflight, &chosen->path().links);
  const std::vector<LinkId> links = inflight;

  // Move the links epoch: the VRA builds a new route, and the session's
  // transfer keeps the old one, unchanged, at the same address.
  service.admin_view().update_link_stats(fx.g.patra_athens, Mbps{1.5}, 0.75,
                                         fx.sim.now());
  const auto rebuilt = service.vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_NE(rebuilt->route, chosen->route);
  EXPECT_EQ(&session.inflight_links(), &inflight);
  EXPECT_EQ(session.inflight_links(), links);
}

TEST(VraCache, CachedAndUncachedDecisionsAreIdenticalUnderChurn) {
  CaseFixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const Vra cached = fx.make_vra();
  auto view = fx.view();

  const std::vector<NodeId> homes{fx.g.patra, fx.g.athens, fx.g.heraklio,
                                  fx.g.ioannina};
  const std::vector<LinkId> links = fx.g.links_in_paper_order();
  double t = 0.0;
  for (int round = 0; round < 40; ++round) {
    // Churn one link per round (stats), plus an occasional online flip.
    const LinkId victim = links[round % links.size()];
    const double used = 0.5 + 0.37 * (round % 7);
    view.update_link_stats(victim, Mbps{used}, used / 34.0, SimTime{t});
    if (round % 11 == 5) view.set_link_online(links[2], round % 2 == 0);
    t += 90.0;

    for (const NodeId home : homes) {
      expect_same_decision(cached.select_server(home, fx.movie),
                           fx.make_vra().select_server(home, fx.movie),
                           "round " + std::to_string(round));
    }
  }
  // The cached instance must actually have been caching.
  EXPECT_GT(cached.cache_stats().graph_hits, 0u);
}

TEST(VraCache, TitleAddIsVisibleWithoutGraphRebuild) {
  CaseFixture fx;
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto before = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->server, fx.g.xanthi);

  // A DMA admission at Thessaloniki changes the catalog, not the links:
  // the VRA must see the new holder on the very next request while the
  // weighted graph stays cached.
  fx.place(fx.g.thessaloniki);
  const auto after = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->server, fx.g.thessaloniki);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
  EXPECT_EQ(vra.cache_stats().graph_hits, 1u);
}

TEST(VraCache, LiveServiceMatchesFreshVraUnderChurn) {
  // A service whose links move under SNMP polls of the measured day's
  // background traffic, whose DMA stores and evicts titles (four 60 MB
  // disks per server), which loses and regains a link, whose SNMP monitor
  // goes dark long enough for degraded mode, and whose server crashes and
  // comes back.
  test::GrnetSetup setup;
  setup.options = service::ServiceOptions{};
  setup.options.cluster_size = MegaBytes{10.0};
  setup.options.server.disk_count = 4;
  setup.options.server.disk_profile.capacity = MegaBytes{60.0};
  setup.options.degraded_stats_age_seconds = 300.0;
  setup.background = test::Background::kTable2;
  setup.start = false;
  test::GrnetService fx{setup};
  service::VodService& service = *fx.service;
  const grnet::CaseStudy& g = fx.g;
  std::vector<VideoId> videos{fx.movie};
  for (int v = 0; v < 11; ++v) {
    videos.push_back(service.add_video(
        "v" + std::to_string(v), MegaBytes{20.0 + 7.0 * (v % 5)}, Mbps{2.0}));
  }
  const std::vector<NodeId> homes{g.athens, g.patra, g.ioannina,
                                  g.thessaloniki, g.xanthi, g.heraklio};
  for (std::size_t v = 1; v < videos.size(); ++v) {
    service.place_initial_copy(homes[v % homes.size()], videos[v]);
  }
  service.start();

  Rng rng{11};
  for (int r = 0; r < 240; ++r) {
    const NodeId home = homes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(homes.size()) - 1))];
    const VideoId video = videos[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(videos.size()) - 1))];
    fx.sim.schedule_at(SimTime{30.0 * r}, [&service, home, video](SimTime) {
      (void)service.request_at(home, video);
    });
  }
  fx.sim.schedule_at(SimTime{3600.0}, [&](SimTime) {
    service.fail_link(g.patra_ioannina);
  });
  fx.sim.schedule_at(SimTime{2.0 * 3600.0}, [&](SimTime) {
    service.restore_link(g.patra_ioannina);
  });
  // The monitor is dark from 4000 s to 4800 s: past 300 s without fresh
  // statistics the VRA routes min-hop.
  fx.sim.schedule_at(SimTime{4000.0}, [&](SimTime) { service.snmp().stop(); });
  fx.sim.schedule_at(SimTime{4800.0},
                     [&](SimTime) { service.snmp().start(); });
  fx.sim.schedule_at(SimTime{8000.0},
                     [&](SimTime) { service.crash_server(g.thessaloniki); });
  fx.sim.schedule_at(SimTime{9500.0},
                     [&](SimTime) { service.restore_server(g.thessaloniki); });

  int checks = 0;
  int routed = 0;
  int degraded = 0;
  const auto check_all = [&](SimTime now) {
    Vra fresh{service.topology(), service.database().full_view(),
              service.admin_view(), service.vra().options()};
    fresh.configure_degraded_mode(Duration{300.0},
                                  [&fx] { return fx.sim.now(); });
    for (const NodeId home : homes) {
      for (const VideoId video : videos) {
        const auto cached = service.vra().select_server(home, video);
        expect_same_decision(cached, fresh.select_server(home, video),
                             "t=" + std::to_string(now.seconds()) +
                                 " home " + std::to_string(home.value()) +
                                 " video " + std::to_string(video.value()));
        if (cached && !cached->served_locally) ++routed;
        if (cached && cached->degraded) ++degraded;
      }
    }
    ++checks;
  };
  for (const double at : {600.0, 1800.0, 3601.0, 4600.0, 5400.0, 7201.0,
                          8500.0, 9000.0, 10800.0}) {
    fx.sim.schedule_at(SimTime{at}, check_all);
  }
  fx.sim.run_until(from_hours(4.0));

  EXPECT_EQ(checks, 9);
  EXPECT_GT(routed, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(service.vra().degraded_active(), false);
  const VraCacheStats& stats = service.vra().cache_stats();
  EXPECT_GT(stats.graph_rebuilds, 2u);
  EXPECT_GT(stats.graph_hits, 0u);
  EXPECT_GT(stats.spt_hits, 0u);
  std::uint64_t stores = 0, evictions = 0;
  for (const NodeId node : homes) {
    stores += service.dma_cache(node).store_count();
    evictions += service.dma_cache(node).eviction_count();
  }
  EXPECT_GT(stores, 0u);
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace vod::vra
