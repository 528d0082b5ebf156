// The cached LVN engine: epoch-keyed graph cache, per-home shortest-path-
// tree cache — and the guarantee that none of it changes a single
// decision.  The oracle is a freshly constructed Vra per query: its cold
// cache computes everything from the database as it stands.
#include "vra/vra.h"

#include <gtest/gtest.h>

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
/// server, path, cost and the whole candidate list.
void expect_same_decision(const std::optional<Decision>& a,
                          const std::optional<Decision>& b,
                          const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a) return;
  EXPECT_EQ(a->server, b->server) << where;
  EXPECT_EQ(a->path.nodes, b->path.nodes) << where;
  EXPECT_EQ(a->path.cost, b->path.cost) << where;
  ASSERT_EQ(a->candidates.size(), b->candidates.size()) << where;
  for (std::size_t i = 0; i < a->candidates.size(); ++i) {
    EXPECT_EQ(a->candidates[i].server, b->candidates[i].server) << where;
    EXPECT_EQ(a->candidates[i].path.nodes, b->candidates[i].path.nodes)
        << where;
    EXPECT_EQ(a->candidates[i].path.cost, b->candidates[i].path.cost)
        << where;
  }
}

/// Every edge weight of the engine's graph must equal a from-scratch build
/// exactly (bit for bit, hence EXPECT_EQ on doubles).
void expect_graph_matches_fresh_build(CaseFixture& fx, const Vra& vra) {
  const Vra fresh_vra = fx.make_vra();
  const routing::Graph& cached = vra.routing_graph();
  const routing::Graph& fresh = fresh_vra.routing_graph();
  ASSERT_EQ(cached.node_count(), fresh.node_count());
  ASSERT_EQ(cached.edge_count(), fresh.edge_count());
  for (const net::LinkInfo& info : fx.g.topology.links()) {
    const auto cached_w = cached.edge_weight(info.id);
    const auto fresh_w = fresh.edge_weight(info.id);
    ASSERT_EQ(cached_w.has_value(), fresh_w.has_value());
    if (cached_w) {
      EXPECT_EQ(*cached_w, *fresh_w);
    }
  }
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
  expect_graph_matches_fresh_build(fx, vra);
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
  ASSERT_TRUE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));

  // Kill Patra-Ioannina (U2-U3): membership changes -> full rebuild, and the
  // offline link must vanish from the weighted graph.
  fx.view().set_link_online(fx.g.patra_ioannina, false);
  const auto rerouted = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  EXPECT_FALSE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));
  // The decision must route around the dead link.
  for (std::size_t i = 0; i + 1 < rerouted->path.nodes.size(); ++i) {
    EXPECT_FALSE((rerouted->path.nodes[i] == fx.g.patra &&
                  rerouted->path.nodes[i + 1] == fx.g.ioannina) ||
                 (rerouted->path.nodes[i] == fx.g.ioannina &&
                  rerouted->path.nodes[i + 1] == fx.g.patra));
  }
  expect_graph_matches_fresh_build(fx, vra);

  // Back online: invalidation fires again and the edge reappears.
  fx.view().set_link_online(fx.g.patra_ioannina, true);
  ASSERT_TRUE(vra.select_server(fx.g.patra, fx.movie).has_value());
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 3u);
  EXPECT_TRUE(vra.routing_graph().edge_weight(fx.g.patra_ioannina));
  expect_graph_matches_fresh_build(fx, vra);
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
  expect_graph_matches_fresh_build(fx, vra);
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
  // disks per server), and which loses and regains a link.
  test::GrnetSetup setup;
  setup.options = service::ServiceOptions{};
  setup.options.cluster_size = MegaBytes{10.0};
  setup.options.server.disk_count = 4;
  setup.options.server.disk_profile.capacity = MegaBytes{60.0};
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

  int checks = 0;
  int routed = 0;
  const auto check_all = [&](SimTime now) {
    const Vra fresh{service.topology(), service.database().full_view(),
                    service.admin_view(), service.vra().options()};
    for (const NodeId home : homes) {
      for (const VideoId video : videos) {
        const auto cached = service.vra().select_server(home, video);
        expect_same_decision(cached, fresh.select_server(home, video),
                             "t=" + std::to_string(now.seconds()) +
                                 " home " + std::to_string(home.value()) +
                                 " video " + std::to_string(video.value()));
        if (cached && !cached->served_locally) ++routed;
      }
    }
    ++checks;
  };
  for (const double at : {600.0, 1800.0, 3601.0, 5400.0, 7201.0, 9000.0,
                          10800.0}) {
    fx.sim.schedule_at(SimTime{at}, check_all);
  }
  fx.sim.run_until(from_hours(4.0));

  EXPECT_EQ(checks, 7);
  EXPECT_GT(routed, 0);
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
