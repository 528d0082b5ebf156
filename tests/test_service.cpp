#include "service/vod_service.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "grnet/grnet.h"
#include "support/grnet_service.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// The shared fixture over the Table 2 day with SNMP every 90 s, the movie
/// unplaced and the service not started: each test places and starts what
/// it needs.  Without `routing_only` the DMA keeps its Figure 2 defaults.
test::GrnetSetup table2_setup(bool routing_only = true) {
  test::GrnetSetup setup{.background = test::Background::kTable2,
                         .holders = {},
                         .start = false};
  setup.options.snmp_interval_seconds = 90.0;
  if (!routing_only) setup.options.dma = dma::DmaOptions{};
  return setup;
}

TEST(VodService, RegistersTopologyInDatabase) {
  test::GrnetService fx{table2_setup()};
  auto view = fx.service->admin_view();
  // One entry per node and per link, under the topology's ids.
  for (std::size_t n = 0; n < fx.g.topology.node_count(); ++n) {
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    EXPECT_EQ(view.server(node).name, fx.g.topology.node_name(node));
  }
  EXPECT_EQ(fx.g.topology.node_count(), 6u);
  for (const net::LinkInfo& info : fx.g.topology.links()) {
    EXPECT_EQ(view.link(info.id).total_bandwidth, info.capacity);
  }
  EXPECT_EQ(fx.g.topology.links().size(), 7u);
  EXPECT_EQ(view.server(fx.g.patra).name, "U2");
  // Access bandwidth = sum of adjacent link capacities (Patra: 2+2).
  EXPECT_EQ(view.server(fx.g.patra).config.access_bandwidth, Mbps{4.0});
  EXPECT_EQ(view.server(fx.g.athens).config.access_bandwidth, Mbps{38.0});
}

TEST(VodService, WebModuleListsAndSearches) {
  test::GrnetService fx{table2_setup()};
  fx.service->add_video("another movie", MegaBytes{50.0}, Mbps{2.0});
  EXPECT_EQ(fx.service->list_titles().size(), 2u);
  EXPECT_EQ(fx.service->search_titles("another").size(), 1u);
  ASSERT_TRUE(fx.service->find_title("movie").has_value());
  EXPECT_FALSE(fx.service->find_title("missing").has_value());
}

TEST(VodService, PlaceInitialCopyMakesTitleAvailable) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie);
  EXPECT_EQ(fx.service->database().full_view().servers_with_title(fx.movie),
            std::vector<NodeId>{fx.g.thessaloniki});
  // Idempotent.
  EXPECT_NO_THROW(
      fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie));
}

TEST(VodService, PlaceInitialCopyValidates) {
  test::GrnetService fx{table2_setup()};
  EXPECT_THROW(fx.service->place_initial_copy(fx.g.patra, VideoId{99}),
               std::invalid_argument);
}

TEST(VodService, PlacedCopyIsTheFirstEvictionVictim) {
  // The placement goes through the home DMA's eviction index: a placed
  // title has 0 points, so it ranks below a title that earned a hit.
  test::GrnetService fx{table2_setup(/*routing_only=*/false)};
  const VideoId popular =
      fx.service->add_video("popular", MegaBytes{40.0}, Mbps{2.0});
  fx.service->start();
  (void)fx.service->request_at(fx.g.patra, popular);  // stored at Patra
  (void)fx.service->request_at(fx.g.patra, popular);  // hit: 1 point
  const dma::DmaCache& cache = fx.service->dma_cache(fx.g.patra);
  ASSERT_EQ(cache.points(popular), 1u);
  ASSERT_EQ(cache.least_popular_cached(), popular);
  const std::uint64_t stores = cache.store_count();
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  EXPECT_EQ(cache.least_popular_cached(), fx.movie);
  EXPECT_EQ(cache.points(fx.movie), 0u);
  EXPECT_EQ(cache.store_count(), stores);  // a placement is not a DMA store
  EXPECT_EQ(fx.service->database().full_view().servers_with_title(fx.movie),
            std::vector<NodeId>{fx.g.patra});
}

TEST(VodService, StartTakesImmediateSnmpSample) {
  test::GrnetService fx{table2_setup()};
  fx.service->start();
  auto view = fx.service->admin_view();
  // 8am values are in force at t=0 (trace holds first sample backward).
  EXPECT_NEAR(view.link(fx.g.patra_athens).used_bandwidth.value(), 0.2,
              1e-9);
  EXPECT_EQ(fx.service->snmp().poll_count(), 1u);
}

TEST(VodService, EndToEndRequestStreamsAndCompletes) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie);
  fx.service->place_initial_copy(fx.g.xanthi, fx.movie);
  fx.service->start();

  bool done = false;
  const SessionId id = fx.service->request_by_ip(
      "150.140.20.1", fx.movie, [&](const stream::Session& session) {
        done = true;
        EXPECT_TRUE(session.metrics().finished);
      });
  fx.sim.run_until(from_hours(2.0));
  EXPECT_TRUE(done);
  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_EQ(fx.service->session_home(id), fx.g.patra);
  // At quiet early-morning load the VRA picks Thessaloniki via U2,U3,U4
  // (the corrected Experiment A decision).
  ASSERT_FALSE(m.cluster_sources.empty());
  EXPECT_EQ(m.cluster_sources.front(),
            fx.g.thessaloniki);
}

TEST(VodService, UnknownIpThrows) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  EXPECT_THROW(fx.service->request_by_ip("8.8.8.8", fx.movie),
               std::invalid_argument);
}

TEST(VodService, UnknownVideoOrHomeThrows) {
  test::GrnetService fx{table2_setup()};
  EXPECT_THROW(fx.service->request_at(fx.g.patra, VideoId{99}),
               std::invalid_argument);
  EXPECT_THROW(fx.service->request_at(NodeId{99}, fx.movie),
               std::invalid_argument);
}

TEST(VodService, LocalTitleServedFromHomeServer) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  fx.service->start();
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  for (const NodeId source : m.cluster_sources) {
    EXPECT_EQ(source, fx.g.patra);
  }
  // Local delivery is fast: 40 MB at the 80 Mbps local rate = 4 s.
  EXPECT_NEAR(m.download_completed_at->seconds(), 4.0, 1e-6);
}

TEST(VodService, DmaAdmitsPopularTitleAtHomeServer) {
  // Figure 2 defaults.
  test::GrnetService fx{table2_setup(/*routing_only=*/false)};
  fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie);
  fx.service->start();
  // First request: the DMA at Patra admits the title (space is free),
  // mirroring it into the database.
  fx.service->request_at(fx.g.patra, fx.movie);
  const auto holders =
      fx.service->database().full_view().servers_with_title(fx.movie);
  EXPECT_EQ(holders.size(), 2u);
  EXPECT_TRUE(fx.service->dma_cache(fx.g.patra).cached(fx.movie));
  fx.sim.run_until(from_hours(1.0));
}

TEST(VodService, OfflineServerTriggersFailover) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie);
  fx.service->place_initial_copy(fx.g.xanthi, fx.movie);
  fx.service->set_server_online(fx.g.thessaloniki, false);
  fx.service->start();
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(2.0));
  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  for (const NodeId source : m.cluster_sources) {
    EXPECT_EQ(source, fx.g.xanthi);
  }
}

TEST(VodService, NoHolderFailsSession) {
  test::GrnetService fx{table2_setup()};
  fx.service->start();
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(fx.service->session_metrics(id).failed);
}

TEST(VodService, SessionIdsEnumerated) {
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  fx.service->start();
  EXPECT_TRUE(fx.service->session_ids().empty());
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_EQ(fx.service->session_ids().size(), 2u);
  EXPECT_THROW((void)fx.service->session(SessionId{99}), std::out_of_range);
}

TEST(VodService, MidStreamServerSwitchOnCongestion) {
  // Title at Thessaloniki and Xanthi; client at Patra.  The day's traffic
  // shifts (Table 2) while a long video streams; the per-cluster VRA may
  // move between sources but the session must finish regardless.
  test::GrnetService fx{table2_setup()};
  fx.service->place_initial_copy(fx.g.thessaloniki, fx.movie);
  fx.service->place_initial_copy(fx.g.xanthi, fx.movie);
  fx.service->start();
  // Start shortly before the 10am load shift with a bigger title.
  const VideoId epic =
      fx.service->add_video("epic", MegaBytes{400.0}, Mbps{2.0});
  fx.service->place_initial_copy(fx.g.thessaloniki, epic);
  fx.service->place_initial_copy(fx.g.xanthi, epic);
  SessionId id{};
  fx.sim.schedule_at(from_hours(9.9), [&](SimTime) {
    id = fx.service->request_at(fx.g.patra, epic);
  });
  fx.sim.run_until(from_hours(16.0));
  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_EQ(m.cluster_completed.size(), 40u);
}

TEST(VodService, TopTitlesRankByNetworkWideDemand) {
  test::GrnetService fx{table2_setup()};
  const VideoId quiet =
      fx.service->add_video("quiet", MegaBytes{40.0}, Mbps{2.0});
  const VideoId busy =
      fx.service->add_video("busy", MegaBytes{40.0}, Mbps{2.0});
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  fx.service->place_initial_copy(fx.g.patra, quiet);
  fx.service->place_initial_copy(fx.g.patra, busy);
  fx.service->start();
  // Demand: busy 3x (from two different homes), movie 1x, quiet 0.
  fx.service->request_at(fx.g.patra, busy);
  fx.service->request_at(fx.g.patra, busy);
  fx.service->request_at(fx.g.heraklio, busy);
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));

  const auto top = fx.service->top_titles(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first.title, "busy");
  EXPECT_GE(top[0].second, top[1].second);
  // Asking for more than exist returns everything.
  EXPECT_EQ(fx.service->top_titles(99).size(), 3u);
}

TEST(VodService, RejectsZeroDiskConfiguration) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  ServiceOptions options;
  options.server.disk_count = 0;
  EXPECT_THROW(VodService(sim, g.topology, network, options, kAdmin),
               std::invalid_argument);
}

TEST(VodService, RejectsOverrideForUnknownNode) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  ServiceOptions options;
  options.server_overrides[NodeId{99}].disk_count = 0;
  EXPECT_THROW(VodService(sim, g.topology, network, options, kAdmin),
               std::invalid_argument);
}

}  // namespace
}  // namespace vod::service
