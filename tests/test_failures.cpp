// Failure injection: link outages, SNMP detection, VRA re-routing, and the
// session stall watchdog.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "grnet/grnet.h"
#include "net/transfer.h"
#include "service/vod_service.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"

namespace vod {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// One fixed server behind one link — for the watchdog-focused tests.
class SingleRoutePolicy final : public stream::ServerSelectionPolicy {
 public:
  SingleRoutePolicy(NodeId client, NodeId server, LinkId link)
      : client_(client), server_(server), link_(link) {}
  std::optional<stream::Selection> select(NodeId, VideoId) override {
    return stream::Selection{
        server_, routing::make_route({{client_, server_}, {link_}, 1.0})};
  }
  const char* name() const override { return "single-route"; }

 private:
  NodeId client_, server_;
  LinkId link_;
};

TEST(LinkFailure, DownLinkCarriesNoBackground) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId ab = topo.add_link(a, b, Mbps{10.0});
  net::ConstantTraffic traffic;
  traffic.set_load(ab, Mbps{4.0});
  net::FluidNetwork network{topo, traffic};
  EXPECT_TRUE(network.link_up(ab));
  network.set_link_up(ab, false);
  EXPECT_FALSE(network.link_up(ab));
  EXPECT_EQ(network.background(ab), Mbps{0.0});
  EXPECT_EQ(network.used_bandwidth(ab), Mbps{0.0});
}

TEST(LinkFailure, FlowsAcrossDownLinkStall) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId ab = topo.add_link(a, b, Mbps{10.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  const FlowId flow = network.start_flow({ab}, Mbps{5.0});
  EXPECT_GT(network.flow_rate(flow).value(), 0.0);
  network.set_link_up(ab, false);
  EXPECT_EQ(network.flow_rate(flow), Mbps{0.0});
  network.set_link_up(ab, true);
  EXPECT_NEAR(network.flow_rate(flow).value(), 5.0, 1e-9);
}

TEST(LinkFailure, UnknownLinkThrows) {
  net::Topology topo;
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  EXPECT_THROW(network.set_link_up(LinkId{3}, false), std::out_of_range);
  EXPECT_THROW((void)network.link_up(LinkId{3}), std::out_of_range);
}

TEST(LinkFailure, TransferAcrossDownLinkWaitsForRecovery) {
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const LinkId ab = topo.add_link(a, b, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};

  std::optional<double> done_at;
  transfers.start_transfer({ab}, MegaBytes{8.0}, Mbps{100.0},
                           [&](SimTime t) { done_at = t.seconds(); });
  // Fail at t=4 (4 MB moved), recover at t=10: remaining 4 MB from t=10.
  // The change hooks must settle progress at the old rate and re-plan —
  // no external nudge required.
  sim.schedule_at(SimTime{4.0},
                  [&](SimTime) { network.set_link_up(ab, false); });
  sim.schedule_at(SimTime{10.0},
                  [&](SimTime) { network.set_link_up(ab, true); });
  sim.run_until(SimTime{60.0});
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 14.0, 1e-6);
}

TEST(LinkFailure, SnmpMarksLinkOffline) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  net::FluidNetwork network{g.topology, traffic};
  sim::Simulation sim;
  db::Database db{kAdmin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  EXPECT_TRUE(db.limited_view(kAdmin).link(g.patra_athens).online);
  network.set_link_up(g.patra_athens, false);
  // Stale until the next poll.
  EXPECT_TRUE(db.limited_view(kAdmin).link(g.patra_athens).online);
  snmp.poll_now(SimTime{90.0});
  EXPECT_FALSE(db.limited_view(kAdmin).link(g.patra_athens).online);
}

TEST(LinkFailure, VraRoutesAroundOfflineLink) {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  const VideoId movie = db.register_video("m", MegaBytes{900.0}, Mbps{2.0});
  auto view = db.limited_view(kAdmin);
  grnet::write_table2(view, g, grnet::TimeOfDay::k8am);
  view.add_title(g.thessaloniki, movie);

  const vra::Vra vra{g.topology, db.full_view(), db.limited_view(kAdmin),
                     {}};
  // Baseline: Patra reaches Thessaloniki via Ioannina at 8am.
  auto before = vra.select_server(g.patra, movie);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->path().to_string(g.topology),
            "U2,U3,U4");
  // Kill the Patra-Ioannina link: must fall back through Athens.
  view.set_link_online(g.patra_ioannina, false);
  auto after = vra.select_server(g.patra, movie);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->path().to_string(g.topology),
            "U2,U1,U4");
}

TEST(LinkFailure, VraReportsNoRouteWhenHomeIsolated) {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  const VideoId movie = db.register_video("m", MegaBytes{900.0}, Mbps{2.0});
  auto view = db.limited_view(kAdmin);
  for (const LinkId link : g.links_in_paper_order()) {
    view.update_link_stats(link, Mbps{0.1}, 0.05, SimTime{0.0});
  }
  view.add_title(g.thessaloniki, movie);
  view.set_link_online(g.patra_athens, false);
  view.set_link_online(g.patra_ioannina, false);
  const vra::Vra vra{g.topology, db.full_view(), db.limited_view(kAdmin),
                     {}};
  EXPECT_FALSE(vra.select_server(g.patra, movie).has_value());
}

TEST(StallWatchdog, RetriesAndRecovers) {
  // Two servers; the first path dies mid-cluster; the watchdog re-selects.
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId s1 = topo.add_node("s1");
  const NodeId s2 = topo.add_node("s2");
  const LinkId l1 = topo.add_link(client, s1, Mbps{8.0});
  const LinkId l2 = topo.add_link(client, s2, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};

  // Policy: prefer s1 while its link is up, else s2.
  class FailoverPolicy final : public stream::ServerSelectionPolicy {
   public:
    FailoverPolicy(net::FluidNetwork& network, NodeId client, NodeId s1,
                   NodeId s2, LinkId l1, LinkId l2)
        : network_(network), client_(client), s1_(s1), s2_(s2), l1_(l1),
          l2_(l2) {}
    std::optional<stream::Selection> select(NodeId, VideoId) override {
      if (network_.link_up(l1_)) {
        return stream::Selection{
            s1_, routing::make_route({{client_, s1_}, {l1_}, 1.0})};
      }
      return stream::Selection{
          s2_, routing::make_route({{client_, s2_}, {l2_}, 1.0})};
    }
    const char* name() const override { return "failover"; }

   private:
    net::FluidNetwork& network_;
    NodeId client_, s1_, s2_;
    LinkId l1_, l2_;
  } policy{network, client, s1, s2, l1, l2};

  stream::SessionOptions options;
  options.stall_timeout_seconds = 30.0;
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{40.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}, options};
  session.start();
  // Kill l1 at t=15, mid-cluster-2.
  sim.schedule_at(SimTime{15.0},
                  [&](SimTime) { network.set_link_up(l1, false); });
  sim.run_until(SimTime{500.0});

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.stall_retries, 1);
  // Timeline: clusters at 10s each; cluster 2 starts t=20... wait, l1 died
  // at 15 mid-cluster-1 (which started at t=10).  Watchdog fires at t=40,
  // re-selects s2, finishes the remaining clusters there.
  ASSERT_EQ(m.cluster_sources.size(), 4u);
  EXPECT_EQ(m.cluster_sources[0], s1);
  EXPECT_EQ(m.cluster_sources.back(), s2);
  ASSERT_TRUE(m.download_completed_at.has_value());
  EXPECT_GT(m.download_completed_at->seconds(), 40.0);
}

TEST(StallWatchdog, ExhaustedRetriesFailTheSession) {
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId server = topo.add_node("server");
  const LinkId link = topo.add_link(client, server, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};

  class DeadEndPolicy final : public stream::ServerSelectionPolicy {
   public:
    DeadEndPolicy(NodeId client, NodeId server, LinkId link)
        : client_(client), server_(server), link_(link) {}
    std::optional<stream::Selection> select(NodeId, VideoId) override {
      return stream::Selection{
          server_, routing::make_route({{client_, server_}, {link_}, 1.0})};
    }
    const char* name() const override { return "dead-end"; }

   private:
    NodeId client_, server_;
    LinkId link_;
  } policy{client, server, link};

  stream::SessionOptions options;
  options.stall_timeout_seconds = 10.0;
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{40.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}, options};
  network.set_link_up(link, false);  // dead from the start
  session.start();
  sim.run_until(SimTime{500.0});

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.failure_reason, "cluster stalled beyond retry budget");
  // The failing attempt counts.
  EXPECT_EQ(m.stall_retries, stream::kMaxClusterStallRetries + 1);
  ASSERT_TRUE(m.download_completed_at.has_value());
  EXPECT_NEAR(m.download_completed_at->seconds(),
              10.0 * (stream::kMaxClusterStallRetries + 1), 1e-9);
  EXPECT_EQ(transfers.active_count(), 0u);
}

TEST(StallWatchdog, AutoTimeoutDerivedFromClusterAndCap) {
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId server = topo.add_node("server");
  const LinkId link = topo.add_link(client, server, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  SingleRoutePolicy policy{client, server, link};

  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{40.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}};
  // 10 MB cluster at the 8 Mbps default cap: 10 s expected, 3x = 30 s.
  EXPECT_DOUBLE_EQ(session.stall_timeout_seconds(), 30.0);
  session.start();
  sim.run_until(SimTime{500.0});
  // Healthy run: the auto watchdog never interferes.
  EXPECT_TRUE(session.metrics().finished);
  EXPECT_EQ(session.metrics().stall_retries, 0);

  // Infinity is still accepted and disables the watchdog outright.
  stream::SessionOptions off;
  off.stall_timeout_seconds = std::numeric_limits<double>::infinity();
  const stream::Session unbounded{sim,  transfers, policy, video,
                                  client, MegaBytes{10.0}, off};
  EXPECT_TRUE(std::isinf(unbounded.stall_timeout_seconds()));

  // Zero or negative (other than the sentinel) is a configuration error.
  stream::SessionOptions bad;
  bad.stall_timeout_seconds = 0.0;
  EXPECT_THROW((stream::Session{sim, transfers, policy, video, client,
                                MegaBytes{10.0}, bad}),
               std::invalid_argument);
}

TEST(StallWatchdog, AutoTimeoutFailsDeadSourceExplicitly) {
  // Out-of-the-box options on a dead route: the session must not hang —
  // it fails with an explicit reason once the per-cluster budget is spent.
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId server = topo.add_node("server");
  const LinkId link = topo.add_link(client, server, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  SingleRoutePolicy policy{client, server, link};

  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{40.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}};
  network.set_link_up(link, false);
  session.start();
  sim.run_until(from_hours(1.0));

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.failure_reason, "cluster stalled beyond retry budget");
  EXPECT_EQ(m.stall_retries, 6);  // 5 retries + the failing attempt
  ASSERT_TRUE(m.download_completed_at.has_value());
  EXPECT_NEAR(m.download_completed_at->seconds(), 180.0, 1e-9);
  EXPECT_EQ(transfers.active_count(), 0u);
}

TEST(StallWatchdog, PerClusterBudgetSurvivesRepeatedTransientStalls) {
  // Two independent transient outages, each costing its cluster three
  // retries: six stalls in all, more than the per-cluster budget, yet the
  // session finishes (one shared budget of kMaxClusterStallRetries would
  // have failed it on the sixth).
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId server = topo.add_node("server");
  const LinkId link = topo.add_link(client, server, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  SingleRoutePolicy policy{client, server, link};

  stream::SessionOptions options;
  options.stall_timeout_seconds = 10.0;
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{40.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}, options};
  session.start();
  // Outage 1 hits cluster 0 (retries at 10, 20, 30; done at 45); outage 2
  // hits cluster 2, which starts at 55 (retries at 65, 75, 85).
  sim.schedule_at(SimTime{5.0},
                  [&](SimTime) { network.set_link_up(link, false); });
  sim.schedule_at(SimTime{35.0},
                  [&](SimTime) { network.set_link_up(link, true); });
  sim.schedule_at(SimTime{58.0},
                  [&](SimTime) { network.set_link_up(link, false); });
  sim.schedule_at(SimTime{90.0},
                  [&](SimTime) { network.set_link_up(link, true); });
  sim.run_until(SimTime{500.0});

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.stall_retries, 6);
  EXPECT_GT(m.stall_retries, stream::kMaxClusterStallRetries);
}

TEST(StallWatchdog, TotalBudgetStillCapsDeadTitles) {
  // Every cluster's first three sources are dead, the fourth delivers: each
  // cluster recovers well within its own budget, but a long title piles up
  // more stalls than the session-wide cap allows, and the cap fails it with
  // its own reason.
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId dead = topo.add_node("dead");
  const NodeId live = topo.add_node("live");
  const LinkId dead_link = topo.add_link(client, dead, Mbps{8.0});
  const LinkId live_link = topo.add_link(client, live, Mbps{8.0});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  network.set_link_up(dead_link, false);

  constexpr int kDeadAttempts = 3;
  static_assert(kDeadAttempts <= stream::kMaxClusterStallRetries);
  class FlakyPolicy final : public stream::ServerSelectionPolicy {
   public:
    FlakyPolicy(NodeId client, NodeId dead, NodeId live, LinkId dead_link,
                LinkId live_link)
        : client_(client), dead_(dead), live_(live), dead_link_(dead_link),
          live_link_(live_link) {}
    std::optional<stream::Selection> select(NodeId, VideoId) override {
      return std::nullopt;
    }
    std::optional<stream::Selection> select_cluster(
        NodeId, VideoId, std::size_t cluster) override {
      if (cluster != cluster_) {
        cluster_ = cluster;
        attempts_ = 0;
      }
      if (++attempts_ <= kDeadAttempts) {
        return stream::Selection{
            dead_, routing::make_route({{client_, dead_}, {dead_link_}, 1.0})};
      }
      return stream::Selection{
          live_, routing::make_route({{client_, live_}, {live_link_}, 1.0})};
    }
    const char* name() const override { return "flaky"; }

   private:
    NodeId client_, dead_, live_;
    LinkId dead_link_, live_link_;
    std::size_t cluster_ = 0;
    int attempts_ = 0;
  } policy{client, dead, live, dead_link, live_link};

  stream::SessionOptions options;
  options.stall_timeout_seconds = 10.0;
  // 12 clusters x 3 stalls = 36 > 25: the budget runs out in cluster 8.
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{120.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{10.0}, options};
  session.start();
  sim.run_until(from_hours(1.0));

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.failed);
  EXPECT_EQ(m.failure_reason, "session stalled beyond total retry budget");
  EXPECT_EQ(m.stall_retries, stream::kMaxSessionStallRetries + 1);
  EXPECT_EQ(m.cluster_completed.size(),
            static_cast<std::size_t>(stream::kMaxSessionStallRetries /
                                     kDeadAttempts));
}

TEST(StallWatchdog, SlowButAliveTransferIsNotAborted) {
  // Heavy congestion leaves the flow a trickle (0.1 Mbps) — far beyond
  // the timeout but above the rate floor: the watchdog keeps re-arming
  // instead of churning retries on a transfer that is making progress.
  net::Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId server = topo.add_node("server");
  const LinkId link = topo.add_link(client, server, Mbps{8.0});
  net::ConstantTraffic traffic;
  traffic.set_load(link, Mbps{7.9});
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  SingleRoutePolicy policy{client, server, link};

  stream::SessionOptions options;
  options.stall_timeout_seconds = 10.0;  // 1 MB at 0.1 Mbps takes 80 s
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{2.0}, Mbps{2.0}};
  stream::Session session{sim,  transfers, policy, video,
                          client, MegaBytes{1.0}, options};
  session.start();
  sim.run_until(SimTime{500.0});

  const stream::SessionMetrics& m = session.metrics();
  EXPECT_TRUE(m.finished);
  EXPECT_EQ(m.stall_retries, 0);
  ASSERT_TRUE(m.download_completed_at.has_value());
  EXPECT_NEAR(m.download_completed_at->seconds(), 160.0, 1e-6);
}

TEST(ServiceFailover, LinkFailureMidStreamIsSurvived) {
  // Full-stack: GRNET, two replicas, the chosen route's link dies; the
  // SNMP poll marks it offline and the next cluster re-routes.
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.snmp_interval_seconds = 30.0;
  options.dma.admission_threshold = 1'000'000;  // routing only
  options.session.stall_timeout_seconds = 120.0;
  service::VodService service{sim, g.topology, network, options, kAdmin};
  const VideoId movie =
      service.add_video("movie", MegaBytes{100.0}, Mbps{2.0});
  service.place_initial_copy(g.thessaloniki, movie);
  service.place_initial_copy(g.xanthi, movie);
  service.start();

  const SessionId id = service.request_at(g.patra, movie);
  // On an idle network Patra pulls from Thessaloniki via Ioannina; cut
  // Patra-Ioannina mid-stream.
  sim.schedule_at(SimTime{15.0}, [&](SimTime) {
    network.set_link_up(g.patra_ioannina, false);
  });
  sim.run_until(from_hours(2.0));

  const stream::SessionMetrics& m = service.session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
}

}  // namespace
}  // namespace vod
