#include "service/distributed_striping.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "grnet/grnet.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

TEST(DistributedStripePlacer, ValidatesArguments) {
  EXPECT_THROW(DistributedStripePlacer({}, 1), std::invalid_argument);
  EXPECT_THROW(DistributedStripePlacer({NodeId{0}}, 0),
               std::invalid_argument);
  EXPECT_THROW(DistributedStripePlacer({NodeId{0}}, 2),
               std::invalid_argument);
}

TEST(DistributedStripePlacer, AssignsReplicaCountServersPerTitle) {
  DistributedStripePlacer placer{{NodeId{0}, NodeId{1}, NodeId{2}}, 2};
  const auto plan = placer.plan({VideoId{10}, VideoId{11}});
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].servers.size(), 2u);
  EXPECT_EQ(plan[1].servers.size(), 2u);
}

TEST(DistributedStripePlacer, RotatesStartServerByPopularityRank) {
  DistributedStripePlacer placer{{NodeId{0}, NodeId{1}, NodeId{2}}, 2};
  const auto plan =
      placer.plan({VideoId{10}, VideoId{11}, VideoId{12}, VideoId{13}});
  EXPECT_EQ(plan[0].servers, (std::vector<NodeId>{NodeId{0}, NodeId{1}}));
  EXPECT_EQ(plan[1].servers, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  EXPECT_EQ(plan[2].servers, (std::vector<NodeId>{NodeId{2}, NodeId{0}}));
  EXPECT_EQ(plan[3].servers, (std::vector<NodeId>{NodeId{0}, NodeId{1}}));
}

struct PolicyFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  VideoId striped_movie;
  VideoId plain_movie;

  PolicyFixture() {
    striped_movie =
        db.register_video("striped", MegaBytes{900.0}, Mbps{2.0});
    plain_movie = db.register_video("plain", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    grnet::write_table2(view, g, grnet::TimeOfDay::k8am);
    view.add_title(g.thessaloniki, plain_movie);
  }
};

TEST(StripedSelectionPolicy, RoutesClustersRoundRobinAcrossHolders) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra,
      {StripeAssignment{fx.striped_movie,
                        {fx.g.thessaloniki, fx.g.xanthi}}}};
  const auto c0 = policy.select_cluster(fx.g.patra, fx.striped_movie, 0);
  const auto c1 = policy.select_cluster(fx.g.patra, fx.striped_movie, 1);
  const auto c2 = policy.select_cluster(fx.g.patra, fx.striped_movie, 2);
  ASSERT_TRUE(c0 && c1 && c2);
  EXPECT_EQ(c0->server, fx.g.thessaloniki);
  EXPECT_EQ(c1->server, fx.g.xanthi);
  EXPECT_EQ(c2->server, fx.g.thessaloniki);
}

TEST(StripedSelectionPolicy, PathsFollowCurrentLvnWeights) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra,
      {StripeAssignment{fx.striped_movie, {fx.g.thessaloniki}}}};
  const auto selection =
      policy.select_cluster(fx.g.patra, fx.striped_movie, 0);
  ASSERT_TRUE(selection.has_value());
  // At 8am the least-LVN Patra->Thessaloniki route is U2,U3,U4 (~0.218).
  EXPECT_NEAR(selection->path().cost, 0.218, 0.002);
  EXPECT_EQ(selection->path().hop_count(), 2u);
}

TEST(StripedSelectionPolicy, RoutesAreTheVrasCachedRoutes) {
  // Every cluster of a strip streams over the route object the VRA's
  // per-home tree built, the one its own selection hands out: no Dijkstra
  // per cluster fetch.
  PolicyFixture fx;
  fx.db.limited_view(kAdmin).add_title(fx.g.thessaloniki, fx.striped_movie);
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra, {StripeAssignment{fx.striped_movie, {fx.g.thessaloniki}}}};
  const auto first = policy.select_cluster(fx.g.patra, fx.striped_movie, 0);
  const auto again = policy.select_cluster(fx.g.patra, fx.striped_movie, 1);
  const auto decision = vra.select_server(fx.g.patra, fx.striped_movie);
  ASSERT_TRUE(first && again && decision);
  EXPECT_EQ(first->route.get(), again->route.get());
  EXPECT_EQ(first->route.get(), decision->route.get());
  EXPECT_EQ(vra.cache_stats().spt_misses, 1u);
  EXPECT_EQ(vra.cache_stats().graph_rebuilds, 1u);
}

TEST(StripedSelectionPolicy, OfflineStripHolderFallsBackToVra) {
  // Strip 0 lives on Thessaloniki, which is down: the cluster must come
  // from an online copy, never from the offline holder.
  PolicyFixture fx;
  auto view = fx.db.limited_view(kAdmin);
  view.add_title(fx.g.thessaloniki, fx.striped_movie);
  view.add_title(fx.g.xanthi, fx.striped_movie);
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra,
      {StripeAssignment{fx.striped_movie,
                        {fx.g.thessaloniki, fx.g.xanthi}}}};
  view.set_server_online(fx.g.thessaloniki, false);
  const auto selection =
      policy.select_cluster(fx.g.patra, fx.striped_movie, 0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.xanthi);
  EXPECT_EQ(selection->path().destination(), fx.g.xanthi);
  // With no online copy left, there is no source at all.
  view.set_server_online(fx.g.xanthi, false);
  EXPECT_FALSE(
      policy.select_cluster(fx.g.patra, fx.striped_movie, 0).has_value());
}

TEST(StripedSelectionPolicy, HomeStripServedLocally) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra, {StripeAssignment{fx.striped_movie, {fx.g.patra}}}};
  const auto selection =
      policy.select_cluster(fx.g.patra, fx.striped_movie, 0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.patra);
  EXPECT_TRUE(selection->path().links.empty());
}

TEST(StripedSelectionPolicy, UnassignedVideoFallsBackToVra) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra, {StripeAssignment{fx.striped_movie, {fx.g.xanthi}}}};
  const auto selection =
      policy.select_cluster(fx.g.patra, fx.plain_movie, 0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.thessaloniki);  // the VRA's answer
}

TEST(StripedSelectionPolicy, SelectDelegatesToClusterZero) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  StripedSelectionPolicy policy{
      vra,
      {StripeAssignment{fx.striped_movie,
                        {fx.g.thessaloniki, fx.g.xanthi}}}};
  const auto selection = policy.select(fx.g.patra, fx.striped_movie);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.thessaloniki);
}

TEST(StripedSelectionPolicy, RejectsEmptyServerList) {
  PolicyFixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(),
               fx.db.limited_view(kAdmin), {}};
  EXPECT_THROW(StripedSelectionPolicy(
                   vra, {StripeAssignment{fx.striped_movie, {}}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vod::service
