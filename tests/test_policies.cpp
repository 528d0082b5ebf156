#include "baselines/selection_baselines.h"

#include <gtest/gtest.h>

#include <set>

#include "grnet/grnet.h"
#include "stream/policy.h"

namespace vod::baselines {
namespace {

const db::AdminCredential kAdmin{"secret"};

struct Fixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  VideoId movie;

  Fixture() {
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    grnet::write_table2(db.limited_view(kAdmin), g, grnet::TimeOfDay::k8am);
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }
};

TEST(RandomHolderPolicy, PicksOnlyHolders) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  RandomHolderPolicy policy{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin), Rng{1}};
  std::set<NodeId> seen;
  for (int i = 0; i < 50; ++i) {
    const auto selection = policy.select(fx.g.patra, fx.movie);
    ASSERT_TRUE(selection.has_value());
    seen.insert(selection->server);
    EXPECT_TRUE(selection->server == fx.g.thessaloniki ||
                selection->server == fx.g.xanthi);
    EXPECT_EQ(selection->path().source(), fx.g.patra);
    EXPECT_EQ(selection->path().destination(), selection->server);
  }
  EXPECT_EQ(seen.size(), 2u);  // both holders eventually chosen
}

TEST(RandomHolderPolicy, HomeHolderServedLocally) {
  Fixture fx;
  fx.place(fx.g.patra);
  RandomHolderPolicy policy{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin), Rng{1}};
  const auto selection = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.patra);
  EXPECT_TRUE(selection->path().links.empty());
}

TEST(RandomHolderPolicy, SkipsOfflineServers) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  fx.db.limited_view(kAdmin).set_server_online(fx.g.xanthi, false);
  RandomHolderPolicy policy{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin), Rng{1}};
  for (int i = 0; i < 20; ++i) {
    const auto selection = policy.select(fx.g.patra, fx.movie);
    ASSERT_TRUE(selection.has_value());
    EXPECT_EQ(selection->server, fx.g.thessaloniki);
  }
}

TEST(RandomHolderPolicy, NoHolderReturnsNullopt) {
  Fixture fx;
  RandomHolderPolicy policy{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin), Rng{1}};
  EXPECT_FALSE(policy.select(fx.g.patra, fx.movie).has_value());
}

TEST(NearestByHopsPolicy, PrefersFewestHops) {
  Fixture fx;
  // Thessaloniki is 2 hops from Patra (via Athens or Ioannina); Xanthi 3.
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  NearestByHopsPolicy policy{fx.g.topology, fx.db.full_view(),
                             fx.db.limited_view(kAdmin)};
  const auto selection = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.thessaloniki);
  EXPECT_EQ(selection->path().hop_count(), 2u);
}

TEST(NearestByHopsPolicy, HomeHolderWins) {
  Fixture fx;
  fx.place(fx.g.patra);
  fx.place(fx.g.athens);
  NearestByHopsPolicy policy{fx.g.topology, fx.db.full_view(),
                             fx.db.limited_view(kAdmin)};
  const auto selection = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(selection.has_value());
  EXPECT_EQ(selection->server, fx.g.patra);
  EXPECT_EQ(selection->path().hop_count(), 0u);
}

TEST(NearestByHopsPolicy, IgnoresCongestionEntirely) {
  // Unlike the VRA, nearest-by-hops picks Athens' neighbor even when the
  // direct link is saturated — that is exactly its weakness.
  Fixture fx;
  fx.place(fx.g.athens);
  fx.place(fx.g.ioannina);
  NearestByHopsPolicy policy{fx.g.topology, fx.db.full_view(),
                             fx.db.limited_view(kAdmin)};
  const auto selection = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(selection.has_value());
  // Both are 1 hop; tie-break by node id gives Athens (U1, id 0).
  EXPECT_EQ(selection->server, fx.g.athens);
}

TEST(StaticOncePolicy, RepeatsFirstDecision) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  NearestByHopsPolicy inner{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin)};
  StaticOncePolicy policy{inner};
  const auto first = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(first.has_value());
  // Remove the chosen holder from the catalog: a re-evaluating policy
  // would switch; static-once must not.
  fx.db.limited_view(kAdmin).remove_title(first->server, fx.movie);
  const auto second = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->server, first->server);
}

TEST(StaticOncePolicy, ResetForgetsDecisions) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  NearestByHopsPolicy inner{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin)};
  StaticOncePolicy policy{inner};
  ASSERT_TRUE(policy.select(fx.g.patra, fx.movie).has_value());
  fx.db.limited_view(kAdmin).remove_title(fx.g.thessaloniki, fx.movie);
  fx.db.limited_view(kAdmin).add_title(fx.g.xanthi, fx.movie);
  policy.reset();
  const auto fresh = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->server, fx.g.xanthi);
}

TEST(StaticOncePolicy, DistinctRequestsDecidedIndependently) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  NearestByHopsPolicy inner{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin)};
  StaticOncePolicy policy{inner};
  const auto from_patra = policy.select(fx.g.patra, fx.movie);
  const auto from_heraklio = policy.select(fx.g.heraklio, fx.movie);
  ASSERT_TRUE(from_patra && from_heraklio);
  EXPECT_NE(from_patra->path().nodes, from_heraklio->path().nodes);
}

TEST(VraPolicy, ValidatesHysteresisRange) {
  Fixture fx;
  vra::Vra vra{fx.g.topology, fx.db.full_view(), fx.db.limited_view(kAdmin),
               {}};
  EXPECT_THROW(stream::VraPolicy(vra, -0.1), std::invalid_argument);
  EXPECT_THROW(stream::VraPolicy(vra, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(stream::VraPolicy(vra, 0.0));
  EXPECT_NO_THROW(stream::VraPolicy(vra, 0.99));
}

TEST(VraPolicy, ZeroHysteresisAlwaysFollowsBest) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  vra::Vra vra{fx.g.topology, fx.db.full_view(), fx.db.limited_view(kAdmin),
               {}};
  stream::VraPolicy policy{vra};
  const auto first = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->server, fx.g.thessaloniki);  // corrected Experiment A
  // Make the previous choice unavailable: must re-route immediately.
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, false);
  const auto second = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->server, fx.g.xanthi);
}

TEST(VraPolicy, HysteresisSticksWithPreviousSourceOnSmallGaps) {
  Fixture fx;  // 8am stats: Thessaloniki 0.218, Xanthi 0.315 from Patra
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  vra::Vra vra{fx.g.topology, fx.db.full_view(), fx.db.limited_view(kAdmin),
               {}};
  // Seed the sticky state on Xanthi by taking Thessaloniki offline first.
  stream::VraPolicy policy{vra, 0.9};  // very reluctant to switch
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, false);
  const auto first = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->server, fx.g.xanthi);
  // Thessaloniki comes back, cheaper (0.218 vs 0.315) but not by 90%.
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, true);
  const auto second = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->server, fx.g.xanthi);  // sticks
  // A low-hysteresis policy in the same situation switches (0.218 is more
  // than 10% cheaper than 0.315).
  stream::VraPolicy eager{vra, 0.1};
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, false);
  (void)eager.select(fx.g.patra, fx.movie);
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, true);
  const auto eager_second = eager.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(eager_second.has_value());
  EXPECT_EQ(eager_second->server, fx.g.thessaloniki);
}

TEST(VraPolicy, ResetForgetsStickyChoice) {
  Fixture fx;
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  vra::Vra vra{fx.g.topology, fx.db.full_view(), fx.db.limited_view(kAdmin),
               {}};
  stream::VraPolicy policy{vra, 0.9};
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, false);
  (void)policy.select(fx.g.patra, fx.movie);
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, true);
  policy.reset();
  const auto fresh = policy.select(fx.g.patra, fx.movie);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->server, fx.g.thessaloniki);  // no memory of Xanthi
}

TEST(PolicyNames, AreDistinct) {
  Fixture fx;
  RandomHolderPolicy random{fx.g.topology, fx.db.full_view(),
                            fx.db.limited_view(kAdmin), Rng{1}};
  NearestByHopsPolicy nearest{fx.g.topology, fx.db.full_view(),
                              fx.db.limited_view(kAdmin)};
  StaticOncePolicy static_once{nearest};
  EXPECT_STREQ(random.name(), "random");
  EXPECT_STREQ(nearest.name(), "nearest");
  EXPECT_STREQ(static_once.name(), "static-once");
}

}  // namespace
}  // namespace vod::baselines
