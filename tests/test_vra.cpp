#include "vra/vra.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "grnet/grnet.h"

namespace vod::vra {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// The paper's case-study database at one instant of Table 2.
struct CaseFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  VideoId movie;

  explicit CaseFixture(grnet::TimeOfDay t) {
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    grnet::write_table2(db.limited_view(kAdmin), g, t);
  }

  void place(NodeId server) {
    db.limited_view(kAdmin).add_title(server, movie);
  }

  Vra make_vra() {
    return Vra{g.topology, db.full_view(), db.limited_view(kAdmin), {}};
  }
};

TEST(Vra, HomeServerWithTitleServesLocally) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.patra);
  fx.place(fx.g.thessaloniki);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->served_locally);
  EXPECT_EQ(decision->server, fx.g.patra);
  EXPECT_DOUBLE_EQ(decision->cost(), 0.0);
  EXPECT_TRUE(decision->candidates.empty());
}

TEST(Vra, NoHolderAnywhereReturnsNullopt) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  EXPECT_FALSE(
      fx.make_vra().select_server(fx.g.patra, fx.movie).has_value());
}

TEST(Vra, OfflineHoldersAreFilteredByPolling) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  fx.db.limited_view(kAdmin).set_server_online(fx.g.thessaloniki, false);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.xanthi);
  EXPECT_EQ(decision->candidates.size(), 1u);
}

TEST(Vra, OfflineHomeServerDoesNotServeLocally) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.patra);
  fx.place(fx.g.xanthi);
  fx.db.limited_view(kAdmin).set_server_online(fx.g.patra, false);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(decision->served_locally);
  EXPECT_EQ(decision->server, fx.g.xanthi);
}

TEST(Vra, UnknownInputsThrow) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  EXPECT_THROW(fx.make_vra().select_server(NodeId{99}, fx.movie),
               std::invalid_argument);
  EXPECT_THROW(fx.make_vra().select_server(fx.g.patra, VideoId{99}),
               std::invalid_argument);
}

TEST(Vra, CandidatesSortedByAscendingCost) {
  CaseFixture fx{grnet::TimeOfDay::k4pm};
  fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.athens, fx.movie);
  ASSERT_TRUE(decision.has_value());
  ASSERT_EQ(decision->candidates.size(), 3u);
  EXPECT_LE(decision->candidates[0].path().cost,
            decision->candidates[1].path().cost);
  EXPECT_LE(decision->candidates[1].path().cost,
            decision->candidates[2].path().cost);
  EXPECT_EQ(decision->candidates[0].server, decision->server);
}

TEST(Vra, TraceRecordedOnRequest) {
  // The Tables 4/5 step table: Dijkstra traced over the VRA's own graph
  // finds the path the (cached) decision took.
  CaseFixture fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.xanthi);
  const Vra vra = fx.make_vra();
  const auto decision = vra.select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  routing::DijkstraTrace trace;
  const routing::ShortestPaths traced = routing::dijkstra(
      fx.g.topology, vra.link_weights(), fx.g.patra, &trace);
  EXPECT_EQ(trace.size(), 6u);  // all six nodes reachable
  EXPECT_EQ(traced.distance_to(fx.g.xanthi), decision->cost());
  EXPECT_EQ(traced.path_to(fx.g.xanthi)->nodes, decision->path().nodes);
}

TEST(Vra, WeightedGraphUsesLvnWeights) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  const std::vector<double> weights = fx.make_vra().link_weights();
  EXPECT_EQ(weights.size(), 7u);
  // Patra-Athens at 8am: published LVN 0.083.
  EXPECT_NEAR(weights[fx.g.patra_athens.value()], 0.083, 0.001);
}

// --- Experiment A (8am, client at Patra, title at Thessaloniki+Xanthi) ---
//
// NOTE: the paper's Table 4 mis-relaxes U4 (it reports the best U2->U4 path
// as U2,U1,U4 at 0.365 and therefore picks Xanthi at 0.315).  Dijkstra on
// the paper's own Table 3 weights gives U2,U3,U4 at ~0.218, which flips the
// decision to Thessaloniki.  We assert the correct result; EXPERIMENTS.md
// records the discrepancy and shows both numbers.
TEST(VraExperiments, ExperimentA_CorrectedDecision) {
  CaseFixture fx{grnet::TimeOfDay::k8am};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.thessaloniki);
  EXPECT_EQ(decision->path().to_string(fx.g.topology),
            "U2,U3,U4");
  EXPECT_NEAR(decision->path().cost, 0.2178, 0.002);
  // The paper's intended Xanthi alternative is the other candidate, with
  // the cost the paper reports (0.315).
  ASSERT_EQ(decision->candidates.size(), 2u);
  EXPECT_EQ(decision->candidates[1].server, fx.g.xanthi);
  EXPECT_NEAR(decision->candidates[1].path().cost, 0.315, 0.002);
  EXPECT_EQ(decision->candidates[1].path().to_string(fx.g.topology),
            "U2,U1,U6,U5");
}

// --- Experiment B (10am, same request) — paper-consistent ---
TEST(VraExperiments, ExperimentB_MatchesPaper) {
  CaseFixture fx{grnet::TimeOfDay::k10am};
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.thessaloniki);
  EXPECT_EQ(decision->path().to_string(fx.g.topology),
            "U2,U3,U4");
  EXPECT_NEAR(decision->path().cost, 1.007, 0.01);
  // Alternative: Xanthi via U2,U1,U6,U5 at ~1.308.
  ASSERT_EQ(decision->candidates.size(), 2u);
  EXPECT_NEAR(decision->candidates[1].path().cost, 1.308, 0.01);
}

// --- Experiment C (4pm, client at Athens, title at U3/U4/U5) ---
TEST(VraExperiments, ExperimentC_MatchesPaper) {
  CaseFixture fx{grnet::TimeOfDay::k4pm};
  fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.athens, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.ioannina);
  EXPECT_EQ(decision->path().to_string(fx.g.topology),
            "U1,U2,U3");
  EXPECT_NEAR(decision->path().cost, 1.222, 0.01);

  // Paper's per-candidate costs: U4 direct 1.5433, U5 via U6 1.274.
  ASSERT_EQ(decision->candidates.size(), 3u);
  for (const Candidate& candidate : decision->candidates) {
    if (candidate.server == fx.g.thessaloniki) {
      EXPECT_NEAR(candidate.path().cost, 1.5433, 0.01);
    } else if (candidate.server == fx.g.xanthi) {
      EXPECT_NEAR(candidate.path().cost, 1.274, 0.01);
    }
  }
}

// --- Experiment D (6pm, same request as C) ---
TEST(VraExperiments, ExperimentD_MatchesPaper) {
  CaseFixture fx{grnet::TimeOfDay::k6pm};
  fx.place(fx.g.ioannina);
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.athens, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.ioannina);
  EXPECT_EQ(decision->path().to_string(fx.g.topology),
            "U1,U2,U3");
  EXPECT_NEAR(decision->path().cost, 1.236, 0.01);
  for (const Candidate& candidate : decision->candidates) {
    if (candidate.server == fx.g.thessaloniki) {
      EXPECT_NEAR(candidate.path().cost, 1.4824, 0.01);
    } else if (candidate.server == fx.g.xanthi) {
      EXPECT_NEAR(candidate.path().cost, 1.3574, 0.01);
    }
  }
}

TEST(Vra, TieBreaksTowardLowerNodeId) {
  // Two holders with identical (zero-load) path costs.
  CaseFixture fx{grnet::TimeOfDay::k8am};
  auto view = fx.db.limited_view(kAdmin);
  for (const LinkId link : fx.g.links_in_paper_order()) {
    view.update_link_stats(link, Mbps{0.0}, 0.0, SimTime{0.0});
  }
  // Thessaloniki (U4, id 3) and Xanthi (U5, id 4): both reachable at cost
  // 0 on the idle network -> U4 wins by id.
  fx.place(fx.g.thessaloniki);
  fx.place(fx.g.xanthi);
  const auto decision = fx.make_vra().select_server(fx.g.patra, fx.movie);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->server, fx.g.thessaloniki);
}

// The decision flips between A/B purely because the statistics moved —
// the "dynamic" in the title.  (With the corrected Experiment A both pick
// Thessaloniki, but the *route* to it is stable while every cost moved.)
TEST(VraExperiments, CostsRiseWithCongestionAcrossTheDay) {
  CaseFixture morning{grnet::TimeOfDay::k8am};
  morning.place(morning.g.thessaloniki);
  morning.place(morning.g.xanthi);
  CaseFixture midmorning{grnet::TimeOfDay::k10am};
  midmorning.place(midmorning.g.thessaloniki);
  midmorning.place(midmorning.g.xanthi);
  const auto at8 =
      morning.make_vra().select_server(morning.g.patra, morning.movie);
  const auto at10 = midmorning.make_vra().select_server(
      midmorning.g.patra, midmorning.movie);
  ASSERT_TRUE(at8 && at10);
  EXPECT_LT(at8->path().cost, at10->path().cost);
}

}  // namespace
}  // namespace vod::vra
