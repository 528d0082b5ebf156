// Request coalescing (batching): nearby requests for the same title at the
// same home server join one stream.
#include <gtest/gtest.h>

#include "service/vod_service.h"
#include "support/grnet_service.h"

namespace vod::service {
namespace {

/// The shared fixture with a coalescing window of `seconds`.
test::GrnetSetup window(double seconds) {
  test::GrnetSetup setup;
  setup.options.coalesce_window_seconds = seconds;
  return setup;
}

TEST(Coalescing, SecondRequestInWindowJoinsLeader) {
  test::GrnetService fx{window(60.0)};
  const SessionId first = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{10.0});
  const SessionId second = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_EQ(second, first);
  EXPECT_EQ(fx.service->coalesced_count(), 1u);
  EXPECT_EQ(fx.service->session_ids().size(), 1u);
}

TEST(Coalescing, JoinerCallbackFiresWithLeader) {
  test::GrnetService fx{window(60.0)};
  bool leader_done = false;
  bool joiner_done = false;
  fx.service->request_at(fx.g.patra, fx.movie,
                         [&](const stream::Session&) { leader_done = true; });
  fx.sim.run_until(SimTime{5.0});
  fx.service->request_at(fx.g.patra, fx.movie,
                         [&](const stream::Session&) { joiner_done = true; });
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(leader_done);
  EXPECT_TRUE(joiner_done);
}

TEST(Coalescing, OutsideWindowOpensNewStream) {
  test::GrnetService fx{window(30.0)};
  const SessionId first = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{31.0});
  const SessionId second = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_NE(second, first);
  EXPECT_EQ(fx.service->coalesced_count(), 0u);
}

TEST(Coalescing, DifferentHomesDoNotCoalesce) {
  test::GrnetService fx{window(60.0)};
  const SessionId patra = fx.service->request_at(fx.g.patra, fx.movie);
  const SessionId heraklio =
      fx.service->request_at(fx.g.heraklio, fx.movie);
  EXPECT_NE(patra, heraklio);
  EXPECT_EQ(fx.service->coalesced_count(), 0u);
}

TEST(Coalescing, DifferentTitlesDoNotCoalesce) {
  test::GrnetService fx{window(60.0)};
  const VideoId other =
      fx.service->add_video("other", MegaBytes{40.0}, Mbps{2.0});
  fx.service->place_initial_copy(fx.g.thessaloniki, other);
  const SessionId a = fx.service->request_at(fx.g.patra, fx.movie);
  const SessionId b = fx.service->request_at(fx.g.patra, other);
  EXPECT_NE(a, b);
}

TEST(Coalescing, FinishedLeaderDoesNotAbsorbLateRequests) {
  // Huge window, but the leader finishes first.
  test::GrnetService fx{window(3600.0)};
  const SessionId first = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(0.5));
  ASSERT_TRUE(fx.service->session_metrics(first).finished);
  const SessionId second = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_NE(second, first);
  EXPECT_EQ(fx.service->coalesced_count(), 0u);
}

TEST(Coalescing, DisabledByDefault) {
  test::GrnetService fx{window(0.0)};
  const SessionId first = fx.service->request_at(fx.g.patra, fx.movie);
  const SessionId second = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_NE(second, first);
  EXPECT_EQ(fx.service->coalesced_count(), 0u);
}

TEST(Coalescing, JoinersStillCountTowardDmaPopularity) {
  test::GrnetService fx{window(60.0)};
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.service->request_at(fx.g.patra, fx.movie);  // coalesced
  EXPECT_EQ(fx.service->dma_cache(fx.g.patra).request_count(), 2u);
}

TEST(Coalescing, SavesNetworkWork) {
  // Five viewers in one minute: coalescing moves the title once.
  test::GrnetService coalesced{window(120.0)};
  for (int i = 0; i < 5; ++i) {
    coalesced.service->request_at(coalesced.g.patra, coalesced.movie);
    coalesced.sim.run_until(coalesced.sim.now() + 10.0);
  }
  coalesced.sim.run_until(from_hours(1.0));
  EXPECT_EQ(coalesced.service->session_ids().size(), 1u);
  EXPECT_EQ(coalesced.service->coalesced_count(), 4u);

  test::GrnetService independent{window(0.0)};
  for (int i = 0; i < 5; ++i) {
    independent.service->request_at(independent.g.patra,
                                    independent.movie);
    independent.sim.run_until(independent.sim.now() + 10.0);
  }
  independent.sim.run_until(from_hours(1.0));
  EXPECT_EQ(independent.service->session_ids().size(), 5u);
}

}  // namespace
}  // namespace vod::service
