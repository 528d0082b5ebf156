// Session retirement: finished/failed sessions leave the live store (the
// O(active)-memory invariant), their summaries stay queryable under
// kSummaries retention, and the coalescing batch table is pruned on leader
// retirement and by the expiry sweep.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "service/vod_service.h"
#include "support/grnet_service.h"

namespace vod::service {
namespace {

/// Most tests stream a one-cluster movie; a test whose playback must
/// outlast a window keeps the shared fixture's 40 MB.
constexpr MegaBytes kOneCluster{10.0};

TEST(SessionRetirement, LeakRegressionManyLifecycles) {
  // The historical leak: sessions_ never shrank, so a long run held every
  // Session object ever created.  After N sequential lifecycles the live
  // store must be empty while the summaries keep the history.
  test::GrnetService fx{{.movie_size = kOneCluster}};
  constexpr int kSessions = 30;
  for (int i = 0; i < kSessions; ++i) {
    fx.sim.schedule_at(SimTime{100.0 * i}, [&fx](SimTime) {
      fx.service->request_at(fx.g.patra, fx.movie);
    });
  }
  fx.sim.run_until(SimTime{100.0 * kSessions + 1000.0});

  EXPECT_EQ(fx.service->active_session_count(), 0u);
  EXPECT_EQ(fx.service->resident_session_count(), 0u);
  const auto ids = fx.service->session_ids();
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kSessions));
  for (const SessionId id : ids) {
    EXPECT_TRUE(fx.service->session_metrics(id).finished);
    EXPECT_EQ(fx.service->session_home(id), fx.g.patra);
    EXPECT_EQ(fx.service->session_video(id).id, fx.movie);
    // The live-object accessor is active-only by contract.
    EXPECT_THROW((void)fx.service->session(id), std::out_of_range);
  }
}

TEST(SessionRetirement, EventHeapDoesNotGrowWithStreamingSessions) {
  // Every streaming session has a stall watchdog armed, but watchdogs of
  // one timeout share one timer lane and one queue event: the pending
  // events are the transfer wake-up, the lane and the service's own
  // periodic events, whatever the number of sessions in flight.
  const auto pending_with = [](int sessions) {
    test::GrnetService fx;
    for (int i = 0; i < sessions; ++i) {
      fx.service->request_at(fx.g.patra, fx.movie);
    }
    fx.sim.run_until(SimTime{1.0});
    EXPECT_EQ(fx.service->active_session_count(),
              static_cast<std::size_t>(sessions));
    return fx.sim.queue().pending_count();
  };
  EXPECT_EQ(pending_with(10), pending_with(200));
}

TEST(SessionRetirement, SessionStaysResidentWhileActive) {
  test::GrnetService fx{{.movie_size = kOneCluster}};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{5.0});  // mid-stream (40 s playback)
  EXPECT_EQ(fx.service->resident_session_count(), 1u);
  EXPECT_TRUE(fx.service->session(id).active());
  fx.sim.run_until(from_hours(1.0));
  EXPECT_EQ(fx.service->resident_session_count(), 0u);
  EXPECT_TRUE(fx.service->session_metrics(id).finished);
}

TEST(SessionRetirement, CountersOnlyDropsRecords) {
  test::GrnetSetup setup{.movie_size = kOneCluster};
  setup.options.retention = SessionRetention::kCountersOnly;
  test::GrnetService fx{setup};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));

  // No record retained: the id is gone from every per-session surface...
  EXPECT_EQ(fx.service->resident_session_count(), 0u);
  EXPECT_TRUE(fx.service->session_ids().empty());
  EXPECT_THROW((void)fx.service->session_metrics(id), std::out_of_range);
  EXPECT_THROW((void)fx.service->session_home(id), std::out_of_range);
  EXPECT_THROW((void)fx.service->session_video(id), std::out_of_range);
  // ...but the aggregate counters kept the outcome.
  EXPECT_EQ(
      fx.service->metrics().counter("service.sessions_finished").value(),
      1u);
}

TEST(SessionRetirement, RetryChainPrunedUnderCountersOnly) {
  // The retry-chain bookkeeping lives on the retired records; with records
  // pruned the chain queries answer "unknown" while the retry machinery
  // itself still works.
  test::GrnetSetup setup;
  setup.options.retention = SessionRetention::kCountersOnly;
  setup.options.failover.retry_limit = 2;
  setup.options.failover.retry_backoff_seconds = 30.0;
  test::GrnetService fx{setup};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.schedule_at(SimTime{5.0}, [&fx](SimTime) {
    fx.service->crash_server(fx.g.thessaloniki);
  });
  fx.sim.schedule_at(SimTime{20.0}, [&fx](SimTime) {
    fx.service->restore_server(fx.g.thessaloniki);
  });
  fx.sim.run_until(from_hours(1.0));

  EXPECT_EQ(fx.service->service_retry_count(), 1u);
  EXPECT_EQ(
      fx.service->metrics().counter("service.sessions_finished").value(),
      1u);
  EXPECT_FALSE(fx.service->session_superseded(id));
  EXPECT_EQ(fx.service->retried_as(id), std::nullopt);
  EXPECT_EQ(fx.service->resident_session_count(), 0u);
}

TEST(SessionRetirement, DeadLeaderNotCoalescedAfterFailover) {
  // Regression: the batch entry used to outlive its leader, and a request
  // inside the window after a failover crash tried to join the dead
  // stream.  Retirement must drop the entry so the request opens fresh.
  test::GrnetSetup setup;
  setup.options.coalesce_window_seconds = 120.0;
  test::GrnetService fx{setup};
  const SessionId leader = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_EQ(fx.service->open_batch_count(), 1u);
  fx.sim.schedule_at(SimTime{5.0}, [&fx](SimTime) {
    fx.service->crash_server(fx.g.thessaloniki);  // only holder: leader dies
  });
  fx.sim.schedule_at(SimTime{10.0}, [&fx](SimTime) {
    fx.service->restore_server(fx.g.thessaloniki);
  });
  fx.sim.run_until(SimTime{20.0});
  ASSERT_TRUE(fx.service->session_metrics(leader).failed);
  EXPECT_EQ(fx.service->open_batch_count(), 0u);

  // Still well inside the 120 s window — must NOT join the dead leader.
  const SessionId second = fx.service->request_at(fx.g.patra, fx.movie);
  EXPECT_NE(second, leader);
  EXPECT_EQ(fx.service->coalesced_count(), 0u);
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(fx.service->session_metrics(second).finished);
}

TEST(SessionRetirement, StaleBatchExpiresWhileLeaderStillStreams) {
  // The expiry sweep prunes entries one window after registration even
  // when no later request ever looks them up and the leader is still
  // active (long movie, short window).
  test::GrnetSetup setup;
  setup.options.coalesce_window_seconds = 30.0;
  test::GrnetService fx{setup};  // 160 s playback >> 30 s window
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{10.0});
  EXPECT_EQ(fx.service->open_batch_count(), 1u);
  fx.sim.run_until(SimTime{65.0});
  EXPECT_EQ(fx.service->resident_session_count(), 1u);  // still streaming
  EXPECT_EQ(fx.service->open_batch_count(), 0u);        // but batch swept
}

}  // namespace
}  // namespace vod::service
