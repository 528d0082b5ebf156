// The fault-injection engine and the failover machinery it exercises:
// scripted and seeded fault schedules, proactive session failover,
// the watchdog-only baseline, service-level retries with backoff, the
// VRA's degraded mode, and the no-hung-sessions guarantee under a storm.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_injector.h"
#include "grnet/grnet.h"
#include "service/report.h"
#include "service/vod_service.h"
#include "support/grnet_service.h"

namespace vod {
namespace {

const db::AdminCredential kAdmin{"secret"};

/// The shared fixture with one 100 MB title replicated at Thessaloniki and
/// Xanthi and SNMP every 30 s.  On an idle network Patra pulls from
/// Thessaloniki via Ioannina (both 2 Mbps hops), so one cluster takes 40 s.
test::GrnetSetup replicated() {
  test::GrnetSetup setup{.movie_size = MegaBytes{100.0},
                         .holders = {&grnet::CaseStudy::thessaloniki,
                                     &grnet::CaseStudy::xanthi}};
  setup.options.snmp_interval_seconds = 30.0;
  return setup;
}

TEST(FaultInjector, ScriptedFaultsApplyInOrderAndTrace) {
  test::GrnetSetup setup = replicated();
  setup.options.degraded_stats_age_seconds = 90.0;
  test::GrnetService fx{setup};
  fault::FaultInjector injector{fx.sim, *fx.service};

  injector.cut_link_at(SimTime{10.0}, fx.g.patra_ioannina);
  injector.crash_server_at(SimTime{20.0}, fx.g.thessaloniki);
  injector.fail_disk_at(SimTime{30.0}, fx.g.xanthi, 0);
  injector.snmp_outage_at(SimTime{40.0});
  injector.snmp_restore_at(SimTime{200.0});
  injector.restore_link_at(SimTime{250.0}, fx.g.patra_ioannina);
  injector.restore_server_at(SimTime{260.0}, fx.g.thessaloniki);

  // Mid-storm probes.
  bool link_down_mid = false;
  bool crashed_mid = false;
  bool snmp_stopped_mid = false;
  bool degraded_mid = false;
  fx.sim.schedule_at(SimTime{150.0}, [&](SimTime) {
    link_down_mid = !fx.network.link_up(fx.g.patra_ioannina);
    crashed_mid = fx.service->server_crashed(fx.g.thessaloniki);
    snmp_stopped_mid = !fx.service->snmp().running();
    // Last poll was at t=30 (outage began at 40): all stats are 120 s
    // old against a 90 s threshold -> the monitor counts as dark.
    degraded_mid = fx.service->vra().degraded_active();
  });
  fx.sim.run_until(SimTime{400.0});

  const auto& trace = injector.trace();
  ASSERT_EQ(trace.size(), 7u);
  const fault::FaultKind expected_order[] = {
      fault::FaultKind::kLinkCut,      fault::FaultKind::kServerCrash,
      fault::FaultKind::kDiskFailure,  fault::FaultKind::kSnmpOutage,
      fault::FaultKind::kSnmpRestore,  fault::FaultKind::kLinkRestore,
      fault::FaultKind::kServerRestore};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].kind, expected_order[i]) << "record " << i;
  }
  EXPECT_EQ(trace.front().at, SimTime{10.0});
  EXPECT_EQ(trace.back().at, SimTime{260.0});
  EXPECT_EQ(injector.count(fault::FaultKind::kLinkCut), 1u);
  EXPECT_EQ(injector.count(fault::FaultKind::kServerCrash), 1u);
  EXPECT_EQ(injector.count(fault::FaultKind::kDiskFailure), 1u);

  EXPECT_TRUE(link_down_mid);
  EXPECT_TRUE(crashed_mid);
  EXPECT_TRUE(snmp_stopped_mid);
  EXPECT_TRUE(degraded_mid);

  // Everything scripted to heal has healed...
  EXPECT_TRUE(fx.network.link_up(fx.g.patra_ioannina));
  EXPECT_FALSE(fx.service->server_crashed(fx.g.thessaloniki));
  EXPECT_TRUE(fx.service->snmp().running());
  ASSERT_TRUE(fx.service->snmp().last_poll_at().has_value());
  EXPECT_GE(fx.service->snmp().last_poll_at()->seconds(), 230.0);
  EXPECT_FALSE(fx.service->vra().degraded_active());
  // ...except the failed disk: Xanthi lost its (striped) copy for good.
  const auto holders =
      fx.service->database().full_view().servers_with_title(fx.movie);
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders.front(), fx.g.thessaloniki);
}

// Determinism audit: faults scheduled for the same instant apply in the
// order they were scheduled — the event queue's sequence tiebreak, not heap
// luck, decides.  A cut+restore pair at one instant nets out to "restored"
// and the trace shows both records in scheduling order.
TEST(FaultInjector, SameInstantFaultsApplyInSchedulingOrder) {
  test::GrnetService fx{replicated()};
  fault::FaultInjector injector{fx.sim, *fx.service};

  injector.cut_link_at(SimTime{50.0}, fx.g.patra_ioannina);
  injector.snmp_outage_at(SimTime{50.0});
  injector.restore_link_at(SimTime{50.0}, fx.g.patra_ioannina);
  injector.crash_server_at(SimTime{50.0}, fx.g.thessaloniki);
  fx.sim.run_until(SimTime{60.0});

  const auto& trace = injector.trace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].kind, fault::FaultKind::kLinkCut);
  EXPECT_EQ(trace[1].kind, fault::FaultKind::kSnmpOutage);
  EXPECT_EQ(trace[2].kind, fault::FaultKind::kLinkRestore);
  EXPECT_EQ(trace[3].kind, fault::FaultKind::kServerCrash);
  for (const auto& record : trace) EXPECT_EQ(record.at, SimTime{50.0});

  // The pair nets out to restored; the crash stands.
  EXPECT_TRUE(fx.network.link_up(fx.g.patra_ioannina));
  EXPECT_TRUE(fx.service->server_crashed(fx.g.thessaloniki));
}

TEST(FaultInjector, SeededScheduleIsDeterministic) {
  fault::FaultScheduleOptions storm;
  storm.horizon_seconds = 1800.0;
  storm.link_mtbf_seconds = 600.0;
  storm.link_mttr_seconds = 150.0;
  storm.server_mtbf_seconds = 700.0;
  storm.server_mttr_seconds = 200.0;
  storm.snmp_mtbf_seconds = 900.0;
  storm.snmp_mttr_seconds = 250.0;

  auto run = [&](std::uint64_t seed) {
    test::GrnetService fx{replicated()};
    fault::FaultInjector injector{fx.sim, *fx.service};
    injector.schedule_random(storm, seed);
    fx.sim.run_until(from_hours(1.5));
    return injector.trace();
  };

  const auto first = run(42);
  const auto second = run(42);
  const auto other = run(43);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

TEST(ProactiveFailover, ServerCrashMidStreamSwitchesImmediately) {
  test::GrnetService fx{replicated()};
  fault::FaultInjector injector{fx.sim, *fx.service};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  injector.crash_server_at(SimTime{15.0}, fx.g.thessaloniki);
  fx.sim.run_until(from_hours(2.0));

  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.proactive_failovers, 1);
  // The connection reset re-selects in the same instant: zero latency.
  ASSERT_EQ(m.failover_latencies.size(), 1u);
  EXPECT_NEAR(m.failover_latencies.front(), 0.0, 1e-9);
  EXPECT_EQ(m.stall_retries, 0);
  EXPECT_EQ(m.cluster_sources.back(), fx.g.xanthi);
}

TEST(ProactiveFailover, LinkCutMidStreamSwitchesImmediately) {
  test::GrnetService fx{replicated()};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{15.0});
  // Cut a link of the in-flight route; the re-selection must route around
  // it (the database learns via the connection reset, well before the
  // next SNMP poll).
  const auto links = fx.service->session(id).inflight_links();
  ASSERT_FALSE(links.empty());
  const LinkId hit = links.front();
  fx.service->fail_link(hit);
  const auto& rerouted = fx.service->session(id).inflight_links();
  EXPECT_EQ(std::find(rerouted.begin(), rerouted.end(), hit),
            rerouted.end());
  fx.sim.run_until(from_hours(2.0));

  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.proactive_failovers, 1);
  ASSERT_EQ(m.failover_latencies.size(), 1u);
  EXPECT_NEAR(m.failover_latencies.front(), 0.0, 1e-9);
  EXPECT_EQ(m.stall_retries, 0);
}

TEST(WatchdogFailover, BlackHoledCrashIsRescuedByWatchdog) {
  test::GrnetSetup setup = replicated();
  setup.options.failover.proactive = false;  // watchdog-only baseline
  setup.options.session.stall_timeout_seconds = 60.0;
  test::GrnetService fx{setup};
  fault::FaultInjector injector{fx.sim, *fx.service};
  const SessionId id = fx.service->request_at(fx.g.patra, fx.movie);
  // The crash black-holes the transfer (links stay up, bytes stop): only
  // the stall watchdog can notice, one timeout after the fetch began.
  injector.crash_server_at(SimTime{15.0}, fx.g.thessaloniki);
  fx.sim.run_until(from_hours(2.0));

  const stream::SessionMetrics& m = fx.service->session_metrics(id);
  EXPECT_TRUE(m.finished);
  EXPECT_FALSE(m.failed);
  EXPECT_EQ(m.proactive_failovers, 0);
  EXPECT_GE(m.stall_retries, 1);
  // Crash at 15, watchdog at 60 (cluster 0 began at 0): 45 s to recover.
  ASSERT_EQ(m.failover_latencies.size(), 1u);
  EXPECT_NEAR(m.failover_latencies.front(), 45.0, 1e-9);
  EXPECT_EQ(m.cluster_sources.back(), fx.g.xanthi);
}

TEST(ServiceRetry, FailedSessionIsResubmittedWithBackoff) {
  test::GrnetSetup setup = replicated();
  setup.options.failover.retry_limit = 3;
  setup.options.failover.retry_backoff_seconds = 30.0;
  setup.options.failover.retry_backoff_factor = 2.0;
  test::GrnetService fx{setup};
  // Single replica: while Thessaloniki is down the title is unservable.
  fx.service->fail_disk(fx.g.xanthi, 0);
  fault::FaultInjector injector{fx.sim, *fx.service};

  int done_calls = 0;
  bool final_finished = false;
  const SessionId id = fx.service->request_at(
      fx.g.patra, fx.movie, [&](const stream::Session& session) {
        ++done_calls;
        final_finished = session.metrics().finished;
      });
  injector.crash_server_at(SimTime{5.0}, fx.g.thessaloniki);
  injector.restore_server_at(SimTime{50.0}, fx.g.thessaloniki);
  fx.sim.run_until(from_hours(2.0));

  // t=5: crash fails the session (no holder left); retry #1 at t=35 still
  // finds the server down and fails; retry #2 at t=95 streams to the end.
  EXPECT_EQ(fx.service->service_retry_count(), 2u);
  EXPECT_TRUE(fx.service->session_superseded(id));
  const auto second = fx.service->retried_as(id);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(fx.service->session_superseded(*second));
  const auto third = fx.service->retried_as(*second);
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(fx.service->session_superseded(*third));
  EXPECT_TRUE(fx.service->session_metrics(*third).finished);
  // The user callback fired exactly once, for the surviving attempt.
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(final_finished);

  // The report counts one request, served: availability 100%.
  const auto report =
      service::build_resilience_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.sessions, 3u);
  EXPECT_EQ(report.requests, 1u);
  EXPECT_EQ(report.finished, 1u);
  EXPECT_EQ(report.hung, 0u);
  EXPECT_EQ(report.service_retries, 2u);
  EXPECT_DOUBLE_EQ(report.availability(), 1.0);
}

TEST(DegradedMode, StaleStatsFallBackToMinHop) {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin, g.topology};
  const VideoId movie = db.register_video("m", MegaBytes{900.0}, Mbps{2.0});
  auto view = db.limited_view(kAdmin);
  // Direct Patra-Athens hop saturated; everything else nearly idle.
  for (const LinkId link : g.links_in_paper_order()) {
    view.update_link_stats(link, Mbps{0.1}, 0.05, SimTime{0.0});
  }
  view.update_link_stats(g.patra_athens, Mbps{1.9}, 0.95, SimTime{0.0});
  view.add_title(g.athens, movie);

  SimTime now{0.0};
  vra::Vra vra{g.topology, db.full_view(), db.limited_view(kAdmin), {}};
  vra.configure_degraded_mode(Duration{120.0}, [&now] { return now; });

  // Fresh statistics: the LVN weights rule.
  now = SimTime{60.0};
  EXPECT_FALSE(vra.degraded_active());
  const auto fresh = vra.select_server(g.patra, movie);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->degraded);

  // Monitor dark: every record is 1000 s old.  Stop trusting the stale
  // LVNs; take the fewest hops over links still believed up — the direct
  // (actually congested) Patra-Athens hop.
  now = SimTime{1000.0};
  EXPECT_TRUE(vra.degraded_active());
  const auto stale = vra.select_server(g.patra, movie);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->degraded);
  EXPECT_EQ(stale->server, g.athens);
  ASSERT_EQ(stale->path().links.size(), 1u);
  EXPECT_EQ(stale->path().links.front(), g.patra_athens);
  EXPECT_DOUBLE_EQ(stale->path().cost, 1.0);

  // A link known to be down is excluded even in degraded mode.
  view.set_link_online(g.patra_athens, false);
  const auto rerouted = vra.select_server(g.patra, movie);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_TRUE(rerouted->degraded);
  EXPECT_EQ(rerouted->path().links.size(), 3u);
  EXPECT_EQ(vra.degraded_selection_count(), 2u);
}

TEST(ZeroHang, SeededFaultStormLeavesNoSessionInFlight) {
  test::GrnetSetup setup = replicated();
  setup.options.failover.retry_limit = 2;
  setup.options.degraded_stats_age_seconds = 90.0;
  test::GrnetService fx{setup};
  fault::FaultInjector injector{fx.sim, *fx.service};

  const NodeId homes[] = {fx.g.patra, fx.g.athens, fx.g.ioannina,
                          fx.g.heraklio};
  for (int i = 0; i < 12; ++i) {
    const NodeId home = homes[i % 4];
    fx.sim.schedule_at(SimTime{10.0 + 60.0 * i}, [&fx, home](SimTime) {
      fx.service->request_at(home, fx.movie);
    });
  }

  fault::FaultScheduleOptions storm;
  storm.horizon_seconds = 900.0;
  storm.link_mtbf_seconds = 500.0;
  storm.link_mttr_seconds = 120.0;
  storm.server_mtbf_seconds = 600.0;
  storm.server_mttr_seconds = 150.0;
  storm.snmp_mtbf_seconds = 700.0;
  storm.snmp_mttr_seconds = 200.0;
  injector.schedule_random(storm, 7);

  fx.sim.run_until(from_hours(3.0));

  // The hard guarantee: every session either finished or failed with an
  // explicit reason — the default watchdog leaves nothing hanging.
  for (const SessionId id : fx.service->session_ids()) {
    const stream::SessionMetrics& m = fx.service->session_metrics(id);
    EXPECT_TRUE(m.finished || m.failed) << "session " << id.value();
    if (m.failed) {
      EXPECT_FALSE(m.failure_reason.empty()) << "session " << id.value();
    }
  }
  EXPECT_EQ(fx.service->transfers().active_count(), 0u);
  const auto report =
      service::build_resilience_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.requests, 12u);
  EXPECT_EQ(report.hung, 0u);
  EXPECT_GT(report.finished, 0u);
}

}  // namespace
}  // namespace vod
