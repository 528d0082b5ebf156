// Paper walkthrough through the FULL service stack.
//
// Unlike tests/test_vra.cpp (which feeds the VRA hand-loaded statistics),
// this suite reproduces Experiments A-D the way the deployed system would:
// the Table 2 trace drives the fluid network, the SNMP module populates
// the limited-access database on its own schedule, and the request enters
// through VodService.  The decisions must match the direct-fed ones.
#include <gtest/gtest.h>

#include "grnet/grnet.h"
#include "service/distributed_striping.h"
#include "service/vod_service.h"
#include "support/grnet_service.h"
#include "vra/explain.h"

namespace vod {
namespace {

/// The shared fixture over the Table 2 day, SNMP every 90 s, a 64-entry
/// audit and a 1.5 Mbps movie each walkthrough places itself.
test::GrnetSetup walkthrough() {
  test::GrnetSetup setup{.background = test::Background::kTable2,
                         .movie_bitrate = Mbps{1.5},
                         .holders = {}};
  setup.options.snmp_interval_seconds = 90.0;
  setup.options.audit_capacity = 64;
  return setup;
}

/// Runs the day to `t` (SNMP keeps polling) and takes a fresh sample.
void advance_to(test::GrnetService& w, grnet::TimeOfDay t) {
  w.sim.run_until(grnet::time_of(t));
  w.service->snmp().poll_now(w.sim.now());
}

NodeId first_source(test::GrnetService& w, SessionId id) {
  w.sim.run_until(w.sim.now() + 1.0);  // let the first selection happen
  const auto& sources = w.service->session_metrics(id).cluster_sources;
  EXPECT_FALSE(sources.empty());
  return sources.empty() ? NodeId{} : sources.front();
}

TEST(PaperWalkthrough, ExperimentA_ThroughTheServiceStack) {
  test::GrnetService w{walkthrough()};
  w.service->place_initial_copy(w.g.thessaloniki, w.movie);
  w.service->place_initial_copy(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k8am);
  const SessionId id = w.service->request_at(w.g.patra, w.movie);
  // Corrected Experiment A: Thessaloniki via U2,U3,U4 (see DESIGN.md).
  EXPECT_EQ(first_source(w, id), w.g.thessaloniki);
  const auto& entry = w.service->audit().entries().front();
  EXPECT_NEAR(entry.path_cost, 0.218, 0.01);
  EXPECT_EQ(entry.hop_count, 2u);
}

TEST(PaperWalkthrough, ExperimentB_ThroughTheServiceStack) {
  test::GrnetService w{walkthrough()};
  w.service->place_initial_copy(w.g.thessaloniki, w.movie);
  w.service->place_initial_copy(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k10am);
  const SessionId id = w.service->request_at(w.g.patra, w.movie);
  EXPECT_EQ(first_source(w, id), w.g.thessaloniki);
  EXPECT_NEAR(w.service->audit().entries().front().path_cost, 1.007,
              0.02);
}

TEST(PaperWalkthrough, ExperimentC_ThroughTheServiceStack) {
  test::GrnetService w{walkthrough()};
  w.service->place_initial_copy(w.g.ioannina, w.movie);
  w.service->place_initial_copy(w.g.thessaloniki, w.movie);
  w.service->place_initial_copy(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k4pm);
  const SessionId id = w.service->request_at(w.g.athens, w.movie);
  EXPECT_EQ(first_source(w, id), w.g.ioannina);
  EXPECT_NEAR(w.service->audit().entries().front().path_cost, 1.222,
              0.02);
}

TEST(PaperWalkthrough, ExperimentD_ThroughTheServiceStack) {
  test::GrnetService w{walkthrough()};
  w.service->place_initial_copy(w.g.ioannina, w.movie);
  w.service->place_initial_copy(w.g.thessaloniki, w.movie);
  w.service->place_initial_copy(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k6pm);
  const SessionId id = w.service->request_at(w.g.athens, w.movie);
  EXPECT_EQ(first_source(w, id), w.g.ioannina);
  EXPECT_NEAR(w.service->audit().entries().front().path_cost, 1.236,
              0.02);
}

TEST(PaperWalkthrough, SnmpStalenessDelaysTheDecisionFlip) {
  // At 8am the (corrected) choice is Thessaloniki via Ioannina; the trace
  // steps at 10am but a request placed just after still routes on the
  // stale pre-step statistics until the next poll — the paper's stated
  // 1-2 minute compromise, observable.
  test::GrnetService w{walkthrough()};
  w.service->place_initial_copy(w.g.thessaloniki, w.movie);
  w.service->place_initial_copy(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k8am);

  // Run to 5 s past 10am WITHOUT letting the poller fire after the step:
  // polls land on multiples of 90 s; 10am = 36000 s is one, so stop the
  // poller first to create the stale window.
  w.service->snmp().stop();
  w.sim.run_until(grnet::time_of(grnet::TimeOfDay::k10am) + 5.0);
  const SessionId stale = w.service->request_at(w.g.patra, w.movie);
  w.sim.run_until(w.sim.now() + 1.0);
  const auto stale_entry = w.service->audit().entries().back();
  EXPECT_NEAR(stale_entry.path_cost, 0.218, 0.01);  // still 8am numbers

  // After a fresh poll the same request sees the 10am costs.
  const SimTime polled_at = w.sim.now();
  w.service->snmp().poll_now(polled_at);
  const SessionId fresh = w.service->request_at(w.g.patra, w.movie);
  w.sim.run_until(w.sim.now() + 1.0);
  bool found = false;
  for (const service::AuditEntry& entry : w.service->audit().entries()) {
    if (entry.home == w.g.patra && entry.at >= polled_at &&
        entry.satisfied) {
      EXPECT_GT(entry.path_cost, 0.5);  // 10am congestion visible
      found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)stale;
  (void)fresh;
}

TEST(PaperWalkthrough, StripedSessionAlternatesSources) {
  // The future-work policy driving a real streaming session end to end.
  test::GrnetService w{walkthrough()};
  auto view = w.service->admin_view();
  view.add_title(w.g.thessaloniki, w.movie);
  view.add_title(w.g.xanthi, w.movie);
  advance_to(w, grnet::TimeOfDay::k8am);

  service::DistributedStripePlacer placer{
      {w.g.thessaloniki, w.g.xanthi}, 2};
  service::StripedSelectionPolicy policy{w.service->vra(),
                                         placer.plan({w.movie})};
  stream::Session session{
      w.sim,
      w.service->transfers(),
      policy,
      *w.service->database().full_view().video(w.movie),
      w.g.patra,
      MegaBytes{10.0}};
  session.start();
  w.sim.run_until(from_hours(12.0));
  const stream::SessionMetrics& m = session.metrics();
  ASSERT_TRUE(m.finished);
  ASSERT_EQ(m.cluster_sources.size(), 4u);
  EXPECT_EQ(m.cluster_sources[0], w.g.thessaloniki);
  EXPECT_EQ(m.cluster_sources[1], w.g.xanthi);
  EXPECT_EQ(m.cluster_sources[2], w.g.thessaloniki);
  EXPECT_EQ(m.cluster_sources[3], w.g.xanthi);
}

TEST(ExplainTable, BreaksDownTable3Arithmetic) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const db::AdminCredential admin{"admin"};
  db::Database database{admin, g.topology};
  grnet::write_table2(database.limited_view(admin), g,
                      grnet::TimeOfDay::k8am);
  const vra::LvnCalculator calc{g.topology, database.limited_view(admin)};
  const std::string out =
      vra::format_validation_table(g.topology, calc);
  EXPECT_NE(out.find("Patra-Athens"), std::string::npos);
  EXPECT_NE(out.find("LVN"), std::string::npos);
  // The published 8am LVN for Patra-Athens (0.0832 computed).
  EXPECT_NE(out.find("0.0832"), std::string::npos);
  // LT for Patra-Athens is the 10% of Table 2.
  EXPECT_NE(out.find("0.1000"), std::string::npos);
}

}  // namespace
}  // namespace vod
