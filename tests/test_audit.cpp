#include "service/audit.h"

#include <gtest/gtest.h>

#include "grnet/grnet.h"
#include "service/vod_service.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

TEST(DecisionAudit, RejectsZeroCapacity) {
  EXPECT_THROW(DecisionAudit{0}, std::invalid_argument);
}

TEST(DecisionAudit, RingBufferEvictsOldest) {
  DecisionAudit audit{3};
  for (int i = 0; i < 5; ++i) {
    AuditEntry entry;
    entry.cluster_index = static_cast<std::size_t>(i);
    audit.record(entry);
  }
  EXPECT_EQ(audit.entries().size(), 3u);
  EXPECT_EQ(audit.recorded(), 5u);
  EXPECT_EQ(audit.entries().front().cluster_index, 2u);
  EXPECT_EQ(audit.entries().back().cluster_index, 4u);
}

TEST(DecisionAudit, FormatRecentRendersNewest) {
  DecisionAudit audit{10};
  AuditEntry entry;
  entry.at = SimTime{12.5};
  entry.home = NodeId{0};
  entry.video = VideoId{7};
  entry.satisfied = true;
  entry.server = NodeId{1};
  entry.path_cost = 0.25;
  entry.hop_count = 2;
  audit.record(entry);
  const std::string out = audit.format_recent(
      5, [](NodeId node) { return "N" + std::to_string(node.value()); });
  EXPECT_NE(out.find("12.5"), std::string::npos);
  EXPECT_NE(out.find("N0"), std::string::npos);
  EXPECT_NE(out.find("N1"), std::string::npos);
  EXPECT_NE(out.find("0.2500"), std::string::npos);
}

TEST(DecisionAudit, UnsatisfiedEntriesMarked) {
  DecisionAudit audit{10};
  AuditEntry entry;
  entry.satisfied = false;
  audit.record(entry);
  const std::string out = audit.format_recent(
      5, [](NodeId node) { return std::to_string(node.value()); });
  EXPECT_NE(out.find("(none)"), std::string::npos);
}

struct ServiceFixture {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  std::unique_ptr<VodService> service;
  VideoId movie;

  explicit ServiceFixture(std::size_t audit_capacity) {
    ServiceOptions options;
    options.cluster_size = MegaBytes{10.0};
    options.dma.admission_threshold = 1'000'000;
    options.audit_capacity = audit_capacity;
    service = std::make_unique<VodService>(sim, g.topology, network,
                                           options, kAdmin);
    movie = service->add_video("movie", MegaBytes{40.0}, Mbps{2.0});
    service->place_initial_copy(g.thessaloniki, movie);
    service->start();
  }
};

TEST(ServiceAudit, RecordsOneEntryPerCluster) {
  ServiceFixture fx{64};
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  // 40 MB / 10 MB clusters = 4 selections.
  EXPECT_EQ(fx.service->audit().recorded(), 4u);
  for (const AuditEntry& entry : fx.service->audit().entries()) {
    EXPECT_TRUE(entry.satisfied);
    EXPECT_EQ(entry.home, fx.g.patra);
    EXPECT_EQ(entry.video, fx.movie);
    EXPECT_EQ(entry.server, fx.g.thessaloniki);
    EXPECT_GT(entry.hop_count, 0u);
  }
  // Cluster indices run 0..3 in order.
  EXPECT_EQ(fx.service->audit().entries()[0].cluster_index, 0u);
  EXPECT_EQ(fx.service->audit().entries()[3].cluster_index, 3u);
}

TEST(ServiceAudit, RecordsUnsatisfiedSelections) {
  ServiceFixture fx{64};
  const VideoId ghost =
      fx.service->add_video("ghost", MegaBytes{10.0}, Mbps{2.0});
  fx.service->request_at(fx.g.patra, ghost);
  fx.sim.run_until(SimTime{10.0});
  ASSERT_EQ(fx.service->audit().recorded(), 1u);
  EXPECT_FALSE(fx.service->audit().entries().front().satisfied);
}

TEST(ServiceAudit, DisabledByDefault) {
  ServiceFixture fx{0};
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  EXPECT_THROW((void)fx.service->audit(), std::logic_error);
  // Sessions still work without auditing.
  EXPECT_TRUE(fx.service
                  ->session_metrics(fx.service->session_ids().front())
                  .finished);
}

TEST(ServiceAudit, TimestampsFollowSimulation) {
  ServiceFixture fx{64};
  fx.sim.run_until(SimTime{100.0});
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  const auto& entries = fx.service->audit().entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_DOUBLE_EQ(entries.front().at.seconds(), 100.0);
  EXPECT_GT(entries.back().at.seconds(), 100.0);
}

}  // namespace
}  // namespace vod::service
