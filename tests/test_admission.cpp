#include "service/admission.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "grnet/grnet.h"
#include "service/vod_service.h"
#include "support/grnet_service.h"

namespace vod::service {
namespace {

const db::AdminCredential kAdmin{"secret"};

struct Fixture {
  grnet::CaseStudy g = grnet::build_case_study();
  db::Database db{kAdmin};
  VideoId movie;

  explicit Fixture(grnet::TimeOfDay t = grnet::TimeOfDay::k8am) {
    for (std::size_t n = 0; n < g.topology.node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      db::ServerConfig config;
      config.access_bandwidth = Mbps{100.0};
      db.register_server(node, g.topology.node_name(node), config);
    }
    for (const net::LinkInfo& info : g.topology.links()) {
      db.register_link(info.id, info.name, info.capacity);
    }
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    auto view = db.limited_view(kAdmin);
    for (const LinkId link : g.links_in_paper_order()) {
      const auto sample = grnet::table2_sample(g, link, t);
      view.update_link_stats(link, sample.used, sample.utilization,
                             SimTime{0.0});
    }
  }
};

TEST(AdmissionController, ValidatesHeadroom) {
  Fixture fx;
  EXPECT_THROW(AdmissionController(fx.db.limited_view(kAdmin),
                                   {.required_headroom = 0.0}),
               std::invalid_argument);
  // NaN would silently reject every request; +inf and negatives are just
  // as meaningless.  Both the base and the per-class field are checked.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(AdmissionController(fx.db.limited_view(kAdmin),
                                     {.required_headroom = bad}),
                 std::invalid_argument);
    AdmissionOptions options;
    options.class_headroom[class_index(UserClass::kBackground)] = bad;
    EXPECT_THROW(AdmissionController(fx.db.limited_view(kAdmin), options),
                 std::invalid_argument);
  }
}

TEST(AdmissionController, LocalPathReportsAccessBandwidth) {
  Fixture fx;
  const AdmissionController admission{fx.db.limited_view(kAdmin)};
  const routing::Path local{{fx.g.patra}, {}, 0.0};
  EXPECT_EQ(admission.path_residual(local, fx.g.patra), Mbps{100.0});
}

TEST(AdmissionController, ResidualIsBottleneckFreeBandwidth) {
  Fixture fx;  // 8am: Patra-Athens used 0.2/2, Athens-Heraklio 0.5/18
  const AdmissionController admission{fx.db.limited_view(kAdmin)};
  const routing::Path path{
      {fx.g.patra, fx.g.athens, fx.g.heraklio},
      {fx.g.patra_athens, fx.g.athens_heraklio},
      0.2};
  // Bottleneck: Patra-Athens with 1.8 Mbps free (17.5 free on the other).
  EXPECT_NEAR(admission.path_residual(path, fx.g.patra).value(), 1.8,
              1e-9);
}

TEST(AdmissionController, OfflineLinkZeroesResidual) {
  Fixture fx;
  fx.db.limited_view(kAdmin).set_link_online(fx.g.patra_athens, false);
  const AdmissionController admission{fx.db.limited_view(kAdmin)};
  const routing::Path path{{fx.g.patra, fx.g.athens}, {fx.g.patra_athens},
                           0.1};
  EXPECT_EQ(admission.path_residual(path, fx.g.patra), Mbps{0.0});
}

TEST(AdmissionController, AdmitComparesAgainstBitrateTimesHeadroom) {
  Fixture fx;
  const AdmissionController strict{fx.db.limited_view(kAdmin),
                                   {.required_headroom = 1.0}};
  vra::Decision decision;
  decision.served_locally = false;
  decision.server = fx.g.athens;
  decision.path = routing::Path{{fx.g.patra, fx.g.athens},
                                {fx.g.patra_athens}, 0.1};
  // Residual 1.8: a 1.5 Mbps title fits, a 2.5 Mbps one does not.
  EXPECT_TRUE(strict.admit(decision, Mbps{1.5}, UserClass::kStandard));
  EXPECT_FALSE(strict.admit(decision, Mbps{2.5}, UserClass::kStandard));
  // With 1.5x headroom even 1.5 Mbps is rejected (needs 2.25).
  const AdmissionController cautious{fx.db.limited_view(kAdmin),
                                     {.required_headroom = 1.5}};
  EXPECT_FALSE(cautious.admit(decision, Mbps{1.5}, UserClass::kStandard));
}

TEST(AdmissionController, ClassedAdmitMatchesPlainAtUnitHeadroom) {
  Fixture fx;
  // Default class_headroom is all-ones: every class must get the classless
  // (kStandard) verdict (the single-class guarantee).
  const AdmissionController admission{fx.db.limited_view(kAdmin),
                                      {.required_headroom = 1.0}};
  vra::Decision decision;
  decision.served_locally = false;
  decision.server = fx.g.athens;
  decision.path = routing::Path{{fx.g.patra, fx.g.athens},
                                {fx.g.patra_athens}, 0.1};
  for (const Mbps bitrate : {Mbps{1.5}, Mbps{2.5}}) {
    const bool plain = admission.admit(decision, bitrate, UserClass::kStandard);
    EXPECT_EQ(plain, admission.admit(decision, bitrate, UserClass::kPremium));
    EXPECT_EQ(plain, admission.admit(decision, bitrate, UserClass::kStandard));
    EXPECT_EQ(plain,
              admission.admit(decision, bitrate, UserClass::kBackground));
  }
}

TEST(AdmissionController, ClassHeadroomScalesRequiredRate) {
  Fixture fx;
  AdmissionOptions options;
  options.required_headroom = 1.2;
  options.class_headroom = {1.0, 1.1, 1.25};
  const AdmissionController admission{fx.db.limited_view(kAdmin), options};
  EXPECT_NEAR(admission.required_rate(Mbps{2.0}, UserClass::kPremium).value(),
              2.4, 1e-9);
  EXPECT_NEAR(admission.required_rate(Mbps{2.0}, UserClass::kStandard).value(),
              2.64, 1e-9);
  EXPECT_NEAR(
      admission.required_rate(Mbps{2.0}, UserClass::kBackground).value(), 3.0,
      1e-9);
}

TEST(AdmissionController, BackgroundNeedsMoreSlackThanPremium) {
  Fixture fx;  // path residual 1.8 Mbps (see ResidualIsBottleneckFreeBandwidth)
  AdmissionOptions options;
  options.required_headroom = 1.0;
  options.class_headroom = {1.0, 1.1, 1.25};
  const AdmissionController admission{fx.db.limited_view(kAdmin), options};
  vra::Decision decision;
  decision.served_locally = false;
  decision.server = fx.g.athens;
  decision.path = routing::Path{{fx.g.patra, fx.g.athens},
                                {fx.g.patra_athens}, 0.1};
  // 1.5 Mbps title: premium needs 1.5, background needs 1.875 — only the
  // premium request fits the 1.8 Mbps residual.
  EXPECT_TRUE(admission.admit(decision, Mbps{1.5}, UserClass::kPremium));
  EXPECT_TRUE(admission.admit(decision, Mbps{1.5}, UserClass::kStandard));
  EXPECT_FALSE(admission.admit(decision, Mbps{1.5}, UserClass::kBackground));
}

TEST(AdmissionController, ValidatesClassHeadroom) {
  Fixture fx;
  AdmissionOptions options;
  options.class_headroom = {1.0, 0.0, 1.0};
  EXPECT_THROW(AdmissionController(fx.db.limited_view(kAdmin), options),
               std::invalid_argument);
}

TEST(AdmissionController, LocalServingAlwaysAdmitted) {
  Fixture fx;
  const AdmissionController admission{fx.db.limited_view(kAdmin),
                                      {.required_headroom = 100.0}};
  vra::Decision decision;
  decision.served_locally = true;
  decision.server = fx.g.patra;
  decision.path = routing::Path{{fx.g.patra}, {}, 0.0};
  EXPECT_TRUE(admission.admit(decision, Mbps{50.0}, UserClass::kStandard));
}

TEST(AdmissionController, RejectsBadBitrate) {
  Fixture fx;
  const AdmissionController admission{fx.db.limited_view(kAdmin)};
  vra::Decision decision;
  decision.served_locally = true;
  EXPECT_THROW((void)admission.admit(decision, Mbps{0.0}, UserClass::kStandard),
               std::invalid_argument);
}

// --- Service-level admission ---

/// The shared fixture over the Table 2 day with a 1.5 Mbps movie that
/// each test places itself.
test::GrnetSetup table2_unplaced() {
  return {.background = test::Background::kTable2,
          .movie_bitrate = Mbps{1.5},
          .holders = {}};
}

TEST(ServiceAdmission, AdmitsWhenPathHasHeadroom) {
  test::GrnetService fx{table2_unplaced()};
  fx.service->place_initial_copy(fx.g.ioannina, fx.movie);
  const auto outcome = fx.service->request_classed(fx.g.patra, fx.movie);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kAdmitted);
  ASSERT_TRUE(outcome.session.has_value());
  fx.sim.run_until(from_hours(1.0));
  EXPECT_TRUE(fx.service->session_metrics(*outcome.session).finished);
  EXPECT_EQ(fx.service->admitted_count(), 1u);
  EXPECT_EQ(fx.service->rejected_count(), 0u);
}

TEST(ServiceAdmission, RejectsWhenAllRoutesSaturated) {
  test::GrnetService fx{table2_unplaced()};
  // Title only at Athens; by 10am Patra-Athens has 0.18 Mbps free, less
  // than the 1.5 Mbps bitrate.  The alternative route via Ioannina and
  // Thessaloniki is longer but its bottleneck at 10am is Thessaloniki-
  // Ioannina at 74%: 0.52 free — also insufficient.
  fx.service->place_initial_copy(fx.g.athens, fx.movie);
  fx.sim.run_until(grnet::time_of(grnet::TimeOfDay::k10am));
  fx.service->snmp().poll_now(fx.sim.now());
  const auto outcome = fx.service->request_classed(fx.g.patra, fx.movie);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kRejected);
  EXPECT_FALSE(outcome.session.has_value());
  EXPECT_EQ(fx.service->rejected_count(), 1u);
}

TEST(ServiceAdmission, NoServerReported) {
  test::GrnetService fx{table2_unplaced()};
  const auto outcome = fx.service->request_classed(fx.g.patra, fx.movie);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kNoServer);
}

TEST(ServiceAdmission, RejectedRequestsStillEarnDmaPoints) {
  test::GrnetService fx{table2_unplaced()};
  fx.service->place_initial_copy(fx.g.athens, fx.movie);
  fx.sim.run_until(grnet::time_of(grnet::TimeOfDay::k10am));
  fx.service->snmp().poll_now(fx.sim.now());
  const auto before = fx.service->dma_cache(fx.g.patra).points(fx.movie);
  (void)fx.service->request_classed(fx.g.patra, fx.movie);
  EXPECT_GT(fx.service->dma_cache(fx.g.patra).points(fx.movie) + 1,
            before);  // on_request ran (points or store attempt)
  EXPECT_EQ(fx.service->dma_cache(fx.g.patra).request_count(), 1u);
}

TEST(ServiceAdmission, LocalCopyAdmittedRegardlessOfNetwork) {
  test::GrnetService fx{table2_unplaced()};
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  fx.sim.run_until(grnet::time_of(grnet::TimeOfDay::k10am));
  fx.service->snmp().poll_now(fx.sim.now());
  const auto outcome = fx.service->request_classed(
      fx.g.patra, fx.movie, UserClass::kStandard, /*headroom=*/10.0);
  EXPECT_EQ(outcome.verdict, VodService::Admission::kAdmitted);
}

TEST(ServiceAdmission, ValidatesArguments) {
  test::GrnetService fx{table2_unplaced()};
  EXPECT_THROW(fx.service->request_classed(fx.g.patra, VideoId{99}),
               std::invalid_argument);
  EXPECT_THROW(fx.service->request_classed(NodeId{99}, fx.movie),
               std::invalid_argument);
}

TEST(ServiceAdmission, NonFiniteHeadroomThrowsBeforeStateMoves) {
  test::GrnetService fx{table2_unplaced()};
  fx.service->place_initial_copy(fx.g.athens, fx.movie);
  const std::string before = fx.service->metrics_snapshot().to_csv();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)fx.service->request_classed(
                     fx.g.patra, fx.movie, UserClass::kStandard, bad),
                 std::invalid_argument);
  }
  EXPECT_EQ(fx.service->metrics_snapshot().to_csv(), before);
  EXPECT_EQ(fx.service->dma_cache(fx.g.patra).request_count(), 0u);
}

TEST(ServiceAdmission, ClassPolicyHeadroomCheckedAtConstruction) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};
  ServiceOptions options;
  options.qos.policies[class_index(UserClass::kPremium)].admission_headroom =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(VodService(sim, g.topology, network, options, kAdmin),
               std::invalid_argument);
}

}  // namespace
}  // namespace vod::service
