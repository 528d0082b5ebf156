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
  db::Database db{kAdmin, g.topology};
  VideoId movie;

  explicit Fixture(grnet::TimeOfDay t = grnet::TimeOfDay::k8am) {
    movie = db.register_video("movie", MegaBytes{900.0}, Mbps{2.0});
    grnet::write_table2(db.limited_view(kAdmin), g, t);
  }
};

// --- The admission functions and the class table ---

TEST(AdmissionController, ValidatesHeadroom) {
  EXPECT_TRUE(valid_headroom(1.0));
  EXPECT_TRUE(valid_headroom(0.5));
  // NaN would silently reject every request; +inf, zero and negatives are
  // just as meaningless.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0}) {
    EXPECT_FALSE(valid_headroom(bad)) << bad;
  }
}

TEST(AdmissionController, ResidualIsBottleneckFreeBandwidth) {
  Fixture fx;  // 8am: Patra-Athens used 0.2/2, Athens-Heraklio 0.5/18
  const db::LimitedAccessView view = fx.db.limited_view(kAdmin);
  const routing::Path path{
      {fx.g.patra, fx.g.athens, fx.g.heraklio},
      {fx.g.patra_athens, fx.g.athens_heraklio},
      0.2};
  EXPECT_NEAR(link_residual(view.link(fx.g.athens_heraklio)).value(), 17.5,
              1e-9);
  // Bottleneck: Patra-Athens with 1.8 Mbps free (17.5 free on the other).
  EXPECT_NEAR(path_residual(view, path).value(), 1.8, 1e-9);
}

TEST(AdmissionController, OfflineLinkZeroesResidual) {
  Fixture fx;
  fx.db.limited_view(kAdmin).set_link_online(fx.g.patra_athens, false);
  const db::LimitedAccessView view = fx.db.limited_view(kAdmin);
  EXPECT_EQ(link_residual(view.link(fx.g.patra_athens)), Mbps{0.0});
  const routing::Path path{{fx.g.patra, fx.g.athens}, {fx.g.patra_athens},
                           0.1};
  EXPECT_EQ(path_residual(view, path), Mbps{0.0});
}

TEST(AdmissionController, ValidatesClassHeadroom) {
  // The class headrooms scale the request's: each must itself pass the
  // rule request_classed applies to a headroom (the table's ordering and
  // its other fields are static_asserts beside it).
  for (const ClassPolicy& policy : kClassPolicies) {
    EXPECT_TRUE(valid_headroom(policy.admission_headroom));
  }
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

/// The Table 2 fixture with the 1.5 Mbps movie at Athens only, polled at
/// 8am: a Patra request crosses Patra-Athens, 1.8 Mbps residual.
test::GrnetSetup patra_athens_8am(bool qos = false) {
  test::GrnetSetup setup = table2_unplaced();
  setup.options.qos.enabled = qos;
  setup.holders = {&grnet::CaseStudy::athens};
  return setup;
}

// The arithmetic of the class-headroom tests below.
static_assert(class_policy(UserClass::kPremium).admission_headroom == 1.0);
static_assert(class_policy(UserClass::kStandard).admission_headroom == 1.1);
static_assert(class_policy(UserClass::kBackground).admission_headroom ==
              1.25);

TEST(AdmissionController, ClassHeadroomScalesRequiredRate) {
  // Under QoS the required rate is request headroom x class headroom x
  // bitrate.  At request headroom 1.2 the 1.5 Mbps title needs 1.8
  // (premium), 1.98 (standard) or 2.25 (background) of the 1.8 Mbps
  // residual.  Each class asks on a fresh service, so no earlier request
  // can leave a session or a cached copy behind.
  const auto verdict = [](UserClass cls) {
    test::GrnetService fx{patra_athens_8am(/*qos=*/true)};
    return fx.service
        ->request_classed(fx.g.patra, fx.movie, cls, /*headroom=*/1.2)
        .verdict;
  };
  EXPECT_EQ(verdict(UserClass::kPremium), VodService::Admission::kAdmitted);
  EXPECT_EQ(verdict(UserClass::kStandard), VodService::Admission::kRejected);
  EXPECT_EQ(verdict(UserClass::kBackground),
            VodService::Admission::kRejected);
}

TEST(AdmissionController, AdmitComparesAgainstBitrateTimesHeadroom) {
  test::GrnetService fx{patra_athens_8am()};
  const VideoId fast =
      fx.service->add_video("fast", MegaBytes{40.0}, Mbps{2.5});
  fx.service->place_initial_copy(fx.g.athens, fast);
  // Residual 1.8: a 1.5 Mbps title fits, a 2.5 Mbps one does not.
  EXPECT_EQ(fx.service->request_classed(fx.g.patra, fx.movie).verdict,
            VodService::Admission::kAdmitted);
  EXPECT_EQ(fx.service->request_classed(fx.g.patra, fast).verdict,
            VodService::Admission::kRejected);
  // With 1.5x headroom even 1.5 Mbps is rejected (needs 2.25).
  EXPECT_EQ(fx.service
                ->request_classed(fx.g.patra, fx.movie, UserClass::kStandard,
                                  /*headroom=*/1.5)
                .verdict,
            VodService::Admission::kRejected);
}

TEST(AdmissionController, ClassedAdmitMatchesPlainAtUnitHeadroom) {
  // QoS off: the class argument changes nothing — background is admitted
  // where QoS would ask it for 1.875 of the 1.8 Mbps residual.
  test::GrnetService fx{patra_athens_8am()};
  for (const UserClass cls : {UserClass::kPremium, UserClass::kStandard,
                              UserClass::kBackground}) {
    EXPECT_EQ(fx.service->request_classed(fx.g.patra, fx.movie, cls).verdict,
              VodService::Admission::kAdmitted)
        << to_string(cls);
  }
}

TEST(AdmissionController, LocalServingAlwaysAdmitted) {
  test::GrnetService fx{patra_athens_8am(/*qos=*/true)};
  fx.service->place_initial_copy(fx.g.patra, fx.movie);
  EXPECT_EQ(fx.service
                ->request_classed(fx.g.patra, fx.movie, UserClass::kBackground,
                                  /*headroom=*/100.0)
                .verdict,
            VodService::Admission::kAdmitted);
}

TEST(ServiceAdmission, BackgroundNeedsMoreSlackThanPremium) {
  test::GrnetService fx{patra_athens_8am(/*qos=*/true)};
  // 1.5 Mbps title: premium needs 1.5, standard 1.65, background 1.875 —
  // only background misses the 1.8 Mbps residual.  Nobody ranks below it,
  // so no preemption can rescue it.
  EXPECT_EQ(
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kBackground)
          .verdict,
      VodService::Admission::kRejected);
  EXPECT_EQ(
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kPremium)
          .verdict,
      VodService::Admission::kAdmitted);
  EXPECT_EQ(
      fx.service->request_classed(fx.g.patra, fx.movie, UserClass::kStandard)
          .verdict,
      VodService::Admission::kAdmitted);
}

}  // namespace
}  // namespace vod::service
