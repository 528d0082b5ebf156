#include "service/report.h"

#include <gtest/gtest.h>

#include "support/grnet_service.h"

namespace vod::service {
namespace {

TEST(ServiceReport, EmptyServiceIsAllZero) {
  test::GrnetService fx;
  const ServiceReport report = build_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.sessions, 0u);
  EXPECT_EQ(report.finished, 0u);
  EXPECT_DOUBLE_EQ(report.qos_ok_share(), 0.0);
}

TEST(ServiceReport, CountsOutcomes) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.service->request_at(fx.g.heraklio, fx.movie);
  // An unsatisfiable request (no holder) fails immediately.
  const VideoId ghost =
      fx.service->add_video("ghost", MegaBytes{10.0}, Mbps{2.0});
  fx.service->request_at(fx.g.patra, ghost);
  fx.sim.run_until(from_hours(1.0));

  const ServiceReport report = build_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.sessions, 3u);
  EXPECT_EQ(report.finished, 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.in_flight, 0u);
  EXPECT_EQ(report.qos_ok, 2u);  // idle network: everyone meets bitrate
  EXPECT_DOUBLE_EQ(report.qos_ok_share(), 1.0);
  EXPECT_GT(report.download_seconds.median(), 0.0);
}

TEST(ServiceReport, InFlightSessionsSeparated) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{1.0});  // far from finished
  const ServiceReport report = build_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.in_flight, 1u);
  EXPECT_EQ(report.finished, 0u);
}

TEST(ServiceReport, ExplicitFloorApplied) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  // Transfer runs at the 2 Mbps bottleneck: floor 1 passes, floor 50
  // fails.
  EXPECT_EQ(build_report(*fx.service, Mbps{1.0}).qos_ok, 1u);
  EXPECT_EQ(build_report(*fx.service, Mbps{50.0}).qos_ok, 0u);
}

TEST(ServiceReport, FormatContainsKeyRows) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  const std::string text =
      format_report(build_report(*fx.service, Mbps{0.0}));
  EXPECT_NE(text.find("sessions"), std::string::npos);
  EXPECT_NE(text.find("download median"), std::string::npos);
  EXPECT_NE(text.find("QoS-ok (floor = title bitrate)"),
            std::string::npos);
}

TEST(ServiceReport, CsvHasHeaderAndOneRowPerSession) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.service->request_at(fx.g.xanthi, fx.movie);
  fx.sim.run_until(from_hours(1.0));
  const std::string csv = report_sessions_csv(*fx.service);
  // Header + 2 rows = 3 newline-terminated lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("session,home,title"), std::string::npos);
  EXPECT_NE(csv.find("movie"), std::string::npos);
  EXPECT_NE(csv.find("finished"), std::string::npos);
}

TEST(ServiceReport, ZeroFinishedSessionsOmitPercentileRows) {
  // All requests fail instantly (no holder anywhere): finished == 0, so
  // the table must skip the startup/download percentile rows instead of
  // rendering statistics over an empty sample.
  test::GrnetService fx;
  const VideoId ghost =
      fx.service->add_video("ghost", MegaBytes{10.0}, Mbps{2.0});
  fx.service->request_at(fx.g.patra, ghost);
  fx.service->request_at(fx.g.athens, ghost);
  fx.sim.run_until(from_hours(1.0));

  const ServiceReport report = build_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.finished, 0u);
  EXPECT_EQ(report.failed, 2u);
  const std::string text = format_report(report);
  EXPECT_EQ(text.find("startup median"), std::string::npos);
  EXPECT_EQ(text.find("download median"), std::string::npos);
  EXPECT_NE(text.find("failed"), std::string::npos);

  const std::string csv = report_sessions_csv(*fx.service);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("failed"), std::string::npos);
}

TEST(ServiceReport, InFlightOnlyCsvLeavesDownloadBlank) {
  test::GrnetService fx;
  fx.service->request_at(fx.g.patra, fx.movie);
  fx.sim.run_until(SimTime{1.0});  // mid-download

  const ServiceReport report = build_report(*fx.service, Mbps{0.0});
  EXPECT_EQ(report.sessions, 1u);
  EXPECT_EQ(report.in_flight, 1u);
  EXPECT_EQ(report.finished, 0u);
  EXPECT_EQ(report.qos_ok, 0u);  // only finished sessions can pass QoS
  const std::string text = format_report(report);
  EXPECT_EQ(text.find("startup median"), std::string::npos);
  EXPECT_NE(text.find("in flight"), std::string::npos);

  // The CSV row renders the unfinished download as an empty cell, not 0.
  const std::string csv = report_sessions_csv(*fx.service);
  const std::size_t row_start = csv.find('\n') + 1;
  const std::string row = csv.substr(row_start, csv.find('\n', row_start) -
                                                    row_start);
  EXPECT_NE(row.find("in-flight"), std::string::npos);
  EXPECT_NE(row.find(",,"), std::string::npos);  // empty download_s column
}

}  // namespace
}  // namespace vod::service
