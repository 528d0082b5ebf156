// Long-horizon integration soak: several simulated days of diurnal load on
// a 12-node network with link failures, repairs and disk crashes injected —
// asserting global invariants (all sessions terminal, no leaked flows,
// database/DMA consistency) and bit-for-bit determinism per seed.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "service/report.h"
#include "service/vod_service.h"
#include "support/holdings_audit.h"
#include "workload/catalog_gen.h"
#include "workload/request_gen.h"

namespace vod {
namespace {

const db::AdminCredential kAdmin{"soak-admin"};

struct Scenario {
  net::Topology topo;
  std::vector<NodeId> edges;

  Scenario() {
    std::vector<NodeId> cores;
    for (int c = 0; c < 3; ++c) {
      cores.push_back(topo.add_node("core" + std::to_string(c)));
    }
    topo.add_link(cores[0], cores[1], Mbps{34.0});
    topo.add_link(cores[1], cores[2], Mbps{34.0});
    topo.add_link(cores[2], cores[0], Mbps{34.0});
    for (int e = 0; e < 9; ++e) {
      const NodeId edge = topo.add_node("edge" + std::to_string(e));
      edges.push_back(edge);
      topo.add_link(cores[e % 3], edge, Mbps{2.0 + 4.0 * (e % 3)});
    }
  }
};

/// Runs the whole soak; returns a digest string for determinism checks.
std::string run_soak(std::uint64_t seed, int days) {
  Scenario scenario;
  net::DiurnalTraffic traffic{20.0};
  for (const net::LinkInfo& info : scenario.topo.links()) {
    traffic.set_shape(info.id, {.capacity = info.capacity,
                                .base_fraction = 0.05,
                                .peak_fraction = 0.5});
  }
  sim::Simulation sim;
  net::FluidNetwork network{scenario.topo, traffic};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{25.0};
  options.snmp_interval_seconds = 90.0;
  options.vra_switch_hysteresis = 0.5;
  options.session.stall_timeout_seconds = 600.0;
  options.dma.admission_threshold = 2;
  service::VodService service{sim, scenario.topo, network, options, kAdmin};

  Rng rng{seed};
  workload::CatalogSpec catalog_spec;
  catalog_spec.title_count = 24;
  catalog_spec.min_size = MegaBytes{60.0};
  catalog_spec.max_size = MegaBytes{180.0};
  catalog_spec.min_bitrate = Mbps{1.0};
  catalog_spec.max_bitrate = Mbps{2.0};
  const std::vector<VideoId> videos =
      workload::populate_catalog(service.database(), catalog_spec, rng);
  for (std::size_t v = 0; v < videos.size(); ++v) {
    service.place_initial_copy(
        NodeId{static_cast<NodeId::underlying_type>(v % 12)}, videos[v]);
    service.place_initial_copy(
        NodeId{static_cast<NodeId::underlying_type>((v + 4) % 12)},
        videos[v]);
  }
  service.start();

  workload::RequestGenerator gen{videos, 1.0, scenario.edges};
  const auto requests = gen.generate_diurnal(
      SimTime{0.0}, Duration{days * 86400.0},
      40.0 * days / (days * 86400.0),  // ~40 requests per day
      20.0, 3.0, rng);
  for (const workload::Request& request : requests) {
    const bool gated = rng.bernoulli(0.5);
    sim.schedule_at(request.at, [&service, request, gated](SimTime) {
      if (gated) {
        (void)service.request_classed(request.home, request.video);
      } else {
        (void)service.request_at(request.home, request.video);
      }
    });
  }

  // Chaos: one link outage and one disk crash per simulated day.
  for (int day = 0; day < days; ++day) {
    const auto link = static_cast<LinkId::underlying_type>(
        rng.uniform_int(0, static_cast<std::int64_t>(
                               scenario.topo.link_count()) - 1));
    const double fail_at = day * 86400.0 + rng.uniform(3600.0, 43200.0);
    sim.schedule_at(SimTime{fail_at}, [&network, link](SimTime) {
      network.set_link_up(LinkId{link}, false);
    });
    sim.schedule_at(SimTime{fail_at + 7200.0}, [&network, link](SimTime) {
      network.set_link_up(LinkId{link}, true);
    });

    const auto victim = static_cast<NodeId::underlying_type>(
        rng.uniform_int(0, 11));
    sim.schedule_at(
        SimTime{day * 86400.0 + rng.uniform(43200.0, 86000.0)},
        [&service, victim](SimTime) {
          (void)service.fail_disk(NodeId{victim}, 0);
        });
  }

  sim.run_until(from_hours(days * 24.0 + 24.0));  // one day of drain time

  // --- Invariants ---
  // 1. No leaked transfers or flows.
  EXPECT_EQ(service.transfers().active_count(), 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);

  // 2. Every session is terminal, with sane metrics.
  int finished = 0, failed = 0;
  for (const SessionId id : service.session_ids()) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    EXPECT_TRUE(m.finished || m.failed) << "session " << id.value();
    EXPECT_FALSE(m.finished && m.failed);
    (m.finished ? finished : failed) += 1;
    EXPECT_GE(m.rebuffer_seconds, 0.0);
    EXPECT_GE(m.startup_delay(), 0.0);
    SimTime last{0.0};
    for (const SimTime t : m.cluster_completed) {
      EXPECT_GE(t, last);
      last = t;
    }
    if (m.finished) {
      EXPECT_EQ(m.cluster_completed.size(), m.cluster_sources.size());
      EXPECT_GT(m.mean_delivered_rate.value(), 0.0);
    }
  }
  EXPECT_GT(finished, 0);

  // 3. Database/DMA/disk consistency: a server advertises exactly what its
  // disks hold (initial placements included — both paths write both), and
  // each disk is charged exactly its placements.
  EXPECT_NO_THROW(test::check_holdings(service));

  // Digest for determinism comparison.
  const service::ServiceReport report =
      service::build_report(service, Mbps{0.0});
  std::ostringstream digest;
  digest << report.sessions << '/' << report.finished << '/'
         << report.failed << '/' << report.qos_ok << '/'
         << report.total_switches << '/' << report.total_stall_retries
         << '/' << report.total_rebuffer_seconds;
  return digest.str();
}

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakTest, InvariantsHoldOverThreeDays) {
  const std::string digest = run_soak(GetParam(), 3);
  EXPECT_FALSE(digest.empty());
}

TEST_P(SoakTest, DeterministicPerSeed) {
  const std::string first = run_soak(GetParam(), 2);
  const std::string second = run_soak(GetParam(), 2);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace vod
