// The fluid allocator under real session traffic, checked against the
// per-flow oracle.
//
// A short seeded run of the two-tier backbone with QoS classes on and a
// link/server fault storm: every cluster of every session is a flow from a
// core server to an edge home, so many flows share one (path, cap, weight)
// and the three class weights (4/2/1) split them further.  The reference
// filler (support/fluid_reference.h) checks every committed mutation, so
// — whether the fair-share fill ran or kept the last solve's rates — every
// flow's rate must equal the naive filler's bit for bit (a divergence
// throws).
// The outcome digest pins what the sessions saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "service/vod_service.h"
#include "support/fluid_reference.h"
#include "support/transfer_audit.h"
#include "workload/zipf.h"

namespace vod {
namespace {

const db::AdminCredential kAdmin{"fluid-service-admin"};

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
};

struct StormRun {
  std::uint64_t digest = 0;
  std::size_t sessions_done = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t faults = 0;
  std::size_t solves = 0;
  /// Commits the self-check compared with the oracle, solved or skipped.
  std::size_t checks = 0;
  /// Most flows ever live beyond one per bundle, sampled at arrivals.
  std::size_t max_shared = 0;
  /// Settles and re-plans the lane audit checked.
  std::size_t lane_audits = 0;
};

StormRun run_qos_storm(std::uint64_t seed) {
  // Three cores in a triangle, nine edge sites on spurs of three speeds.
  net::Topology topo;
  std::vector<NodeId> cores, edges;
  for (int c = 0; c < 3; ++c) {
    cores.push_back(topo.add_node("core" + std::to_string(c)));
  }
  topo.add_link(cores[0], cores[1], Mbps{34.0});
  topo.add_link(cores[1], cores[2], Mbps{34.0});
  topo.add_link(cores[2], cores[0], Mbps{34.0});
  for (int e = 0; e < 9; ++e) {
    edges.push_back(topo.add_node("edge" + std::to_string(e)));
    topo.add_link(cores[e % 3], edges.back(), Mbps{6.0 + 8.0 * (e % 3)});
  }
  net::DiurnalTraffic traffic;
  for (const net::LinkInfo& info : topo.links()) {
    traffic.set_shape(info.id, {.capacity = info.capacity,
                                .base_fraction = 0.10,
                                .peak_fraction = 0.60});
  }
  sim::Simulation sim;
  net::FluidNetwork network{topo, traffic};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.qos.enabled = true;
  options.failover.retry_limit = 2;
  options.failover.retry_backoff_seconds = 30.0;
  service::VodService service{sim, topo, network, options, kAdmin};
  // Both chain onto the hooks the service's transfer manager set: the lane
  // audit wraps the manager's own, the oracle wraps the audit.
  const net::TransferAudit audit{service.transfers()};
  const net::FluidReference oracle{network};

  Rng rng{seed};
  std::vector<VideoId> videos;
  for (int v = 0; v < 30; ++v) {
    videos.push_back(service.add_video("t" + std::to_string(v),
                                       MegaBytes{60.0},
                                       Mbps{rng.uniform(1.5, 4.0)}));
    service.place_initial_copy(cores[v % 3], videos.back());
    service.place_initial_copy(cores[(v + 1) % 3], videos.back());
  }
  service.start();

  fault::FaultInjector injector{sim, service};
  fault::FaultScheduleOptions storm;
  storm.horizon_seconds = 1800.0;
  storm.link_mtbf_seconds = 900.0;
  storm.link_mttr_seconds = 120.0;
  storm.server_mtbf_seconds = 1800.0;
  storm.server_mttr_seconds = 180.0;
  injector.schedule_random(storm, seed + 1);

  StormRun run;
  Digest digest;
  const workload::ZipfDistribution zipf{videos.size(), 0.8};
  double t = 0.0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    t += rng.exponential(2000.0 / 1800.0);
    const NodeId home = edges[static_cast<std::size_t>(rng.uniform_int(0, 8))];
    const VideoId video = videos[zipf.sample(rng)];
    const double u = rng.uniform();
    const UserClass cls = u < 0.2   ? UserClass::kPremium
                          : u < 0.7 ? UserClass::kStandard
                                    : UserClass::kBackground;
    sim.schedule_at(SimTime{t}, [&, i, home, video, cls](SimTime now) {
      run.max_shared =
          std::max(run.max_shared,
                   network.active_flow_count() - network.bundle_count());
      const auto outcome = service.request_classed(
          home, video, cls, 1.0, [&, i](const stream::Session& session) {
            const stream::SessionMetrics& m = session.metrics();
            ++run.sessions_done;
            if (m.failed) ++run.failed;
            digest.add(i);
            digest.add(sim.now().seconds());
            digest.add(m.startup_delay());
            digest.add(static_cast<std::uint64_t>(m.server_switches));
            digest.add(static_cast<std::uint64_t>(m.failed));
          });
      if (!outcome.session) {
        ++run.refused;
        digest.add(i);
        digest.add(now.seconds());
        digest.add(static_cast<std::uint64_t>(outcome.verdict));
      }
    });
  }

  sim.run_until(SimTime{7200.0});
  run.digest = digest.hash;
  run.faults = injector.trace().size();
  run.solves = network.reallocation_count();
  run.checks = oracle.check_count();
  run.lane_audits = audit.settle_checks() + audit.plan_checks();
  return run;
}

TEST(FluidUnderService, QosStormSolvesMatchReference) {
  StormRun run;
  // Every commit is re-run through the oracle, and the transfer lanes are
  // audited at every hook; a divergence throws.
  ASSERT_NO_THROW(run = run_qos_storm(41));
  EXPECT_GT(run.sessions_done, 1800u);
  EXPECT_GT(run.failed + run.refused, 0u);
  EXPECT_GT(run.faults, 5u);
  EXPECT_GT(run.checks, 10000u);
  EXPECT_GT(run.lane_audits, 10000u);
  // Most commits leave the fill's inputs as the last solve saw them; the
  // oracle checked those skips as well as the solves.
  EXPECT_EQ(run.solves, 131u);
  EXPECT_EQ(run.checks - run.solves, 13446u);
  EXPECT_GE(run.max_shared, 10u) << "sessions never shared a bundle";
  EXPECT_EQ(run.digest, 0x765db029672fffdbu)
      << std::hex << "digest 0x" << run.digest;
}

}  // namespace
}  // namespace vod
