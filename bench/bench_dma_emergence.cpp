// Emergent replication — "the idea that implements the distributed
// feature of the VoD service".
//
// The paper argues that per-server DMA caches, each reacting only to its
// local request mix, collectively replicate popular titles across the
// network.  A day of Zipf requests on GRNET shows exactly that: replica
// count grows with popularity rank, hit rates climb, and origin egress
// falls.
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "service/vod_service.h"
#include "workload/request_gen.h"

using namespace vod;

int main() {
  bench::heading(
      "DMA emergence: popularity-driven replication across servers");

  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};

  service::ServiceOptions options;
  options.cluster_size = MegaBytes{25.0};
  options.dma.admission_threshold = 2;  // cache after the third request
  options.vra_switch_hysteresis = 0.5;
  // Small caches force real competition: each server fits ~6 titles —
  // except the origin (Athens), which holds the whole catalog.
  options.server.disk_count = 4;
  options.server.disk_profile.capacity = MegaBytes{400.0};
  service::ServerSetup origin_setup;
  origin_setup.disk_count = 8;
  origin_setup.disk_profile.capacity = MegaBytes{2000.0};
  options.server_overrides[g.athens] = origin_setup;
  service::VodService service{sim, g.topology, network, options,
                              bench::kAdmin};

  // 20 titles, all seeded only at Athens (the origin).
  std::vector<VideoId> videos;
  for (int v = 0; v < 20; ++v) {
    videos.push_back(service.add_video("t" + std::to_string(v),
                                       MegaBytes{250.0}, Mbps{1.5}));
    service.place_initial_copy(g.athens, videos.back());
  }
  service.start();

  std::vector<NodeId> homes;
  for (std::size_t n = 0; n < 6; ++n) {
    homes.push_back(NodeId{static_cast<NodeId::underlying_type>(n)});
  }
  workload::RequestGenerator gen{videos, 1.1, homes};
  Rng rng{2026};
  const auto requests =
      gen.generate_count(from_hours(8.0), hours(12.0), 400, rng);
  for (const workload::Request& request : requests) {
    sim.schedule_at(request.at, [&service, request](SimTime) {
      (void)service.request_at(request.home, request.video);
    });
  }
  sim.run_until(from_hours(30.0));

  TextTable table{{"Rank", "title", "requests", "replicas", "servers"}};
  int replicated = 0;
  for (std::size_t rank = 0; rank < videos.size(); ++rank) {
    const VideoId video = videos[rank];
    std::uint64_t demand = 0;
    for (const NodeId home : homes) {
      demand += service.dma_cache(home).points(video);
    }
    const auto holders =
        service.database().full_view().servers_with_title(video);
    std::string where;
    for (const NodeId holder : holders) {
      if (!where.empty()) where += ' ';
      where += g.topology.node_name(holder);
    }
    if (holders.size() > 1) ++replicated;
    if (rank < 8 || rank >= videos.size() - 2) {
      table.add_row({std::to_string(rank), "t" + std::to_string(rank),
                     std::to_string(demand),
                     std::to_string(holders.size()), where});
    }
  }
  std::cout << table.render();
  std::cout << "(middle ranks elided)\n\n";

  int hits = 0;
  int total = 0;
  for (const NodeId home : homes) {
    hits += static_cast<int>(service.dma_cache(home).hit_count());
    total += static_cast<int>(service.dma_cache(home).request_count());
  }
  std::cout << "aggregate DMA hit rate over the day: "
            << TextTable::num(100.0 * hits / total, 1) << "% of " << total
            << " requests\n";
  std::cout << "titles replicated beyond the origin: " << replicated
            << "/20\n";
  std::cout << "\nExpected shape: head titles spread to most servers "
               "(every server's local\nmix tops out with them), tail "
               "titles stay only at the origin — replication\nproportional "
               "to popularity, with no central coordination.\n";
  return 0;
}
