// Micro-benchmarks (google-benchmark) for the hot algorithmic paths:
// Dijkstra scaling, LVN graph construction, DMA request processing, the
// event queue (schedule/run and in-place re-keying), and fluid
// re-allocation.
#include <benchmark/benchmark.h>

#include <functional>

#include "common/rng.h"
#include "dma/dma_cache.h"
#include "grnet/grnet.h"
#include "net/fluid.h"
#include "routing/dijkstra.h"
#include "sim/event_queue.h"
#include "vra/validation.h"
#include "workload/zipf.h"

using namespace vod;

namespace {

routing::Graph random_graph(std::size_t nodes, std::size_t degree,
                            std::uint64_t seed) {
  Rng rng{seed};
  routing::Graph graph;
  for (std::size_t i = 0; i < nodes; ++i) graph.add_node();
  LinkId::underlying_type next = 0;
  // Ring + random chords: connected, average degree ~2 + degree.
  for (std::size_t i = 0; i < nodes; ++i) {
    graph.add_undirected_edge(
        NodeId{static_cast<NodeId::underlying_type>(i)},
        NodeId{static_cast<NodeId::underlying_type>((i + 1) % nodes)},
        LinkId{next++}, rng.uniform(0.1, 2.0));
  }
  for (std::size_t i = 0; i < nodes * degree / 2; ++i) {
    const auto a = static_cast<NodeId::underlying_type>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto b = static_cast<NodeId::underlying_type>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    if (a == b) continue;
    graph.add_undirected_edge(NodeId{a}, NodeId{b}, LinkId{next++},
                              rng.uniform(0.1, 2.0));
  }
  return graph;
}

void BM_Dijkstra(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const routing::Graph graph = random_graph(nodes, 4, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::dijkstra(graph, NodeId{0}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dijkstra)->Range(8, 2048)->Complexity();

void BM_DijkstraWithTrace(benchmark::State& state) {
  const routing::Graph graph = random_graph(64, 4, 42);
  for (auto _ : state) {
    routing::DijkstraTrace trace;
    benchmark::DoNotOptimize(routing::dijkstra(graph, NodeId{0}, &trace));
  }
}
BENCHMARK(BM_DijkstraWithTrace);

void BM_LvnGraphBuild(benchmark::State& state) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const auto stats = grnet::table2_stats(g, grnet::TimeOfDay::k4pm);
  const vra::LvnCalculator calc{g.topology, stats};
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.build_weighted_graph());
  }
}
BENCHMARK(BM_LvnGraphBuild);

void BM_DmaOnRequest(benchmark::State& state) {
  storage::DiskArray disks{8, storage::DiskProfile{}, MegaBytes{50.0}};
  dma::DmaCache cache{disks};
  const workload::ZipfDistribution zipf{200, 1.0};
  Rng rng{1};
  for (auto _ : state) {
    const auto rank = zipf.sample(rng);
    benchmark::DoNotOptimize(cache.on_request(
        VideoId{static_cast<VideoId::underlying_type>(rank)},
        MegaBytes{900.0}));
  }
}
BENCHMARK(BM_DmaOnRequest);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(SimTime{static_cast<double>(i % 97)}, [](SimTime) {});
    }
    while (queue.run_next()) {
    }
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

// The transfer wake-up: ~200 pending events (session timers, pollers) that
// renew themselves when they fire, and one wake-up handle re-keyed in place
// before every event, the way TransferManager::reschedule moves it after
// each rate change.  One iteration = one re-key + one event.
void BM_EventQueueRekey(benchmark::State& state) {
  constexpr int kPending = 200;
  sim::EventQueue queue;
  Rng rng{7};
  std::function<void(SimTime)> renew = [&](SimTime t) {
    queue.schedule(t + rng.uniform(1.0, 50.0), renew);
  };
  for (int i = 0; i < kPending; ++i) {
    queue.schedule(SimTime{rng.uniform(0.0, 50.0)}, renew);
  }
  sim::EventHandle wake;
  for (auto _ : state) {
    const SimTime at = queue.now() + rng.uniform(0.0, 2.0);
    if (!queue.reschedule(wake, at)) {
      wake = queue.schedule(at, [](SimTime) {});
    }
    benchmark::DoNotOptimize(queue.run_next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRekey);

void BM_FluidReallocate(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  net::Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 7; ++i) {
    links.push_back(topo.add_link(nodes[i], nodes[i + 1], Mbps{10.0}));
  }
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  Rng rng{3};
  std::vector<FlowId> ids;
  for (std::size_t f = 0; f + 1 < flows; ++f) {
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto last = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(first), 6));
    ids.push_back(network.start_flow(
        std::vector<LinkId>(links.begin() + first, links.begin() + last + 1),
        Mbps{rng.uniform(0.5, 8.0)}));
  }
  for (auto _ : state) {
    // Adding/removing one flow forces a full re-allocation.
    const FlowId id = network.start_flow({links[0]}, Mbps{1.0});
    network.stop_flow(id);
  }
}
BENCHMARK(BM_FluidReallocate)->Arg(4)->Arg(16)->Arg(64);

void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfDistribution zipf{10000, 1.0};
  Rng rng{5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
