// Allocation budget of the per-cluster step.
//
// The paper re-runs the VRA before every cluster, so a remote cluster
// fetch is the service's hottest path: a selection, a policy answer, a
// session hand-off, a transfer and a fluid flow.  The route the VRA builds
// is shared by all of them, so the step itself should allocate next to
// nothing.  This binary replaces the global operator new with a counting
// one and measures a seeded service in steady state: sessions mid-stream,
// no request arriving, SNMP polls moving the links epoch as they do in a
// real run (the weight, tree and route rebuilds they cause are part of the
// bill).  A links-epoch move on its own has a budget too: the VRA refills
// its link weights in place.  The DMA, which runs on every request at the
// home server, re-keys its popularity heap in place and allocates nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "db/database.h"
#include "dma/dma_cache.h"
#include "grnet/grnet.h"
#include "storage/disk_array.h"
#include "support/grnet_service.h"
#include "vra/vra.h"

namespace {

// Plain counter: the simulation is single-threaded.
std::size_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc{};
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace vod {
namespace {

/// Cluster fetches the sessions have made so far (every selection a
/// session streamed from, re-selections after a stall included).
std::size_t fetches(const service::VodService& service,
                    const std::vector<SessionId>& sessions) {
  std::size_t total = 0;
  for (const SessionId id : sessions) {
    total += service.session_metrics(id).cluster_sources.size();
  }
  return total;
}

TEST(AllocBudget, RemoteClusterFetchAllocatesAtMostThreeTimes) {
  // 1 MB clusters of a 200 MB title held only at Thessaloniki: every
  // fetch from Patra and Heraklio is remote, and each 90 s SNMP poll is
  // followed by over a hundred fetches.
  test::GrnetSetup setup;
  setup.options.cluster_size = MegaBytes{1.0};
  setup.movie_size = MegaBytes{200.0};
  test::GrnetService fx{setup};
  service::VodService& service = *fx.service;

  std::vector<SessionId> sessions;
  for (int i = 0; i < 16; ++i) {
    const NodeId home = i % 2 == 0 ? fx.g.patra : fx.g.heraklio;
    fx.sim.schedule_at(SimTime{0.5 * i}, [&, home](SimTime) {
      sessions.push_back(service.request_at(home, fx.movie));
    });
  }
  // Warm up past the arrivals and the first polls, then measure a window
  // in which every session is still mid-stream.
  fx.sim.run_until(SimTime{200.0});
  const std::size_t fetched_before = fetches(service, sessions);
  const std::size_t allocations_before = allocations;
  fx.sim.run_until(SimTime{500.0});
  const std::size_t window_allocations = allocations - allocations_before;
  const std::size_t window_fetches =
      fetches(service, sessions) - fetched_before;

  for (const SessionId id : sessions) {
    ASSERT_TRUE(service.session(id).active()) << "session " << id.value();
  }
  ASSERT_GT(window_fetches, 300u);
  const double per_fetch = static_cast<double>(window_allocations) /
                           static_cast<double>(window_fetches);
  RecordProperty("allocations_per_fetch", std::to_string(per_fetch));
  EXPECT_LE(per_fetch, 3.0) << window_allocations << " allocations over "
                            << window_fetches << " remote cluster fetches";
}

TEST(AllocBudget, LinksEpochMoveRefillsWeightsInAtMostFourAllocations) {
  // An SNMP poll's worth of new statistics on GRNET: the next weight read
  // refills the LVN of every link in place.
  const grnet::CaseStudy g = grnet::build_case_study();
  const db::AdminCredential admin{"admin"};
  db::Database database{admin, g.topology};
  grnet::write_table2(database.limited_view(admin), g,
                      grnet::TimeOfDay::k8am);
  const vra::Vra vra{g.topology, database.full_view(),
                     database.limited_view(admin)};
  (void)vra.link_weights();
  grnet::write_table2(database.limited_view(admin), g,
                      grnet::TimeOfDay::k10am);

  const std::size_t allocations_before = allocations;
  const std::vector<double>& weights = vra.link_weights();
  const std::size_t refill = allocations - allocations_before;

  ASSERT_EQ(vra.cache_stats().graph_rebuilds, 2u);
  ASSERT_EQ(weights.size(), g.topology.link_count());
  RecordProperty("allocations_per_refill", std::to_string(refill));
  EXPECT_LE(refill, 4u);
}

TEST(AllocBudget, HomeDmaHitAllocatesNothing) {
  // Two 200 MB disks hold ten 40 MB titles.  After a warm-up that stores
  // them, grants them points and gives five more titles their first point,
  // a steady mix of hits and points for those five (never enough to evict)
  // must not allocate: a hit re-keys its heap entry and a point writes a
  // slot the points table already has.
  storage::DiskArray disks{
      2,
      storage::DiskProfile{.capacity = MegaBytes{200.0},
                           .transfer_rate = Mbps{80.0},
                           .seek_seconds = 0.01},
      MegaBytes{10.0}};
  dma::DmaCache cache{disks};
  const MegaBytes size{40.0};
  for (VideoId::underlying_type v = 0; v < 10; ++v) {
    ASSERT_EQ(cache.on_request(VideoId{v}, size), dma::DmaOutcome::kStored);
  }
  for (int round = 0; round < 3; ++round) {
    for (VideoId::underlying_type v = 0; v < 10; ++v) {
      (void)cache.on_request(VideoId{v}, size);
    }
  }
  for (VideoId::underlying_type v = 10; v < 15; ++v) {
    ASSERT_EQ(cache.on_request(VideoId{v}, size),
              dma::DmaOutcome::kPointedOnly);
  }

  constexpr int kRounds = 200;
  const std::size_t allocations_before = allocations;
  for (int round = 0; round < kRounds; ++round) {
    // Hits in a rotating order so the heap keeps re-sorting.
    for (VideoId::underlying_type i = 0; i < 10; ++i) {
      const VideoId::underlying_type v = (i * 3 + round) % 10;
      (void)cache.on_request(VideoId{v}, size);
      (void)cache.on_request(VideoId{v}, size);
    }
    for (VideoId::underlying_type v = 10; v < 15; ++v) {
      (void)cache.on_request(VideoId{v}, size);
    }
  }
  const std::size_t window_allocations = allocations - allocations_before;

  ASSERT_EQ(cache.hit_count(), 30u + 20u * kRounds);
  ASSERT_EQ(cache.store_count(), 10u);
  ASSERT_EQ(cache.eviction_count(), 0u);
  RecordProperty("allocations_per_dma_request",
                 std::to_string(static_cast<double>(window_allocations) /
                                (25.0 * kRounds)));
  EXPECT_EQ(window_allocations, 0u);
}

}  // namespace
}  // namespace vod
