// Disk failures: array-level loss semantics, DMA propagation, and service
// failover to surviving replicas (the reliability concern of the paper's
// reference [3]).
#include <gtest/gtest.h>

#include "dma/dma_cache.h"
#include "grnet/grnet.h"
#include "service/vod_service.h"
#include "storage/disk_array.h"

namespace vod {
namespace {

const db::AdminCredential kAdmin{"secret"};

storage::DiskProfile profile(double capacity_mb) {
  return storage::DiskProfile{.capacity = MegaBytes{capacity_mb},
                              .transfer_rate = Mbps{80.0},
                              .seek_seconds = 0.01};
}

TEST(DiskFailure, LosesEveryVideoTouchingTheDisk) {
  storage::DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  // 20 MB video -> parts on disks 0,1 only.
  array.store(VideoId{1}, MegaBytes{20.0});
  // 40 MB video -> parts on disks 0..3.
  array.store(VideoId{2}, MegaBytes{40.0});
  const auto lost = array.fail_disk(3);
  EXPECT_EQ(lost, std::vector<VideoId>{VideoId{2}});
  EXPECT_TRUE(array.holds(VideoId{1}));
  EXPECT_FALSE(array.holds(VideoId{2}));
  EXPECT_EQ(array.healthy_disk_count(), 3u);
  EXPECT_TRUE(array.disk_failed(3));
}

TEST(DiskFailure, DoubleFailureReturnsNothingNew) {
  storage::DiskArray array{2, profile(100.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{20.0});
  EXPECT_FALSE(array.fail_disk(0).empty());
  EXPECT_TRUE(array.fail_disk(0).empty());
}

TEST(DiskFailure, StoresStripeOverSurvivorsOnly) {
  storage::DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  array.fail_disk(1);
  const auto placement = array.store(VideoId{1}, MegaBytes{40.0});
  ASSERT_TRUE(placement.has_value());
  // 4 parts over healthy slots {0,2,3}: 0,2,3,0.
  EXPECT_EQ(placement->part_to_disk,
            (std::vector<std::size_t>{0, 2, 3, 0}));
  EXPECT_EQ(array.disk(1).used(), MegaBytes{0.0});
}

TEST(DiskFailure, CanTolerateShrinksWithFailures) {
  storage::DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  EXPECT_TRUE(array.can_tolerate(MegaBytes{100.0}));
  array.fail_disk(0);
  EXPECT_FALSE(array.can_tolerate(MegaBytes{100.0}));
  EXPECT_TRUE(array.can_tolerate(MegaBytes{50.0}));
}

TEST(DiskFailure, AllDisksFailedToleratesNothing) {
  storage::DiskArray array{1, profile(50.0), MegaBytes{10.0}};
  array.fail_disk(0);
  EXPECT_FALSE(array.can_tolerate(MegaBytes{1.0}));
  EXPECT_EQ(array.healthy_disk_count(), 0u);
}

TEST(DiskFailure, RepairRestoresCapacityEmpty) {
  storage::DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{60.0});
  array.fail_disk(0);
  EXPECT_FALSE(array.holds(VideoId{1}));
  array.repair_disk(0);
  EXPECT_EQ(array.healthy_disk_count(), 2u);
  EXPECT_TRUE(array.can_tolerate(MegaBytes{100.0}));
  EXPECT_EQ(array.disk(0).used(), MegaBytes{0.0});
}

TEST(DiskFailure, BadSlotThrows) {
  storage::DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  EXPECT_THROW(array.fail_disk(2), std::out_of_range);
  EXPECT_THROW(array.repair_disk(2), std::out_of_range);
  EXPECT_THROW((void)array.disk_failed(2), std::out_of_range);
}

TEST(DmaDiskFailure, EvictionCallbacksFireForLostTitles) {
  storage::DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  std::vector<VideoId> evicted;
  dma::DmaCallbacks callbacks;
  callbacks.on_evict = [&](VideoId v) { evicted.push_back(v); };
  dma::DmaCache cache{array, {}, callbacks};
  cache.on_request(VideoId{1}, MegaBytes{40.0});
  cache.on_request(VideoId{1}, MegaBytes{40.0});  // a point
  const auto lost = cache.handle_disk_failure(0);
  EXPECT_EQ(lost, std::vector<VideoId>{VideoId{1}});
  EXPECT_EQ(evicted, std::vector<VideoId>{VideoId{1}});
  EXPECT_EQ(cache.eviction_count(), 1u);
  // Points survive the failure: the title re-enters on the next request.
  EXPECT_EQ(cache.points(VideoId{1}), 1u);
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{40.0}),
            dma::DmaOutcome::kStored);
}

TEST(ServiceDiskFailure, VraFailsOverToSurvivingReplica) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  service::VodService service{sim, g.topology, network, options, kAdmin};
  const VideoId movie =
      service.add_video("movie", MegaBytes{40.0}, Mbps{2.0});
  service.place_initial_copy(g.thessaloniki, movie);
  service.place_initial_copy(g.xanthi, movie);
  service.start();

  // The 40 MB copy stripes over all 8 disks; losing any disk at
  // Thessaloniki loses the copy there.
  const auto lost = service.fail_disk(g.thessaloniki, 0);
  EXPECT_EQ(lost, std::vector<VideoId>{movie});
  EXPECT_EQ(
      service.database().full_view().servers_with_title(movie),
      std::vector<NodeId>{g.xanthi});

  const SessionId id = service.request_at(g.patra, movie);
  sim.run_until(from_hours(1.0));
  const stream::SessionMetrics& m = service.session_metrics(id);
  EXPECT_TRUE(m.finished);
  for (const NodeId source : m.cluster_sources) {
    EXPECT_EQ(source, g.xanthi);
  }
}

TEST(ServiceDiskFailure, UnknownServerThrows) {
  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  service::VodService service{sim, g.topology, network, {}, kAdmin};
  EXPECT_THROW(service.fail_disk(NodeId{99}, 0), std::out_of_range);
}

}  // namespace
}  // namespace vod
