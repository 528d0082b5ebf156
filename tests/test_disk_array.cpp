#include "storage/disk_array.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::storage {
namespace {

DiskProfile profile(double capacity_mb) {
  return DiskProfile{.capacity = MegaBytes{capacity_mb},
                     .transfer_rate = Mbps{80.0},
                     .seek_seconds = 0.01};
}

TEST(DiskArray, ConstructionValidated) {
  EXPECT_THROW(DiskArray(0, profile(100.0), MegaBytes{10.0}),
               std::invalid_argument);
  EXPECT_THROW(DiskArray(4, profile(100.0), MegaBytes{0.0}),
               std::invalid_argument);
}

TEST(DiskArray, TotalCapacityIsSumOfDisks) {
  const DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  EXPECT_EQ(array.total_capacity(), MegaBytes{400.0});
  EXPECT_EQ(array.total_free(), MegaBytes{400.0});
  EXPECT_EQ(array.disk_count(), 4u);
}

TEST(DiskArray, StoreDistributesCyclically) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  // 60 MB at c=10 -> 6 parts -> disks 0,1,2,3,0,1.
  const auto placement = array.store(VideoId{1}, MegaBytes{60.0});
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->part_to_disk,
            (std::vector<std::size_t>{0, 1, 2, 3, 0, 1}));
  EXPECT_EQ(array.disk(0).used(), MegaBytes{20.0});
  EXPECT_EQ(array.disk(2).used(), MegaBytes{10.0});
  EXPECT_TRUE(array.holds(VideoId{1}));
}

TEST(DiskArray, CanTolerateMatchesStoreOutcome) {
  DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  EXPECT_TRUE(array.can_tolerate(MegaBytes{100.0}));
  EXPECT_FALSE(array.can_tolerate(MegaBytes{101.0}));
  EXPECT_TRUE(array.store(VideoId{1}, MegaBytes{100.0}).has_value());
  EXPECT_FALSE(array.can_tolerate(MegaBytes{10.0}));
  EXPECT_FALSE(array.store(VideoId{2}, MegaBytes{10.0}).has_value());
}

TEST(DiskArray, CanTolerateChecksPerDiskNotJustTotal) {
  DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  // Fill disk 0 more than disk 1: 3 parts -> disks 0,1,0.
  ASSERT_TRUE(array.store(VideoId{1}, MegaBytes{30.0}).has_value());
  EXPECT_EQ(array.disk(0).used(), MegaBytes{20.0});
  EXPECT_EQ(array.disk(1).used(), MegaBytes{10.0});
  // 70 MB = 7 parts, 4 on disk 0 (40 MB > 30 free) — must be rejected even
  // though 70 MB total free exists.
  EXPECT_EQ(array.total_free(), MegaBytes{70.0});
  EXPECT_FALSE(array.can_tolerate(MegaBytes{70.0}));
}

TEST(DiskArray, NonPositiveSizeNotTolerated) {
  DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  EXPECT_FALSE(array.can_tolerate(MegaBytes{0.0}));
  EXPECT_FALSE(array.can_tolerate(MegaBytes{-5.0}));
}

TEST(DiskArray, DuplicateStoreThrows) {
  DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{20.0});
  EXPECT_THROW(array.store(VideoId{1}, MegaBytes{20.0}),
               std::invalid_argument);
}

TEST(DiskArray, RemoveFreesEverything) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{60.0});
  EXPECT_EQ(array.remove(VideoId{1}), MegaBytes{60.0});
  EXPECT_FALSE(array.holds(VideoId{1}));
  EXPECT_EQ(array.total_used(), MegaBytes{0.0});
  EXPECT_EQ(array.remove(VideoId{1}), MegaBytes{0.0});
}

TEST(DiskArray, StoredVideosListsContents) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{20.0});
  array.store(VideoId{2}, MegaBytes{20.0});
  EXPECT_EQ(array.stored_videos(),
            (std::vector<VideoId>{VideoId{1}, VideoId{2}}));
}

TEST(DiskArray, PlacementLookup) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{25.0});
  const StripePlacement& placement = array.placement(VideoId{1});
  EXPECT_EQ(placement.part_count(), 3u);
  EXPECT_THROW((void)array.placement(VideoId{9}), std::out_of_range);
}

TEST(DiskArray, ClusterReadSeconds) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{25.0});
  // Full cluster: 10 MB = 80 Mb at 80 Mbps = 1 s + 0.01 seek.
  EXPECT_NEAR(array.cluster_read_seconds(VideoId{1}, 0), 1.01, 1e-12);
  // Final short cluster: 5 MB -> 0.5 s + seek.
  EXPECT_NEAR(array.cluster_read_seconds(VideoId{1}, 2), 0.51, 1e-12);
  EXPECT_THROW((void)array.cluster_read_seconds(VideoId{1}, 3),
               std::out_of_range);
}

TEST(DiskArray, DiskAccessorBoundsChecked) {
  const DiskArray array{2, profile(50.0), MegaBytes{10.0}};
  EXPECT_NO_THROW((void)array.disk(1));
  EXPECT_THROW((void)array.disk(2), std::out_of_range);
}

}  // namespace
}  // namespace vod::storage
