#include "storage/disk.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vod::storage {
namespace {

Disk small_disk() {
  return Disk{DiskId{0},
              DiskProfile{.capacity = MegaBytes{100.0},
                          .transfer_rate = Mbps{80.0},
                          .seek_seconds = 0.01}};
}

TEST(Disk, StartsEmpty) {
  const Disk disk = small_disk();
  EXPECT_EQ(disk.used(), MegaBytes{0.0});
  EXPECT_EQ(disk.free(), MegaBytes{100.0});
  EXPECT_EQ(disk.stored_part_count(), 0u);
}

TEST(Disk, StorePartUpdatesUsage) {
  Disk disk = small_disk();
  disk.store_part(VideoId{1}, 0, MegaBytes{30.0});
  EXPECT_EQ(disk.used(), MegaBytes{30.0});
  EXPECT_EQ(disk.free(), MegaBytes{70.0});
  EXPECT_TRUE(disk.holds_any_part(VideoId{1}));
  EXPECT_EQ(disk.stored_part_count(), 1u);
}

TEST(Disk, CanFitRespectsFreeSpace) {
  Disk disk = small_disk();
  EXPECT_TRUE(disk.can_fit(MegaBytes{100.0}));
  disk.store_part(VideoId{1}, 0, MegaBytes{60.0});
  EXPECT_TRUE(disk.can_fit(MegaBytes{40.0}));
  EXPECT_FALSE(disk.can_fit(MegaBytes{41.0}));
}

TEST(Disk, StoreBeyondCapacityThrows) {
  Disk disk = small_disk();
  EXPECT_THROW(disk.store_part(VideoId{1}, 0, MegaBytes{101.0}),
               std::invalid_argument);
}

TEST(Disk, DuplicatePartThrows) {
  Disk disk = small_disk();
  disk.store_part(VideoId{1}, 0, MegaBytes{10.0});
  EXPECT_THROW(disk.store_part(VideoId{1}, 0, MegaBytes{10.0}),
               std::invalid_argument);
}

TEST(Disk, DistinctPartsOfSameVideoAllowed) {
  Disk disk = small_disk();
  disk.store_part(VideoId{1}, 0, MegaBytes{10.0});
  disk.store_part(VideoId{1}, 4, MegaBytes{10.0});
  EXPECT_EQ(disk.parts_of(VideoId{1}), (std::vector<std::size_t>{0, 4}));
}

TEST(Disk, RemoveVideoFreesAllParts) {
  Disk disk = small_disk();
  disk.store_part(VideoId{1}, 0, MegaBytes{10.0});
  disk.store_part(VideoId{1}, 1, MegaBytes{10.0});
  disk.store_part(VideoId{2}, 0, MegaBytes{5.0});
  EXPECT_EQ(disk.remove_video(VideoId{1}), MegaBytes{20.0});
  EXPECT_EQ(disk.used(), MegaBytes{5.0});
  EXPECT_FALSE(disk.holds_any_part(VideoId{1}));
  EXPECT_TRUE(disk.holds_any_part(VideoId{2}));
}

TEST(Disk, RemoveAbsentVideoFreesNothing) {
  Disk disk = small_disk();
  EXPECT_EQ(disk.remove_video(VideoId{9}), MegaBytes{0.0});
}

TEST(Disk, ReadSecondsIsSeekPlusTransfer) {
  const Disk disk = small_disk();
  // 10 MB = 80 megabits at 80 Mbps = 1 s, plus 0.01 s seek.
  EXPECT_NEAR(disk.read_seconds(MegaBytes{10.0}), 1.01, 1e-12);
}

TEST(Disk, ReadSecondsRejectsNegative) {
  const Disk disk = small_disk();
  EXPECT_THROW((void)disk.read_seconds(MegaBytes{-1.0}), std::invalid_argument);
}

TEST(Disk, RejectsBadConstruction) {
  EXPECT_THROW(Disk(DiskId{}, DiskProfile{}), std::invalid_argument);
  EXPECT_THROW(
      Disk(DiskId{0}, DiskProfile{.capacity = MegaBytes{0.0}}),
      std::invalid_argument);
  EXPECT_THROW(Disk(DiskId{0}, DiskProfile{.capacity = MegaBytes{1.0},
                                           .transfer_rate = Mbps{0.0}}),
               std::invalid_argument);
}

TEST(Disk, RejectsNonPositivePartSize) {
  Disk disk = small_disk();
  EXPECT_THROW(disk.store_part(VideoId{1}, 0, MegaBytes{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vod::storage
