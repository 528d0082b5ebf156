// A Disk charges and frees capacity; which parts of which title sit on it
// is its array's placement record, so the per-title cases below go through
// a DiskArray and check each disk's charge.
#include "storage/disk.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "storage/disk_array.h"

namespace vod::storage {
namespace {

Disk small_disk() {
  return Disk{DiskProfile{.capacity = MegaBytes{100.0},
                          .transfer_rate = Mbps{80.0},
                          .seek_seconds = 0.01}};
}

TEST(Disk, StartsEmpty) {
  const Disk disk = small_disk();
  EXPECT_EQ(disk.used(), MegaBytes{0.0});
  EXPECT_EQ(disk.free(), MegaBytes{100.0});
}

TEST(Disk, ReserveUpdatesUsage) {
  Disk disk = small_disk();
  disk.reserve(MegaBytes{30.0});
  EXPECT_EQ(disk.used(), MegaBytes{30.0});
  EXPECT_EQ(disk.free(), MegaBytes{70.0});
}

TEST(Disk, CanFitRespectsFreeSpace) {
  Disk disk = small_disk();
  EXPECT_TRUE(disk.can_fit(MegaBytes{100.0}));
  disk.reserve(MegaBytes{60.0});
  EXPECT_TRUE(disk.can_fit(MegaBytes{40.0}));
  EXPECT_FALSE(disk.can_fit(MegaBytes{41.0}));
}

TEST(Disk, StoreBeyondCapacityThrows) {
  Disk disk = small_disk();
  disk.reserve(MegaBytes{60.0});
  EXPECT_THROW(disk.reserve(MegaBytes{41.0}), std::invalid_argument);
  EXPECT_EQ(disk.used(), MegaBytes{60.0});
}

TEST(Disk, ReleaseFreesSpace) {
  Disk disk = small_disk();
  disk.reserve(MegaBytes{20.0});
  disk.reserve(MegaBytes{5.0});
  disk.release(MegaBytes{20.0});
  EXPECT_EQ(disk.used(), MegaBytes{5.0});
  EXPECT_TRUE(disk.can_fit(MegaBytes{95.0}));
}

TEST(Disk, DistinctPartsOfSameVideoAllowed) {
  // One disk, 10 MB clusters: all three parts of a 25 MB title land on it.
  DiskArray array{1, DiskProfile{.capacity = MegaBytes{100.0}},
                  MegaBytes{10.0}};
  ASSERT_TRUE(array.store(VideoId{1}, MegaBytes{25.0}).has_value());
  EXPECT_EQ(array.placement(VideoId{1}).part_count(), 3u);
  EXPECT_EQ(array.disk(0).used(), MegaBytes{25.0});
}

TEST(Disk, RemoveVideoFreesAllParts) {
  // Both layouts: every disk gives back exactly the removed title's bytes
  // on it, parity included, and the other title stays charged.
  for (const StripingMode mode :
       {StripingMode::kPlain, StripingMode::kParity}) {
    DiskArray array{3, DiskProfile{.capacity = MegaBytes{100.0}},
                    MegaBytes{10.0}, mode};
    array.store(VideoId{1}, MegaBytes{50.0});
    array.store(VideoId{2}, MegaBytes{30.0});
    const std::vector<MegaBytes> kept =
        array.placement(VideoId{2}).per_disk_bytes(array.disk_count());
    const MegaBytes before = array.total_used();
    const MegaBytes freed = array.remove(VideoId{1});
    EXPECT_EQ(freed, before - array.total_used());
    for (std::size_t slot = 0; slot < array.disk_count(); ++slot) {
      EXPECT_EQ(array.disk(slot).used(), kept[slot]) << "slot " << slot;
    }
    EXPECT_TRUE(array.holds(VideoId{2}));
  }
}

TEST(Disk, RemoveAbsentVideoFreesNothing) {
  DiskArray array{2, DiskProfile{.capacity = MegaBytes{100.0}},
                  MegaBytes{10.0}};
  array.store(VideoId{1}, MegaBytes{30.0});
  EXPECT_EQ(array.remove(VideoId{9}), MegaBytes{0.0});
  EXPECT_EQ(array.disk(0).used(), MegaBytes{20.0});
  EXPECT_EQ(array.disk(1).used(), MegaBytes{10.0});
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
  EXPECT_THROW(Disk(DiskProfile{.capacity = MegaBytes{0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Disk(DiskProfile{.capacity = MegaBytes{1.0},
                                .transfer_rate = Mbps{0.0}}),
               std::invalid_argument);
}

TEST(Disk, RejectsNonPositivePartSize) {
  Disk disk = small_disk();
  EXPECT_THROW(disk.reserve(MegaBytes{0.0}), std::invalid_argument);
  EXPECT_THROW(disk.reserve(MegaBytes{-1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace vod::storage
