// RAID-5-style parity striping: layout, failure survival, degraded reads.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "storage/disk_array.h"
#include "storage/striping.h"

namespace vod::storage {
namespace {

DiskProfile profile(double capacity_mb) {
  return DiskProfile{.capacity = MegaBytes{capacity_mb},
                     .transfer_rate = Mbps{80.0},
                     .seek_seconds = 0.01};
}

TEST(ParityPlan, RowsOfWidthNMinusOne) {
  // 4 disks -> rows of 3 data clusters + 1 parity.  60 MB / c=10 -> 6
  // parts -> 2 rows.
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{60.0},
                                         MegaBytes{10.0}, 4);
  EXPECT_EQ(plan.part_count(), 6u);
  EXPECT_EQ(plan.row_count(), 2u);
  EXPECT_EQ(plan.row_width, 3u);
  EXPECT_TRUE(plan.has_parity());
}

TEST(ParityPlan, ParityRotatesAcrossDisks) {
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{120.0},
                                         MegaBytes{10.0}, 4);
  // 12 parts -> 4 rows; parity slots rotate 3,2,1,0.
  EXPECT_EQ(plan.parity_to_disk, (std::vector<std::size_t>{3, 2, 1, 0}));
}

TEST(ParityPlan, RowMembersOnDistinctDisks) {
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{120.0},
                                         MegaBytes{10.0}, 4);
  for (std::size_t row = 0; row < plan.row_count(); ++row) {
    std::set<std::size_t> used{plan.parity_to_disk[row]};
    for (std::size_t j = 0; j < plan.row_width; ++j) {
      const std::size_t part = row * plan.row_width + j;
      if (part >= plan.part_count()) break;
      EXPECT_TRUE(used.insert(plan.part_to_disk[part]).second)
          << "row " << row << " reuses a disk";
    }
  }
}

TEST(ParityPlan, CapacityOverheadIsOneOverNMinusOne) {
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{120.0},
                                         MegaBytes{10.0}, 4);
  MegaBytes parity_total{0.0};
  for (const MegaBytes p : plan.parity_sizes) parity_total += p;
  // 12 data clusters / 3 per row = 4 parity clusters of 10 MB.
  EXPECT_EQ(parity_total, MegaBytes{40.0});
  EXPECT_NEAR(parity_total / plan.total_size(), 1.0 / 3.0, 1e-12);
}

TEST(ParityPlan, ShortFinalRowGetsParityOfLargestMember) {
  // 35 MB / c=10 -> parts 10,10,10,5 -> row0(10,10,10), row1(5).
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{35.0},
                                         MegaBytes{10.0}, 4);
  ASSERT_EQ(plan.row_count(), 2u);
  EXPECT_EQ(plan.parity_sizes[0], MegaBytes{10.0});
  EXPECT_EQ(plan.parity_sizes[1], MegaBytes{5.0});
}

TEST(ParityPlan, TwoDisksIsMirroring) {
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{30.0},
                                         MegaBytes{10.0}, 2);
  // Rows of 1 data cluster, parity = same size: full duplication.
  EXPECT_EQ(plan.row_width, 1u);
  EXPECT_EQ(plan.row_count(), 3u);
  MegaBytes parity_total{0.0};
  for (const MegaBytes p : plan.parity_sizes) parity_total += p;
  EXPECT_EQ(parity_total, plan.total_size());
}

TEST(ParityPlan, RejectsSingleDisk) {
  EXPECT_THROW(
      plan_parity_striping(VideoId{1}, MegaBytes{10.0}, MegaBytes{5.0}, 1),
      std::invalid_argument);
}

TEST(ParityPlan, PerDiskBytesIncludeParity) {
  const auto plan = plan_parity_striping(VideoId{1}, MegaBytes{30.0},
                                         MegaBytes{10.0}, 4);
  const auto per_disk = plan.per_disk_bytes(4);
  double total = 0.0;
  for (const MegaBytes b : per_disk) total += b.value();
  EXPECT_NEAR(total, 40.0, 1e-9);  // 30 data + 10 parity
}

// --- Array-level behaviour ---

TEST(ParityArray, SingleDiskFailureLosesNothing) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0},
                  StripingMode::kParity};
  ASSERT_TRUE(array.store(VideoId{1}, MegaBytes{60.0}).has_value());
  const auto lost = array.fail_disk(2);
  EXPECT_TRUE(lost.empty());
  EXPECT_TRUE(array.holds(VideoId{1}));
  EXPECT_TRUE(array.readable(VideoId{1}));
}

TEST(ParityArray, SecondOverlappingFailureLosesTheTitle) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0},
                  StripingMode::kParity};
  array.store(VideoId{1}, MegaBytes{60.0});
  array.fail_disk(2);
  const auto lost = array.fail_disk(0);
  EXPECT_EQ(lost, std::vector<VideoId>{VideoId{1}});
  EXPECT_FALSE(array.holds(VideoId{1}));
}

TEST(ParityArray, PlainModeStillLosesOnFirstFailure) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0},
                  StripingMode::kPlain};
  array.store(VideoId{1}, MegaBytes{60.0});
  EXPECT_EQ(array.fail_disk(0), std::vector<VideoId>{VideoId{1}});
}

TEST(ParityArray, DegradedReadReconstructsFromRow) {
  DiskArray array{4, profile(1000.0), MegaBytes{10.0},
                  StripingMode::kParity};
  array.store(VideoId{1}, MegaBytes{60.0});
  const double healthy_read = array.cluster_read_seconds(VideoId{1}, 0);
  const std::size_t slot = array.placement(VideoId{1}).part_to_disk[0];
  array.fail_disk(slot);
  ASSERT_TRUE(array.readable(VideoId{1}));
  const double degraded_read = array.cluster_read_seconds(VideoId{1}, 0);
  // Survivors are same-size clusters on identical disks: latency matches.
  EXPECT_NEAR(degraded_read, healthy_read, 1e-12);
}

TEST(ParityArray, ReadOnHealthyDiskUnaffectedByOtherFailure) {
  DiskArray array{4, profile(1000.0), MegaBytes{10.0},
                  StripingMode::kParity};
  array.store(VideoId{1}, MegaBytes{60.0});
  // Fail a disk not holding part 0.
  const std::size_t part0 = array.placement(VideoId{1}).part_to_disk[0];
  const std::size_t other = (part0 + 1) % 4;
  array.fail_disk(other);
  EXPECT_NO_THROW((void)array.cluster_read_seconds(VideoId{1}, 0));
}

TEST(ParityArray, UnreadableClusterThrows) {
  DiskArray plain{4, profile(1000.0), MegaBytes{10.0}};
  plain.store(VideoId{1}, MegaBytes{60.0});
  // Plain mode: failing the disk removes the title entirely.
  plain.fail_disk(0);
  EXPECT_THROW((void)plain.cluster_read_seconds(VideoId{1}, 0),
               std::out_of_range);  // placement gone
}

TEST(ParityArray, CapacityAccountsForParity) {
  DiskArray array{4, profile(30.0), MegaBytes{10.0},
                  StripingMode::kParity};
  // 90 MB data would need 120 MB raw (30 parity) = exactly full.
  EXPECT_TRUE(array.can_tolerate(MegaBytes{90.0}));
  ASSERT_TRUE(array.store(VideoId{1}, MegaBytes{90.0}).has_value());
  EXPECT_NEAR(array.total_used().value(), 120.0, 1e-9);
  EXPECT_FALSE(array.can_tolerate(MegaBytes{10.0}));
}

TEST(ParityArray, StoreWhileDegradedUsesSurvivors) {
  DiskArray array{4, profile(100.0), MegaBytes{10.0},
                  StripingMode::kParity};
  array.fail_disk(1);
  const auto placement = array.store(VideoId{1}, MegaBytes{40.0});
  ASSERT_TRUE(placement.has_value());
  for (const std::size_t slot : placement->part_to_disk) {
    EXPECT_NE(slot, 1u);
  }
  for (const std::size_t slot : placement->parity_to_disk) {
    EXPECT_NE(slot, 1u);
  }
}

TEST(ParityArray, ConstructorValidation) {
  EXPECT_THROW(DiskArray(1, profile(10.0), MegaBytes{5.0},
                         StripingMode::kParity),
               std::invalid_argument);
}

TEST(ParityArray, RepairRestoresDirectReads) {
  DiskArray array{4, profile(1000.0), MegaBytes{10.0},
                  StripingMode::kParity};
  array.store(VideoId{1}, MegaBytes{60.0});
  const std::size_t slot = array.placement(VideoId{1}).part_to_disk[0];
  array.fail_disk(slot);
  array.repair_disk(slot);  // rebuild
  EXPECT_TRUE(array.readable(VideoId{1}));
  EXPECT_NO_THROW((void)array.cluster_read_seconds(VideoId{1}, 0));
}

// --- Property: random failure sequences never lose a title that every
// row can still reconstruct, and always lose ones that cannot. ---

class ParityFailureProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParityFailureProperty, LossesExactlyMatchRowRecoverability) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  DiskArray array{6, profile(500.0), MegaBytes{10.0},
                  StripingMode::kParity};
  for (int v = 0; v < 5; ++v) {
    array.store(VideoId{static_cast<VideoId::underlying_type>(v)},
                MegaBytes{rng.uniform(30.0, 150.0)});
  }
  // Fail two random distinct disks.
  const auto first = static_cast<std::size_t>(rng.uniform_int(0, 5));
  auto second = static_cast<std::size_t>(rng.uniform_int(0, 5));
  while (second == first) {
    second = static_cast<std::size_t>(rng.uniform_int(0, 5));
  }
  EXPECT_TRUE(array.fail_disk(first).empty());  // single failure: safe
  array.fail_disk(second);
  // Whatever survived must be readable cluster by cluster.
  for (const VideoId video : array.stored_videos()) {
    EXPECT_TRUE(array.readable(video));
    const StripePlacement& placement = array.placement(video);
    for (std::size_t part = 0; part < placement.part_count(); ++part) {
      EXPECT_NO_THROW((void)array.cluster_read_seconds(video, part));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParityFailureProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace vod::storage
