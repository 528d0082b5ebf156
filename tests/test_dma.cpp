#include "dma/dma_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace vod::dma {
namespace {

storage::DiskProfile profile(double capacity_mb) {
  return storage::DiskProfile{.capacity = MegaBytes{capacity_mb},
                              .transfer_rate = Mbps{80.0},
                              .seek_seconds = 0.01};
}

/// 2 disks x 60 MB, cluster 10 MB.  A 50 MB video stripes as 30 MB on
/// disk 0 and 20 MB on disk 1, so exactly two such videos fit.
storage::DiskArray small_array() {
  return storage::DiskArray{2, profile(60.0), MegaBytes{10.0}};
}

TEST(DmaCache, Figure2_StoresOnFirstRequestWhenSpaceFree) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kStored);
  EXPECT_TRUE(cache.cached(VideoId{1}));
  // The figure gives no point on a fresh store.
  EXPECT_EQ(cache.points(VideoId{1}), 0u);
}

TEST(DmaCache, Figure2_HitGrantsPoint) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kHit);
  EXPECT_EQ(cache.points(VideoId{1}), 1u);
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kHit);
  EXPECT_EQ(cache.points(VideoId{1}), 2u);
}

TEST(DmaCache, Figure2_FullCacheGrantsPointWithoutStoring) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // hit -> 1 point
  cache.on_request(VideoId{2}, MegaBytes{50.0});
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // hit -> 1 point
  // Disks full; newcomer reaches 1 point, not strictly more than the least
  // popular cached title's 1 point -> no eviction, no store.
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{50.0}),
            DmaOutcome::kPointedOnly);
  EXPECT_EQ(cache.points(VideoId{3}), 1u);
  EXPECT_FALSE(cache.cached(VideoId{3}));
  EXPECT_TRUE(cache.cached(VideoId{1}));
  EXPECT_TRUE(cache.cached(VideoId{2}));
}

TEST(DmaCache, Figure2_FreshStoresHaveZeroPointsSoNewcomersEvictThem) {
  // A subtle consequence of the figure: a stored title earns points only
  // on *subsequent* hits, so right after the cache fills, a first-time
  // request (1 point) immediately displaces a never-rerequested title.
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{2}, MegaBytes{50.0});
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{50.0}),
            DmaOutcome::kStored);
  EXPECT_FALSE(cache.cached(VideoId{1}));
  EXPECT_TRUE(cache.cached(VideoId{3}));
}

TEST(DmaCache, Figure2_EvictsLeastPopularWhenNewcomerOvertakes) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // stored, 0 points
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // stored, 0 points
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // hit -> video2: 1 point
  // video3 first request: 1 point — not > video1's 0?  It is: 1 > 0.
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{50.0}),
            DmaOutcome::kStored);
  EXPECT_FALSE(cache.cached(VideoId{1}));  // least popular was evicted
  EXPECT_TRUE(cache.cached(VideoId{2}));
  EXPECT_TRUE(cache.cached(VideoId{3}));
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(DmaCache, Figure2_NoEvictionWhenNewcomerNotStrictlyMorePopular) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // 1 point
  cache.on_request(VideoId{2}, MegaBytes{50.0});
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // 1 point
  // Newcomer reaches 1 point = least popular's 1 -> stays out.
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{50.0}),
            DmaOutcome::kPointedOnly);
  EXPECT_EQ(cache.eviction_count(), 0u);
}

TEST(DmaCache, Figure2_SingleEvictionMayNotFreeEnough) {
  // 2 disks x 60, cluster 10.  Two 30 MB videos cached (disk0: 20+20,
  // disk1: 10+10) with one point each.  A 100 MB newcomer needs 50/50 —
  // one eviction is not enough, and Figure 2 stops after one victim.
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{30.0});
  cache.on_request(VideoId{1}, MegaBytes{30.0});  // 1 point
  cache.on_request(VideoId{2}, MegaBytes{30.0});
  cache.on_request(VideoId{2}, MegaBytes{30.0});  // 1 point
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{100.0}),
            DmaOutcome::kPointedOnly);  // 1 point, not > 1 -> no eviction
  EXPECT_EQ(cache.eviction_count(), 0u);
  // Second request: video3 has 2 points > video1's 1 -> evict video1, but
  // 100 MB still does not fit; single-evict stops there.
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{100.0}),
            DmaOutcome::kPointedOnly);
  EXPECT_FALSE(cache.cached(VideoId{1}));
  EXPECT_TRUE(cache.cached(VideoId{2}));
  EXPECT_FALSE(cache.cached(VideoId{3}));
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(DmaCache, MultiEvictExtensionKeepsEvicting) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks, DmaOptions{.admission_threshold = 0,
                                   .multi_evict = true}};
  cache.on_request(VideoId{1}, MegaBytes{30.0});
  cache.on_request(VideoId{1}, MegaBytes{30.0});  // 1 point
  cache.on_request(VideoId{2}, MegaBytes{30.0});
  cache.on_request(VideoId{2}, MegaBytes{30.0});  // 1 point
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{100.0}),
            DmaOutcome::kPointedOnly);  // 1 point, not > 1
  // Second request: 2 points > 1 -> evicts video1, still no room, keeps
  // going (multi_evict) -> evicts video2, stores.
  EXPECT_EQ(cache.on_request(VideoId{3}, MegaBytes{100.0}),
            DmaOutcome::kStored);
  EXPECT_TRUE(cache.cached(VideoId{3}));
  EXPECT_EQ(cache.eviction_count(), 2u);
}

TEST(DmaCache, ThresholdVariantDelaysAdmission) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks, DmaOptions{.admission_threshold = 2}};
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kPointedOnly);
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kPointedOnly);
  // Third request: points (3) exceed threshold (2) -> stored.
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kStored);
  EXPECT_TRUE(cache.cached(VideoId{1}));
}

TEST(DmaCache, ThresholdVariantCountsHitsToo) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks, DmaOptions{.admission_threshold = 1}};
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // point 1
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // point 2 > 1 -> stored
  EXPECT_TRUE(cache.cached(VideoId{1}));
  EXPECT_EQ(cache.on_request(VideoId{1}, MegaBytes{50.0}),
            DmaOutcome::kHit);
  EXPECT_EQ(cache.points(VideoId{1}), 3u);
}

TEST(DmaCache, LeastPopularCachedTieBreaksByLowestId) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{5}, MegaBytes{40.0});
  cache.on_request(VideoId{2}, MegaBytes{40.0});
  ASSERT_TRUE(cache.least_popular_cached().has_value());
  EXPECT_EQ(*cache.least_popular_cached(), VideoId{2});
}

TEST(DmaCache, LeastPopularEmptyWhenNothingCached) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  EXPECT_FALSE(cache.least_popular_cached().has_value());
}

TEST(DmaCache, CallbacksFireOnAdmitAndEvict) {
  storage::DiskArray disks = small_array();
  std::vector<VideoId> admitted, evicted;
  DmaCallbacks callbacks;
  callbacks.on_admit = [&](VideoId v) { admitted.push_back(v); };
  callbacks.on_evict = [&](VideoId v) { evicted.push_back(v); };
  DmaCache cache{disks, {}, callbacks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{2}, MegaBytes{50.0});
  cache.on_request(VideoId{3}, MegaBytes{50.0});  // pointed only
  cache.on_request(VideoId{3}, MegaBytes{50.0});  // evicts 1, stores 3
  EXPECT_EQ(admitted,
            (std::vector<VideoId>{VideoId{1}, VideoId{2}, VideoId{3}}));
  EXPECT_EQ(evicted, std::vector<VideoId>{VideoId{1}});
}

TEST(DmaCache, CountersTrackActivity) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{2}, MegaBytes{50.0});
  EXPECT_EQ(cache.request_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 1u);
  EXPECT_EQ(cache.store_count(), 2u);
}

TEST(DmaCache, RejectsBadRequests) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks};
  EXPECT_THROW(cache.on_request(VideoId{}, MegaBytes{1.0}),
               std::invalid_argument);
  EXPECT_THROW(cache.on_request(VideoId{1}, MegaBytes{0.0}),
               std::invalid_argument);
}

TEST(DmaCache, OversizedVideoNeverCachedButCacheSurvives) {
  storage::DiskArray disks = small_array();
  DmaCache cache{disks, DmaOptions{.multi_evict = true}};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cache.on_request(VideoId{9}, MegaBytes{500.0}),
              DmaOutcome::kPointedOnly);
  }
  EXPECT_FALSE(cache.cached(VideoId{9}));
}

// --- Property: under random Zipf-ish traffic, invariants hold ---

class DmaRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(DmaRandomProperty, CapacityNeverExceededAndPointsMonotonic) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  storage::DiskArray disks{4, profile(100.0), MegaBytes{10.0}};
  DmaCache cache{disks,
                 DmaOptions{.admission_threshold =
                                static_cast<std::uint64_t>(GetParam() % 3),
                            .multi_evict = (GetParam() % 2) == 0}};
  std::vector<MegaBytes> sizes;
  for (int v = 0; v < 20; ++v) {
    sizes.push_back(MegaBytes{rng.uniform(10.0, 120.0)});
  }
  std::uint64_t last_points_v0 = 0;
  for (int i = 0; i < 500; ++i) {
    // Skewed choice: low ids much more often.
    const auto v = static_cast<std::size_t>(
        std::min<double>(19.0, rng.exponential(0.4)));
    cache.on_request(VideoId{static_cast<VideoId::underlying_type>(v)},
                     sizes[v]);
    EXPECT_LE(disks.total_used().value(), disks.total_capacity().value());
    const std::uint64_t p = cache.points(VideoId{0});
    EXPECT_GE(p, last_points_v0);  // points never decrease
    last_points_v0 = p;
  }
  // The most frequently requested title (id 0) must end up cached.
  EXPECT_TRUE(cache.cached(VideoId{0}))
      << "seed " << GetParam() << ": most popular title not cached";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaRandomProperty, ::testing::Range(0, 20));

// --- Differential: the ranked index against the old linear scan ---

/// The scan least_popular_cached() replaced: stored titles in ascending id
/// order, and only a strictly smaller count replaces the best.
std::optional<VideoId> scan_least_popular(const DmaCache& cache) {
  const std::vector<VideoId> stored = cache.disks().stored_videos();
  if (stored.empty()) return std::nullopt;
  VideoId best = stored.front();
  for (const VideoId video : stored) {
    if (cache.points(video) < cache.points(best)) best = video;
  }
  return best;
}

/// The index answers like the scan, holds exactly the cached titles, and
/// keys each with its current points.
void expect_index_matches_scan(const DmaCache& cache) {
  EXPECT_EQ(cache.least_popular_cached(), scan_least_popular(cache));
  std::vector<VideoId> indexed;
  for (const auto& [points, video] : cache.ranked()) {
    EXPECT_EQ(points, cache.points(video)) << "video " << video;
    indexed.push_back(video);
  }
  std::sort(indexed.begin(), indexed.end());
  EXPECT_EQ(cache.cached_videos(), indexed);
}

class DmaIndexDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DmaIndexDifferential, LeastPopularMatchesScanAfterEveryStep) {
  const int seed = GetParam();
  Rng rng{static_cast<std::uint64_t>(seed) + 1000};
  // Seeds cross admission_threshold {0,1,2} x multi_evict x striping mode.
  const auto mode = (seed / 6) % 2 == 1 ? storage::StripingMode::kParity
                                        : storage::StripingMode::kPlain;
  storage::DiskArray disks{4, profile(100.0), MegaBytes{10.0}, mode};
  DmaCache cache{disks,
                 DmaOptions{.admission_threshold =
                                static_cast<std::uint64_t>(seed % 3),
                            .multi_evict = (seed / 3) % 2 == 1}};
  std::vector<MegaBytes> sizes;
  for (int v = 0; v < 24; ++v) {
    sizes.push_back(MegaBytes{rng.uniform(10.0, 90.0)});
  }
  const auto pick_video = [&] {
    return static_cast<std::size_t>(
        std::min<double>(23.0, rng.exponential(0.15)));
  };
  const auto pick_slot = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, 3));
  };
  std::size_t placed = 0;
  std::size_t failures = 0;
  for (int step = 0; step < 600; ++step) {
    // The first steps seed the disks the way initial placement does.
    const double action = step < 3 ? 0.0 : rng.uniform();
    if (action < 0.05) {
      const auto v = static_cast<std::size_t>(rng.uniform_int(0, 23));
      const VideoId video{static_cast<VideoId::underlying_type>(v)};
      if (!cache.cached(video) && cache.place(video, sizes[v])) ++placed;
    } else if (action < 0.07) {
      failures += cache.handle_disk_failure(pick_slot()).size();
    } else if (action < 0.10) {
      // Repair changes which disks take new stripes, never the contents.
      disks.repair_disk(pick_slot());
    } else {
      const std::size_t v = pick_video();
      cache.on_request(VideoId{static_cast<VideoId::underlying_type>(v)},
                       sizes[v]);
    }
    expect_index_matches_scan(cache);
    if (HasFailure()) {
      FAIL() << "seed " << seed << " diverged at step " << step;
    }
  }
  EXPECT_GT(cache.eviction_count(), 0u);
  EXPECT_GT(cache.hit_count(), 0u);
  EXPECT_GT(placed, 0u);
  EXPECT_GT(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaIndexDifferential,
                         ::testing::Range(0, 24));

TEST(DmaCache, TitlesAlreadyOnTheDisksEnterTheIndexWithZeroPoints) {
  storage::DiskArray disks = small_array();
  ASSERT_TRUE(disks.store(VideoId{6}, MegaBytes{50.0}));
  DmaCache cache{disks};
  EXPECT_EQ(cache.least_popular_cached(), VideoId{6});
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // stored, 0 points
  cache.on_request(VideoId{2}, MegaBytes{50.0});  // hit -> 1 point
  expect_index_matches_scan(cache);
  EXPECT_EQ(cache.least_popular_cached(), VideoId{6});
}

TEST(DmaCache, PlaceStoresWithoutPointsCountsOrCallbacks) {
  storage::DiskArray disks = small_array();
  std::vector<VideoId> admitted;
  DmaCallbacks callbacks;
  callbacks.on_admit = [&](VideoId v) { admitted.push_back(v); };
  DmaCache cache{disks, {}, callbacks};
  cache.on_request(VideoId{1}, MegaBytes{50.0});
  cache.on_request(VideoId{1}, MegaBytes{50.0});  // hit -> 1 point
  EXPECT_TRUE(cache.place(VideoId{7}, MegaBytes{50.0}));
  EXPECT_TRUE(cache.cached(VideoId{7}));
  EXPECT_EQ(cache.points(VideoId{7}), 0u);
  EXPECT_EQ(cache.store_count(), 1u);
  EXPECT_EQ(admitted, std::vector<VideoId>{VideoId{1}});
  // The placed title is the first victim, despite its higher id.
  EXPECT_EQ(cache.least_popular_cached(), VideoId{7});
  EXPECT_FALSE(cache.place(VideoId{8}, MegaBytes{50.0}));  // disks full
  EXPECT_THROW((void)cache.place(VideoId{7}, MegaBytes{50.0}),
               std::invalid_argument);
  EXPECT_EQ(cache.on_request(VideoId{8}, MegaBytes{50.0}),
            DmaOutcome::kStored);  // 1 point > 0: the placed title goes
  EXPECT_FALSE(cache.cached(VideoId{7}));
}

}  // namespace
}  // namespace vod::dma
