#include "common/slot_map.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace vod {
namespace {

using Map = SlotMap<SessionId, std::string>;

SessionId id(std::uint32_t v) { return SessionId{v}; }

TEST(SlotMap, InsertFindEraseRoundTrip) {
  Map map;
  EXPECT_TRUE(map.empty());
  map.insert(id(0), "a");
  map.insert(id(1), "b");
  map.insert(id(2), "c");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.contains(id(1)));
  ASSERT_NE(map.find(id(1)), nullptr);
  EXPECT_EQ(*map.find(id(1)), "b");
  EXPECT_EQ(map.at(id(2), "missing"), "c");

  map.erase(id(1));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.contains(id(1)));
  EXPECT_EQ(map.find(id(1)), nullptr);
  EXPECT_THROW((void)map.at(id(1), "missing"), std::out_of_range);
  EXPECT_THROW(map.erase(id(1)), std::out_of_range);
}

TEST(SlotMap, InsertRejectsInvalidDuplicateAndRetiredIds) {
  Map map;
  EXPECT_THROW(map.insert(SessionId{}, "x"), std::invalid_argument);
  map.insert(id(5), "five");
  EXPECT_THROW(map.insert(id(5), "again"), std::logic_error);
  map.insert(id(7), "seven");
  map.erase(id(5));
  // The window slid past the retired prefix; inserting below it is a
  // contract violation (ids are issued monotonically and never reused).
  EXPECT_THROW(map.insert(id(6), "late"), std::logic_error);
  map.erase(id(7));
  map.insert(id(8), "eight");
  EXPECT_EQ(map.at(id(8), "missing"), "eight");
}

TEST(SlotMap, FreeListReuseKeepsIterationDeterministic) {
  // Two identical runs with interleaved insert/erase churn must visit
  // entries in the same (ascending-id) order, independent of which
  // physical slots the free list hands back.
  const auto run = [] {
    Map map;
    std::vector<std::pair<std::uint32_t, std::string>> visited;
    std::uint32_t next = 0;
    for (int wave = 0; wave < 8; ++wave) {
      for (int k = 0; k < 5; ++k) {
        const std::uint32_t v = next++;
        map.insert(id(v), "s" + std::to_string(v));
      }
      // Erase a scattered subset (out of insertion order).
      map.erase(id(next - 2));
      map.erase(id(next - 5));
      map.for_each_ordered([&](SessionId sid, std::string& value) {
        visited.emplace_back(sid.value(), value);
      });
    }
    return visited;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // And the order really is ascending by id within each sweep.
  Map map;
  map.insert(id(0), "a");
  map.insert(id(1), "b");
  map.insert(id(2), "c");
  map.erase(id(1));
  map.insert(id(3), "d");  // reuses id 1's slot
  std::vector<std::uint32_t> order;
  map.for_each_ordered(
      [&](SessionId sid, std::string&) { order.push_back(sid.value()); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(SlotMap, WindowAndSlotsStayProportionalToActiveSet) {
  Map map;
  // Sequential lifecycle churn: at most 4 concurrent entries while 10'000
  // ids are burned through.  Memory must track the active set, not the
  // total ids issued.
  for (std::uint32_t v = 0; v < 10'000; ++v) {
    map.insert(id(v), "x");
    if (v >= 3) map.erase(id(v - 3));
  }
  EXPECT_EQ(map.size(), 3u);
  EXPECT_LE(map.slot_count(), 8u);
  // The sliding window trims its retired prefix (amortized), so its span
  // stays far below the 10'000 ids issued.
  EXPECT_LE(map.window_span(), 2100u);
  // Draining everything collapses the window entirely.
  map.erase(id(9'997));
  map.erase(id(9'998));
  map.erase(id(9'999));
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.window_span(), 0u);
}

TEST(SlotMap, OrderedWalkSkipsGapsFromSparseIds) {
  Map map;
  map.insert(id(10), "a");
  map.insert(id(40), "b");  // gap in the id space
  map.insert(id(41), "c");
  std::vector<std::uint32_t> order;
  map.for_each_ordered(
      [&](SessionId sid, std::string&) { order.push_back(sid.value()); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{10, 40, 41}));
  EXPECT_FALSE(map.contains(id(25)));
  EXPECT_EQ(map.find(id(25)), nullptr);
}

struct PoolProbe {
  int* live;
  int value;
  PoolProbe(int* live_counter, int v) : live(live_counter), value(v) {
    ++*live;
  }
  ~PoolProbe() { --*live; }
};

TEST(ObjectPool, ReusesCellsAndTracksLiveCount) {
  ObjectPool<PoolProbe> pool;
  int live = 0;
  PoolProbe* first = pool.create(&live, 1);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.chunk_count(), 1u);
  pool.destroy(first);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.live_count(), 0u);

  // The freed cell is recycled: same address, no new chunk.
  PoolProbe* second = pool.create(&live, 2);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.chunk_count(), 1u);
  pool.destroy(second);
}

TEST(ObjectPool, PtrReturnsToPoolAndChunksAmortize) {
  ObjectPool<PoolProbe> pool;
  int live = 0;
  {
    std::vector<ObjectPool<PoolProbe>::Ptr> owned;
    for (int k = 0; k < 600; ++k) {
      owned.push_back(pool.make(&live, k));
    }
    EXPECT_EQ(live, 600);
    EXPECT_EQ(pool.live_count(), 600u);
    // 600 objects at 256 per chunk = 3 chunks, not 600 allocations.
    EXPECT_EQ(pool.chunk_count(), 3u);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.live_count(), 0u);
}

}  // namespace
}  // namespace vod
