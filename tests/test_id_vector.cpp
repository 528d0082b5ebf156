#include "common/id_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace vod {
namespace {

TEST(IdVector, InsertsOutOfOrderWithGaps) {
  IdVector<NodeId, std::string> table;
  table.insert(NodeId{4}, "four");
  table.insert(NodeId{0}, "zero");
  table.insert(NodeId{7}, "seven");
  EXPECT_TRUE(table.contains(NodeId{0}));
  EXPECT_TRUE(table.contains(NodeId{4}));
  EXPECT_TRUE(table.contains(NodeId{7}));
  EXPECT_FALSE(table.contains(NodeId{1}));
  EXPECT_FALSE(table.contains(NodeId{8}));
  EXPECT_FALSE(table.contains(NodeId{}));
  ASSERT_NE(table.find(NodeId{4}), nullptr);
  EXPECT_EQ(*table.find(NodeId{4}), "four");
  EXPECT_EQ(table.find(NodeId{5}), nullptr);
  EXPECT_EQ(table.at(NodeId{7}, "seven"), "seven");
}

TEST(IdVector, DuplicateOrInvalidInsertThrows) {
  IdVector<LinkId, int> table;
  table.insert(LinkId{2}, 1);
  EXPECT_THROW(table.insert(LinkId{2}, 5), std::invalid_argument);
  EXPECT_THROW(table.insert(LinkId{}, 5), std::invalid_argument);
  EXPECT_EQ(table.at(LinkId{2}, "link"), 1);
}

TEST(IdVector, AtAbsentOrOutOfRangeThrows) {
  IdVector<VideoId, int> table;
  EXPECT_THROW((void)table.at(VideoId{0}, "empty"), std::out_of_range);
  table.insert(VideoId{3}, 9);
  EXPECT_THROW((void)table.at(VideoId{1}, "gap"), std::out_of_range);
  EXPECT_THROW((void)table.at(VideoId{40}, "past the end"),
               std::out_of_range);
  EXPECT_THROW((void)table.at(VideoId{}, "invalid"), std::out_of_range);
  const IdVector<VideoId, int>& view = table;
  EXPECT_THROW((void)view.at(VideoId{2}, "const gap"), std::out_of_range);
  EXPECT_EQ(view.at(VideoId{3}, "present"), 9);
}

TEST(IdVector, WalkIsAscendingAndSkipsGaps) {
  IdVector<NodeId, int> table;
  for (const std::uint32_t id : {5u, 1u, 9u, 3u}) {
    table.insert(NodeId{id}, static_cast<int>(10 * id));
  }
  std::vector<std::pair<NodeId, int>> seen;
  const IdVector<NodeId, int>& view = table;
  view.for_each([&](NodeId id, const int& value) {
    seen.emplace_back(id, value);
  });
  const std::vector<std::pair<NodeId, int>> expected{
      {NodeId{1}, 10}, {NodeId{3}, 30}, {NodeId{5}, 50}, {NodeId{9}, 90}};
  EXPECT_EQ(seen, expected);
  ++table.at(NodeId{9}, "nine");
  EXPECT_EQ(view.at(NodeId{9}, "nine"), 91);
}

}  // namespace
}  // namespace vod
