#include "common/ids.h"

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>
#include <unordered_set>

namespace vod {
namespace {

TEST(TaggedId, DefaultConstructedIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
}

TEST(TaggedId, ExplicitValueIsValid) {
  NodeId id{0};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(TaggedId, LargeValuesRemainValid) {
  NodeId id{4'000'000'000u};
  EXPECT_TRUE(id.valid());
}

TEST(TaggedId, EqualityComparesValues) {
  EXPECT_EQ(NodeId{3}, NodeId{3});
  EXPECT_NE(NodeId{3}, NodeId{4});
}

TEST(TaggedId, DefaultIdsCompareEqual) {
  EXPECT_EQ(NodeId{}, NodeId{});
}

TEST(TaggedId, OrderingFollowsValues) {
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_GT(NodeId{5}, NodeId{2});
}

TEST(TaggedId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, LinkId>);
  static_assert(!std::is_same_v<VideoId, SessionId>);
  static_assert(!std::is_convertible_v<NodeId, LinkId>);
}

TEST(TaggedId, HashWorksInUnorderedContainers) {
  std::unordered_set<VideoId> set;
  set.insert(VideoId{1});
  set.insert(VideoId{2});
  set.insert(VideoId{1});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(VideoId{2}));
  EXPECT_FALSE(set.contains(VideoId{3}));
}

TEST(TaggedId, StreamPrintsValue) {
  std::ostringstream os;
  os << LinkId{42};
  EXPECT_EQ(os.str(), "42");
}

TEST(TaggedId, StreamPrintsInvalidMarker) {
  std::ostringstream os;
  os << LinkId{};
  EXPECT_EQ(os.str(), "<invalid>");
}

}  // namespace
}  // namespace vod
