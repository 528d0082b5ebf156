#include "db/database.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace vod::db {
namespace {

const AdminCredential kAdmin{"secret"};

Database make_db() {
  Database db{kAdmin};
  return db;
}

TEST(Database, RejectsEmptyAdminSecret) {
  EXPECT_THROW(Database{AdminCredential{""}}, std::invalid_argument);
}

TEST(Database, RegisterVideoAssignsSequentialIds) {
  Database db = make_db();
  const VideoId a = db.register_video("a", MegaBytes{100.0}, Mbps{2.0});
  const VideoId b = db.register_video("b", MegaBytes{100.0}, Mbps{2.0});
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
}

TEST(Database, RegisterVideoValidatesInput) {
  Database db = make_db();
  EXPECT_THROW(db.register_video("", MegaBytes{1.0}, Mbps{1.0}),
               std::invalid_argument);
  EXPECT_THROW(db.register_video("x", MegaBytes{0.0}, Mbps{1.0}),
               std::invalid_argument);
  EXPECT_THROW(db.register_video("x", MegaBytes{1.0}, Mbps{0.0}),
               std::invalid_argument);
}

TEST(Database, LimitedViewRequiresCredential) {
  Database db = make_db();
  EXPECT_NO_THROW(db.limited_view(kAdmin));
  EXPECT_THROW(db.limited_view(AdminCredential{"wrong"}),
               std::invalid_argument);
}

TEST(Database, DuplicateServerRejected) {
  Database db = make_db();
  db.register_server(NodeId{0}, "a", {});
  EXPECT_THROW(db.register_server(NodeId{0}, "a", {}),
               std::invalid_argument);
}

TEST(Database, DuplicateLinkRejected) {
  Database db = make_db();
  db.register_link(LinkId{0}, "l", Mbps{2.0});
  EXPECT_THROW(db.register_link(LinkId{0}, "l", Mbps{2.0}),
               std::invalid_argument);
}

TEST(Database, LinkNeedsPositiveBandwidth) {
  Database db = make_db();
  EXPECT_THROW(db.register_link(LinkId{0}, "l", Mbps{0.0}),
               std::invalid_argument);
}

TEST(FullAccess, ListAndLookup) {
  Database db = make_db();
  const VideoId id = db.register_video("casablanca", MegaBytes{700.0},
                                       Mbps{1.5});
  const FullAccessView view = db.full_view();
  EXPECT_EQ(view.video_count(), 1u);
  ASSERT_TRUE(view.video(id).has_value());
  EXPECT_EQ(view.video(id)->title, "casablanca");
  EXPECT_FALSE(view.video(VideoId{9}).has_value());
}

TEST(FullAccess, FindByTitle) {
  Database db = make_db();
  db.register_video("casablanca", MegaBytes{700.0}, Mbps{1.5});
  const FullAccessView view = db.full_view();
  ASSERT_TRUE(view.find_by_title("casablanca").has_value());
  EXPECT_FALSE(view.find_by_title("vertigo").has_value());
}

TEST(FullAccess, SubstringSearch) {
  Database db = make_db();
  db.register_video("the godfather", MegaBytes{900.0}, Mbps{2.0});
  db.register_video("the godfather II", MegaBytes{950.0}, Mbps{2.0});
  db.register_video("jaws", MegaBytes{800.0}, Mbps{2.0});
  const FullAccessView view = db.full_view();
  EXPECT_EQ(view.search("godfather").size(), 2u);
  EXPECT_EQ(view.search("jaws").size(), 1u);
  EXPECT_TRUE(view.search("alien").empty());
}

TEST(FullAccess, ServersWithTitleFollowsPlacement) {
  Database db = make_db();
  const VideoId video = db.register_video("v", MegaBytes{100.0}, Mbps{2.0});
  db.register_server(NodeId{0}, "a", {});
  db.register_server(NodeId{1}, "b", {});
  auto limited = db.limited_view(kAdmin);
  limited.add_title(NodeId{1}, video);
  EXPECT_EQ(db.full_view().servers_with_title(video),
            std::vector<NodeId>{NodeId{1}});
  limited.add_title(NodeId{0}, video);
  EXPECT_EQ(db.full_view().servers_with_title(video).size(), 2u);
  limited.remove_title(NodeId{1}, video);
  EXPECT_EQ(db.full_view().servers_with_title(video),
            std::vector<NodeId>{NodeId{0}});
}

TEST(LimitedAccess, AddTitleValidatesVideoAndServer) {
  Database db = make_db();
  db.register_server(NodeId{0}, "a", {});
  auto limited = db.limited_view(kAdmin);
  EXPECT_THROW(limited.add_title(NodeId{0}, VideoId{9}),
               std::invalid_argument);
  const VideoId video = db.register_video("v", MegaBytes{1.0}, Mbps{1.0});
  EXPECT_THROW(limited.add_title(NodeId{5}, video), std::out_of_range);
}

TEST(LimitedAccess, LinkStatsRoundTrip) {
  Database db = make_db();
  db.register_link(LinkId{0}, "Patra-Athens", Mbps{2.0});
  auto limited = db.limited_view(kAdmin);
  limited.update_link_stats(LinkId{0}, Mbps{1.82}, 0.91, SimTime{100.0});
  const LinkRecord& record = limited.link(LinkId{0});
  EXPECT_EQ(record.used_bandwidth, Mbps{1.82});
  EXPECT_DOUBLE_EQ(record.utilization, 0.91);
  EXPECT_EQ(record.last_snmp_update, SimTime{100.0});
  EXPECT_EQ(record.total_bandwidth, Mbps{2.0});
}

TEST(LimitedAccess, LinkStatsValidated) {
  Database db = make_db();
  db.register_link(LinkId{0}, "l", Mbps{2.0});
  auto limited = db.limited_view(kAdmin);
  EXPECT_THROW(
      limited.update_link_stats(LinkId{0}, Mbps{-1.0}, 0.5, SimTime{0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      limited.update_link_stats(LinkId{0}, Mbps{1.0}, 1.5, SimTime{0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      limited.update_link_stats(LinkId{7}, Mbps{1.0}, 0.5, SimTime{0.0}),
      std::out_of_range);
}

TEST(LimitedAccess, StatsAge) {
  Database db = make_db();
  db.register_link(LinkId{0}, "l", Mbps{2.0});
  auto limited = db.limited_view(kAdmin);
  limited.update_link_stats(LinkId{0}, Mbps{1.0}, 0.5, SimTime{100.0});
  EXPECT_DOUBLE_EQ(limited.stats_age(LinkId{0}, SimTime{190.0}), 90.0);
}

TEST(LimitedAccess, ServerConfigAndOnlineFlag) {
  Database db = make_db();
  ServerConfig config;
  config.disk_count = 4;
  config.disk_capacity = MegaBytes{9000.0};
  db.register_server(NodeId{0}, "athens", config);
  auto limited = db.limited_view(kAdmin);
  EXPECT_EQ(limited.server(NodeId{0}).config.disk_count, 4);
  EXPECT_TRUE(limited.server(NodeId{0}).online);
  limited.set_server_online(NodeId{0}, false);
  EXPECT_FALSE(limited.server(NodeId{0}).online);
}

TEST(LimitedAccess, RecordsResolveByIdWithGaps) {
  Database db = make_db();
  db.register_server(NodeId{4}, "e", {});
  db.register_server(NodeId{0}, "a", {});
  db.register_link(LinkId{2}, "l2", Mbps{2.0});
  auto limited = db.limited_view(kAdmin);
  EXPECT_EQ(limited.server(NodeId{4}).name, "e");
  EXPECT_EQ(limited.server(NodeId{0}).name, "a");
  EXPECT_EQ(limited.link(LinkId{2}).name, "l2");
  EXPECT_THROW((void)limited.server(NodeId{2}), std::out_of_range);
  EXPECT_THROW((void)limited.link(LinkId{0}), std::out_of_range);
}

TEST(LimitedAccess, UnknownLookupsThrow) {
  Database db = make_db();
  auto limited = db.limited_view(kAdmin);
  EXPECT_THROW((void)limited.server(NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)limited.link(LinkId{0}), std::out_of_range);
  EXPECT_THROW((void)limited.stats_age(LinkId{0}, SimTime{0.0}),
               std::out_of_range);
}

TEST(ChangeEpoch, LinkWritesBumpLinkEpochAndStampRecord) {
  Database db = make_db();
  db.register_link(LinkId{0}, "l0", Mbps{10.0});
  db.register_link(LinkId{1}, "l1", Mbps{10.0});
  auto view = db.limited_view(kAdmin);
  EXPECT_EQ(view.change_epoch(), 0u);
  EXPECT_EQ(view.links_changed_epoch(), 0u);

  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{1.0});
  EXPECT_EQ(view.change_epoch(), 1u);
  EXPECT_EQ(view.links_changed_epoch(), 1u);
  EXPECT_EQ(view.link(LinkId{0}).last_changed_epoch, 1u);
  EXPECT_EQ(view.link(LinkId{1}).last_changed_epoch, 0u);

  view.set_link_online(LinkId{1}, false);
  EXPECT_EQ(view.links_changed_epoch(), 2u);
  EXPECT_EQ(view.link(LinkId{1}).last_changed_epoch, 2u);
}

TEST(ChangeEpoch, IdenticalSnmpSampleIsNotAChange) {
  Database db = make_db();
  db.register_link(LinkId{0}, "l0", Mbps{10.0});
  auto view = db.limited_view(kAdmin);
  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{1.0});
  const std::uint64_t epoch = view.change_epoch();
  // Same counters, later timestamp: the staleness clock moves, the epoch
  // does not.
  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{2.0});
  EXPECT_EQ(view.change_epoch(), epoch);
  EXPECT_DOUBLE_EQ(view.stats_age(LinkId{0}, SimTime{3.0}), 1.0);
  view.set_link_online(LinkId{0}, true);  // already online
  EXPECT_EQ(view.change_epoch(), epoch);
}

TEST(ChangeEpoch, CatalogWritesBumpGlobalButNotLinkEpoch) {
  Database db = make_db();
  db.register_server(NodeId{0}, "a", {});
  const VideoId movie = db.register_video("m", MegaBytes{10.0}, Mbps{2.0});
  auto view = db.limited_view(kAdmin);
  view.add_title(NodeId{0}, movie);
  EXPECT_EQ(view.change_epoch(), 1u);
  EXPECT_EQ(view.links_changed_epoch(), 0u);
  view.add_title(NodeId{0}, movie);  // already held: no-op
  EXPECT_EQ(view.change_epoch(), 1u);
  view.remove_title(NodeId{0}, movie);
  EXPECT_EQ(view.change_epoch(), 2u);
  view.remove_title(NodeId{0}, movie);  // already gone: no-op
  EXPECT_EQ(view.change_epoch(), 2u);
  view.set_server_online(NodeId{0}, false);
  EXPECT_EQ(view.change_epoch(), 3u);
  view.set_server_online(NodeId{0}, false);  // unchanged: no-op
  EXPECT_EQ(view.change_epoch(), 3u);
  EXPECT_EQ(view.links_changed_epoch(), 0u);
}

// --- Differential: the holder index against the per-server scan ---

/// The oracle: a per-server title set, kept beside the database by the
/// test itself.
using TitleSets = std::map<NodeId, std::set<VideoId>>;

/// What servers_with_title must return: the servers whose oracle title
/// set holds `video`, in ascending node id.
std::vector<NodeId> scan_holders(const TitleSets& oracle, VideoId video) {
  std::vector<NodeId> out;
  for (const auto& [node, titles] : oracle) {
    if (titles.contains(video)) out.push_back(node);
  }
  return out;
}

class HolderIndexDifferential : public ::testing::TestWithParam<int> {};

TEST_P(HolderIndexDifferential, ServersWithTitleMatchesScan) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  Database db = make_db();
  // Servers registered out of id order: the index must still be ascending.
  for (const std::uint32_t node : {4u, 0u, 7u, 2u, 5u, 1u}) {
    db.register_server(NodeId{node}, "s" + std::to_string(node), {});
  }
  const std::vector<NodeId> nodes{NodeId{0}, NodeId{1}, NodeId{2},
                                  NodeId{4}, NodeId{5}, NodeId{7}};
  std::vector<VideoId> videos;
  for (int v = 0; v < 8; ++v) {
    videos.push_back(
        db.register_video("v" + std::to_string(v), MegaBytes{1.0}, Mbps{1.0}));
  }
  auto limited = db.limited_view(kAdmin);
  const FullAccessView view = db.full_view();
  TitleSets oracle;
  int double_adds = 0;
  int absent_removes = 0;
  for (int step = 0; step < 400; ++step) {
    const NodeId node = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    const VideoId video = videos[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(videos.size()) - 1))];
    const bool held = oracle[node].contains(video);
    const std::uint64_t epoch = db.change_epoch();
    if (rng.uniform() < 0.55) {
      double_adds += held ? 1 : 0;
      limited.add_title(node, video);
      oracle[node].insert(video);
      EXPECT_EQ(db.change_epoch(), held ? epoch : epoch + 1);
    } else {
      absent_removes += held ? 0 : 1;
      limited.remove_title(node, video);
      oracle[node].erase(video);
      EXPECT_EQ(db.change_epoch(), held ? epoch + 1 : epoch);
    }
    for (const VideoId v : videos) {
      ASSERT_EQ(view.servers_with_title(v), scan_holders(oracle, v))
          << "seed " << GetParam() << " step " << step << " video " << v;
    }
  }
  EXPECT_GT(double_adds, 0);
  EXPECT_GT(absent_removes, 0);
  EXPECT_TRUE(view.servers_with_title(VideoId{99}).empty());
  EXPECT_TRUE(view.servers_with_title(VideoId{}).empty());
  EXPECT_FALSE(view.has_video(VideoId{8}));
  EXPECT_TRUE(view.has_video(videos.back()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HolderIndexDifferential,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace vod::db
