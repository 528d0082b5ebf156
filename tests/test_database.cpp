#include "db/database.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"

namespace vod::db {
namespace {

const AdminCredential kAdmin{"secret"};

/// `nodes` servers "s0", "s1", ... in a line of 10 Mbps links.
net::Topology line(std::size_t nodes) {
  net::Topology topology;
  for (std::size_t n = 0; n < nodes; ++n) {
    const NodeId node = topology.add_node("s" + std::to_string(n));
    if (n > 0) topology.add_link(NodeId{node.value() - 1}, node, Mbps{10.0});
  }
  return topology;
}

Database make_db(std::size_t nodes = 0) {
  return Database{kAdmin, line(nodes)};
}

TEST(Database, RejectsEmptyAdminSecret) {
  EXPECT_THROW((Database{AdminCredential{""}, net::Topology{}}),
               std::invalid_argument);
}

TEST(Database, EntriesComeFromTopology) {
  net::Topology topology;
  const NodeId a = topology.add_node("a");
  const NodeId b = topology.add_node("b");
  const NodeId c = topology.add_node("c");
  topology.add_link(a, b, Mbps{2.0});
  topology.add_link(b, c, Mbps{18.0});
  Database db{kAdmin, topology};
  auto limited = db.limited_view(kAdmin);
  for (const NodeId node : {a, b, c}) {
    EXPECT_TRUE(limited.server_online(node));
  }
  for (const net::LinkInfo& info : topology.links()) {
    const LinkRecord& record = limited.link(info.id);
    EXPECT_EQ(record.total_bandwidth, info.capacity);
    EXPECT_EQ(record.used_bandwidth, Mbps{0.0});
    EXPECT_EQ(record.utilization, 0.0);
    EXPECT_EQ(record.last_snmp_update, SimTime{0.0});
    EXPECT_TRUE(record.online);
  }
  // One past the topology, also after it grows: the database never saw it.
  const NodeId d = topology.add_node("d");
  const LinkId cd = topology.add_link(c, d, Mbps{2.0});
  EXPECT_THROW((void)limited.server_online(d), std::out_of_range);
  EXPECT_THROW(limited.set_server_online(d, false), std::out_of_range);
  EXPECT_THROW((void)limited.link(cd), std::out_of_range);
  EXPECT_THROW(limited.set_link_online(cd, false), std::out_of_range);
  EXPECT_THROW((void)limited.stats_age(cd, SimTime{0.0}), std::out_of_range);
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
  Database db = make_db(2);
  const VideoId video = db.register_video("v", MegaBytes{100.0}, Mbps{2.0});
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
  Database db = make_db(1);
  auto limited = db.limited_view(kAdmin);
  EXPECT_THROW(limited.add_title(NodeId{0}, VideoId{9}),
               std::invalid_argument);
  const VideoId video = db.register_video("v", MegaBytes{1.0}, Mbps{1.0});
  EXPECT_THROW(limited.add_title(NodeId{5}, video), std::out_of_range);
}

TEST(LimitedAccess, LinkStatsRoundTrip) {
  Database db = make_db(2);
  auto limited = db.limited_view(kAdmin);
  limited.update_link_stats(LinkId{0}, Mbps{1.82}, 0.91, SimTime{100.0});
  const LinkRecord& record = limited.link(LinkId{0});
  EXPECT_EQ(record.used_bandwidth, Mbps{1.82});
  EXPECT_DOUBLE_EQ(record.utilization, 0.91);
  EXPECT_EQ(record.last_snmp_update, SimTime{100.0});
  EXPECT_EQ(record.total_bandwidth, Mbps{10.0});
}

TEST(LimitedAccess, LinkStatsValidated) {
  Database db = make_db(2);
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
  Database db = make_db(2);
  auto limited = db.limited_view(kAdmin);
  limited.update_link_stats(LinkId{0}, Mbps{1.0}, 0.5, SimTime{100.0});
  EXPECT_DOUBLE_EQ(limited.stats_age(LinkId{0}, SimTime{190.0}), 90.0);
}

TEST(LimitedAccess, ServerOnlineFlag) {
  Database db = make_db(1);
  auto limited = db.limited_view(kAdmin);
  EXPECT_TRUE(limited.server_online(NodeId{0}));
  limited.set_server_online(NodeId{0}, false);
  EXPECT_FALSE(limited.server_online(NodeId{0}));
}

TEST(LimitedAccess, UnknownLookupsThrow) {
  Database db = make_db();
  auto limited = db.limited_view(kAdmin);
  EXPECT_THROW((void)limited.server_online(NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)limited.link(LinkId{0}), std::out_of_range);
  EXPECT_THROW((void)limited.stats_age(LinkId{0}, SimTime{0.0}),
               std::out_of_range);
}

TEST(ChangeEpoch, LinkWritesBumpLinkEpochAndStampRecord) {
  Database db = make_db(3);
  auto view = db.limited_view(kAdmin);
  EXPECT_EQ(view.links_changed_epoch(), 0u);

  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{1.0});
  EXPECT_EQ(view.links_changed_epoch(), 1u);
  EXPECT_EQ(view.link(LinkId{0}).used_bandwidth, Mbps{3.0});
  EXPECT_EQ(view.link(LinkId{0}).last_snmp_update, SimTime{1.0});
  EXPECT_EQ(view.link(LinkId{1}).last_snmp_update, SimTime{0.0});

  view.set_link_online(LinkId{1}, false);
  EXPECT_EQ(view.links_changed_epoch(), 2u);
  EXPECT_FALSE(view.link(LinkId{1}).online);
}

TEST(ChangeEpoch, IdenticalSnmpSampleIsNotAChange) {
  Database db = make_db(2);
  auto view = db.limited_view(kAdmin);
  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{1.0});
  const std::uint64_t epoch = view.links_changed_epoch();
  // Same counters, later timestamp: the staleness clock moves, the epoch
  // does not.
  view.update_link_stats(LinkId{0}, Mbps{3.0}, 0.3, SimTime{2.0});
  EXPECT_EQ(view.links_changed_epoch(), epoch);
  EXPECT_DOUBLE_EQ(view.stats_age(LinkId{0}, SimTime{3.0}), 1.0);
  view.set_link_online(LinkId{0}, true);  // already online
  EXPECT_EQ(view.links_changed_epoch(), epoch);
}

TEST(ChangeEpoch, CatalogAndServerWritesLeaveLinkEpoch) {
  Database db = make_db(1);
  const VideoId movie = db.register_video("m", MegaBytes{10.0}, Mbps{2.0});
  auto view = db.limited_view(kAdmin);
  view.add_title(NodeId{0}, movie);
  view.remove_title(NodeId{0}, movie);
  view.set_server_online(NodeId{0}, false);
  EXPECT_FALSE(view.server_online(NodeId{0}));
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
  Database db = make_db(8);
  // Holders touched out of id order: the index must still be ascending.
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
    if (rng.uniform() < 0.55) {
      double_adds += held ? 1 : 0;
      limited.add_title(node, video);
      oracle[node].insert(video);
    } else {
      absent_removes += held ? 0 : 1;
      limited.remove_title(node, video);
      oracle[node].erase(video);
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
