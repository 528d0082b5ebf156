// Property tests over the session playback model: for random video
// geometries, bandwidths and pause patterns, the reconstructed playback
// timeline must satisfy its defining identities.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/transfer.h"
#include "stream/session.h"

namespace vod::stream {
namespace {

class FixedPolicy final : public ServerSelectionPolicy {
 public:
  FixedPolicy(NodeId client, NodeId server, LinkId link)
      : client_(client), server_(server), link_(link) {}
  std::optional<Selection> select(NodeId, VideoId) override {
    return Selection{server_,
                     routing::make_route({{client_, server_}, {link_}, 1.0})};
  }
  const char* name() const override { return "fixed"; }

 private:
  NodeId client_, server_;
  LinkId link_;
};

class SessionPlaybackProperty : public ::testing::TestWithParam<int> {};

TEST_P(SessionPlaybackProperty, TimelineIdentitiesHold) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};

  net::Topology topo;
  const NodeId server = topo.add_node("server");
  const NodeId client = topo.add_node("client");
  const double link_mbps = rng.uniform(1.0, 20.0);
  const LinkId link = topo.add_link(server, client, Mbps{link_mbps});
  net::NoTraffic traffic;
  net::FluidNetwork network{topo, traffic};
  sim::Simulation sim;
  net::TransferManager transfers{sim, network};
  FixedPolicy policy{client, server, link};

  const double size_mb = rng.uniform(20.0, 200.0);
  const double bitrate = rng.uniform(0.5, 8.0);
  const double cluster_mb = rng.uniform(5.0, 60.0);
  const db::VideoInfo video{VideoId{0}, "v", MegaBytes{size_mb},
                            Mbps{bitrate}};
  SessionOptions options;
  options.prebuffer_clusters =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  Session session{sim,    transfers, policy, video, client,
                  MegaBytes{cluster_mb}, options};
  session.start();

  // A couple of random (possibly overlapping-with-end) pauses.
  const int pause_count = static_cast<int>(rng.uniform_int(0, 2));
  double cursor = rng.uniform(1.0, 50.0);
  for (int p = 0; p < pause_count; ++p) {
    const double pause_at = cursor;
    const double resume_at = pause_at + rng.uniform(1.0, 60.0);
    cursor = resume_at + rng.uniform(1.0, 30.0);
    sim.schedule_at(SimTime{pause_at},
                    [&](SimTime) { session.pause(); });
    sim.schedule_at(SimTime{resume_at},
                    [&](SimTime) { session.resume(); });
  }

  sim.run_until(from_hours(10.0));
  const SessionMetrics& m = session.metrics();
  ASSERT_TRUE(m.finished);

  // Identity 1: the download moved all bytes; completion matches rate.
  const double download_span = *m.download_completed_at - m.requested_at;
  const double effective_rate =
      std::min(link_mbps, kFlowCap.value());
  EXPECT_NEAR(download_span, size_mb * 8.0 / effective_rate, 1e-6);

  // Identity 2: cluster completions are non-decreasing and the last one is
  // the download completion.
  ASSERT_FALSE(m.cluster_completed.empty());
  EXPECT_EQ(m.cluster_completed.back(), *m.download_completed_at);

  // Identity 3: playback wall time = content duration + rebuffer + pauses
  // that fell inside the playback window.
  ASSERT_TRUE(m.playback_started_at && m.playback_finished_at);
  const double wall =
      *m.playback_finished_at - *m.playback_started_at;
  const double content = size_mb * 8.0 / bitrate;
  double paused_inside = 0.0;
  for (const auto& [from, to] : m.pauses) {
    const double lo =
        std::max(from.seconds(), m.playback_started_at->seconds());
    const double hi =
        std::min(to.seconds(), m.playback_finished_at->seconds());
    paused_inside += std::max(0.0, hi - lo);
  }
  EXPECT_NEAR(wall, content + m.rebuffer_seconds + paused_inside, 1e-6)
      << "seed " << GetParam();

  // Identity 4: playback never starts before the prebuffer is in.
  const std::size_t prebuffer =
      std::min(options.prebuffer_clusters, session.cluster_count());
  EXPECT_GE(m.playback_started_at->seconds(),
            m.cluster_completed[prebuffer - 1].seconds() - 1e-9);

  // Identity 5: rebuffering only happens when the stream cannot keep up;
  // with bitrate below the delivered rate and no mid-window pauses the
  // session is smooth.
  if (bitrate < effective_rate && m.pauses.empty()) {
    EXPECT_EQ(m.rebuffer_events, 0);
  }
  EXPECT_GE(m.rebuffer_seconds, -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionPlaybackProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace vod::stream
