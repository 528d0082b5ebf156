// Ablation: prebuffer depth — startup delay vs rebuffer immunity.
//
// The paper requires "constant playback of the video between cluster
// requests" but never says how much to buffer before starting.  This
// bench sweeps the prebuffer (in clusters) for a title whose bitrate sits
// close to the bottleneck bandwidth, exposing the classic trade-off.
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/table.h"
#include "net/transfer.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"

using namespace vod;

namespace {

struct Outcome {
  double startup = 0.0;
  double rebuffer_seconds = 0.0;
  int rebuffer_events = 0;
  double playback_end = 0.0;
};

Outcome run(std::size_t prebuffer_clusters) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};
  net::TransferManager transfers{sim, network};

  db::Database db{bench::kAdmin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin), Duration{90.0}};
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  // 1.6 Mbps title over ~2 Mbps links that carry shifting background
  // traffic: right at the edge of sustainable.
  const VideoId movie =
      db.register_video("edge-case", MegaBytes{300.0}, Mbps{1.7});
  // A single holder: no alternative source, so the 10am squeeze must be
  // ridden out by the buffer.
  auto view = db.limited_view(bench::kAdmin);
  view.add_title(g.ioannina, movie);

  vra::Vra vra{g.topology, db.full_view(), db.limited_view(bench::kAdmin),
               {}};
  stream::VraPolicy policy{vra, 0.5};
  stream::SessionOptions options;
  options.prebuffer_clusters = prebuffer_clusters;

  std::unique_ptr<stream::Session> session;
  sim.schedule_at(from_hours(9.92), [&](SimTime) {
    session = std::make_unique<stream::Session>(
        sim, transfers, policy, *db.full_view().video(movie), g.athens,
        MegaBytes{20.0}, options);
    session->start();
  });
  sim.run_until(from_hours(24.0));
  snmp.stop();

  const stream::SessionMetrics& m = session->metrics();
  Outcome outcome;
  outcome.startup = m.startup_delay();
  outcome.rebuffer_seconds = m.rebuffer_seconds;
  outcome.rebuffer_events = m.rebuffer_events;
  if (m.playback_finished_at) {
    outcome.playback_end =
        *m.playback_finished_at - m.requested_at;
  }
  return outcome;
}

}  // namespace

int main() {
  bench::heading("Ablation: prebuffer depth (clusters held before play)");
  std::cout << "300 MB @1.7 Mbps from Athens at 9:55am, 20 MB clusters, "
               "single copy at Ioannina;\nthe 10am step squeezes the "
               "chosen route mid-stream.\n\n";

  TextTable table{{"Prebuffer", "startup (s)", "rebuffer events",
                   "rebuffer (s)", "viewer done at (s)"}};
  for (const std::size_t prebuffer : {1u, 2u, 3u, 5u, 8u, 15u}) {
    const Outcome o = run(prebuffer);
    table.add_row({std::to_string(prebuffer) + " clusters",
                   TextTable::num(o.startup, 0),
                   std::to_string(o.rebuffer_events),
                   TextTable::num(o.rebuffer_seconds, 0),
                   TextTable::num(o.playback_end, 0)});
  }
  std::cout << table.render();
  std::cout << "\nObserved shape: when the network cannot sustain the "
               "bitrate, prebuffer depth\nconverts rebuffer time into "
               "startup time roughly one for one — the viewer\nfinishes "
               "at the same instant regardless (the stream is download-"
               "bound) until\nfull prebuffer overshoots.  Buffering "
               "cannot create bandwidth; it only picks\nwhere the "
               "waiting happens.  Shallow buffers + re-routing (the "
               "paper's answer)\nbeat deep buffers here.\n";
  return 0;
}
