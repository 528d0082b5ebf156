// Server-selection policy comparison — the evaluation the paper argues
// qualitatively ("faster, at every moment") but never measures.
//
// A day of Zipf requests is replayed on the GRNET backbone under the Table
// 2 background traffic, once per policy: the paper's VRA (re-evaluated per
// cluster), VRA-once (no mid-stream re-routing), nearest-by-hops, and
// random holder.  Reported per policy: mean download time, mean startup
// delay, rebuffer time, server switches, and failures.
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/selection_baselines.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "net/transfer.h"
#include "snmp/snmp_module.h"
#include "stream/session.h"
#include "workload/request_gen.h"

using namespace vod;

namespace {

struct RunResult {
  double mean_download = 0.0;
  double mean_startup = 0.0;
  double rebuffer_seconds = 0.0;
  int switches = 0;
  int failures = 0;
  int completed = 0;
};

enum class PolicyKind { kVra, kVraHysteresis, kVraSelfAccounting, kVraOnce, kNearest, kRandom };

const char* kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kVra:
      return "VRA (per-cluster)";
    case PolicyKind::kVraHysteresis:
      return "VRA + 50% hysteresis";
    case PolicyKind::kVraSelfAccounting:
      return "VRA, bg-only SNMP";
    case PolicyKind::kVraOnce:
      return "VRA once (static)";
    case PolicyKind::kNearest:
      return "nearest-by-hops";
    case PolicyKind::kRandom:
      return "random holder";
  }
  return "?";
}

RunResult run_policy(PolicyKind kind) {
  const grnet::CaseStudy g = grnet::build_case_study();
  const net::TraceTraffic trace = grnet::table2_trace(g);
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, trace};
  net::TransferManager transfers{sim, network};

  db::Database db{bench::kAdmin, g.topology};
  snmp::SnmpModule snmp{sim, network, db.limited_view(bench::kAdmin), Duration{90.0}};
  // The self-accounting variant reports only background traffic, removing
  // the own-flow feedback that makes the plain per-cluster VRA oscillate.
  if (kind == PolicyKind::kVraSelfAccounting) {
    snmp.set_count_vod_flows(false);
  }
  snmp.poll_now(SimTime{0.0});
  snmp.start();

  // Catalog: 20 titles, each replicated on two servers spread round-robin.
  std::vector<VideoId> videos;
  std::vector<db::VideoInfo> infos;
  auto limited = db.limited_view(bench::kAdmin);
  for (int v = 0; v < 20; ++v) {
    const VideoId id = db.register_video("t" + std::to_string(v),
                                         MegaBytes{100.0}, Mbps{1.5});
    videos.push_back(id);
    infos.push_back(*db.full_view().video(id));
    limited.add_title(NodeId{static_cast<NodeId::underlying_type>(v % 6)},
                      id);
    limited.add_title(
        NodeId{static_cast<NodeId::underlying_type>((v + 3) % 6)}, id);
  }

  // The policy under test.
  vra::Vra vra{g.topology, db.full_view(), db.limited_view(bench::kAdmin),
               {}};
  stream::VraPolicy vra_policy{vra};
  stream::VraPolicy vra_hysteresis{vra, 0.5};
  baselines::StaticOncePolicy vra_once{vra_policy};
  baselines::NearestByHopsPolicy nearest{g.topology, db.full_view(),
                                         db.limited_view(bench::kAdmin)};
  baselines::RandomHolderPolicy random{g.topology, db.full_view(),
                                       db.limited_view(bench::kAdmin),
                                       Rng{99}};
  stream::ServerSelectionPolicy* policy = nullptr;
  switch (kind) {
    case PolicyKind::kVra:
      policy = &vra_policy;
      break;
    case PolicyKind::kVraHysteresis:
      policy = &vra_hysteresis;
      break;
    case PolicyKind::kVraSelfAccounting:
      policy = &vra_policy;
      break;
    case PolicyKind::kVraOnce:
      policy = &vra_once;
      break;
    case PolicyKind::kNearest:
      policy = &nearest;
      break;
    case PolicyKind::kRandom:
      policy = &random;
      break;
  }

  // 30 requests between 8am and 6pm, same schedule for every policy.
  std::vector<NodeId> homes;
  for (std::size_t n = 0; n < 6; ++n) {
    homes.push_back(NodeId{static_cast<NodeId::underlying_type>(n)});
  }
  workload::RequestGenerator gen{videos, 1.0, homes};
  Rng rng{7};
  const auto requests =
      gen.generate_count(from_hours(8.0), hours(10.0), 30, rng);

  std::vector<std::unique_ptr<stream::Session>> sessions;
  for (const workload::Request& request : requests) {
    sim.schedule_at(request.at, [&, request](SimTime) {
      auto session = std::make_unique<stream::Session>(
          sim, transfers, *policy, infos[request.video.value()],
          request.home, MegaBytes{25.0});
      session->start();
      sessions.push_back(std::move(session));
    });
  }
  sim.run_until(from_hours(40.0));
  snmp.stop();

  RunResult result;
  for (const auto& session : sessions) {
    const stream::SessionMetrics& m = session->metrics();
    if (m.failed || !m.finished) {
      ++result.failures;
      continue;
    }
    ++result.completed;
    result.mean_download +=
        *m.download_completed_at - m.requested_at;
    result.mean_startup += m.startup_delay();
    result.rebuffer_seconds += m.rebuffer_seconds;
    result.switches += m.server_switches;
  }
  if (result.completed > 0) {
    result.mean_download /= result.completed;
    result.mean_startup /= result.completed;
  }
  return result;
}

}  // namespace

int main() {
  bench::heading(
      "Policy comparison: VRA vs baselines (GRNET day, 30 sessions)");
  std::cout << "20 titles x 100 MB @1.5 Mbps, 2 replicas each, cluster 25 "
               "MB, Table 2 background traffic\n\n";

  TextTable table{{"Policy", "mean DL (s)", "mean startup (s)",
                   "rebuffer (s)", "switches", "failures"}};
  for (const PolicyKind kind :
       {PolicyKind::kVra, PolicyKind::kVraHysteresis,
        PolicyKind::kVraSelfAccounting, PolicyKind::kVraOnce,
        PolicyKind::kNearest, PolicyKind::kRandom}) {
    const RunResult r = run_policy(kind);
    table.add_row({kind_name(kind), TextTable::num(r.mean_download, 1),
                   TextTable::num(r.mean_startup, 1),
                   TextTable::num(r.rebuffer_seconds, 1),
                   std::to_string(r.switches),
                   std::to_string(r.failures)});
  }
  std::cout << table.render();
  std::cout << "\nExpected shape: the VRA family beats random selection "
               "outright.  Because the\nSNMP counters include a session's "
               "own flow, the zero-hysteresis per-cluster\nVRA (the "
               "paper's exact algorithm) oscillates between replicas and "
               "pays for it;\na small switch margin recovers the benefit "
               "of re-evaluation (see also the\ncluster-size ablation, "
               "where re-routing wins under mid-day congestion steps).\n";
  return 0;
}
