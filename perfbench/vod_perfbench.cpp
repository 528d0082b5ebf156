// vod_perfbench: the end-to-end benchmark of the whole service.
//
// Builds a real service::VodService and drives it from outside, through its
// public API only.  The DMA, the per-cluster VRA, SNMP polling, the fluid
// network, transfers and sessions all run as they do in the service; one
// workload adds a fault storm and QoS classes.  Every workload is open loop
// in simulated time: independent users arrive as a Poisson stream drawn
// from --seed, and only the next arrival is ever pending in the event queue.
//
//   vod_perfbench --workload backbone|home_local|storm_qos --seed N
//                 --seconds S --trace 0|1
//
// One repetition sets up (topology, catalog, placement, generated inputs),
// runs until every request has resolved and checks the outputs.
// Repetitions of the same inputs repeat for S wall seconds.  Host metrics
// are medians over them; simulated metrics must be identical across them.
//
// --trace 0 measures with every probe off and reports the end-to-end
// metrics.  --trace 1 alternates untraced and traced repetitions: a traced
// one enables obs::Profiler's sites plus this driver's spans around every
// request call and every run_until slice, and reports the per-layer metrics
// and a self-time table whose rows sum to the traced run phase.
//
// The last line of stdout is the JSON result.  The exit code is non-zero
// when any output check fails.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fault/fault_injector.h"
#include "net/fluid.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "obs/profile.h"
#include "service/vod_service.h"
#include "sim/simulation.h"
#include "workload/zipf.h"

using namespace vod;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

const db::AdminCredential kAdmin{"perfbench-admin"};

/// The run loop advances the simulation one simulated minute at a time; the
/// per-slice samples and wall times are taken at these boundaries.
constexpr double kSliceSeconds = 60.0;
/// A run that has not resolved every request this long after the arrival
/// window is stuck, not slow: it fails the checks.
constexpr double kDrainLimitSeconds = 12.0 * 3600.0;
/// p99 must have at least ten samples beyond it.
constexpr std::size_t kMinStartupSamples = 1000;

struct Workload {
  std::string_view name;
  std::size_t requests;
  double arrival_window_s;
  std::size_t titles;
  /// Every title on every edge: each request is a home DMA hit streamed
  /// over a pathless local flow.
  bool all_local;
  /// Seeded link/server fault storm, QoS classes through request_classed,
  /// and service retries.
  bool storm;
};

// Sizes keep each workload below its saturation knee (see README.md).
constexpr std::array<Workload, 3> kWorkloads{{
    {"backbone", 16000, 7200.0, 500, false, false},
    {"home_local", 48000, 360.0, 50, true, false},
    {"storm_qos", 16000, 7200.0, 500, false, true},
}};

enum class Outcome : std::uint8_t {
  kPending,
  kFinished,
  kFailed,
  kRejected,
  kNoServer,
};

struct Arrival {
  SimTime at;
  NodeId home;
  VideoId video;
  UserClass cls;
};

/// What one repetition measured.  `sim` holds simulated results, which are
/// a pure function of the seed; `probe` holds traced host timings.
struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t digest = 0;
  std::map<std::string, double> sim;
  std::map<std::string, double> probe;
  std::vector<std::string> violations;
};

/// FNV-1a over the per-request outcomes, in resolution order.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t profiler_ns(const char* site) {
  const auto& sites = obs::Profiler::instance().sites();
  const auto it = sites.find(site);
  return it == sites.end() ? 0 : it->second.total_ns;
}

std::uint64_t profiler_calls(const char* site) {
  const auto& sites = obs::Profiler::instance().sites();
  const auto it = sites.find(site);
  return it == sites.end() ? 0 : it->second.calls;
}

/// Profiler sites that can run inside a request call.
std::uint64_t nested_site_ns() {
  return profiler_ns("vra.select_server") + profiler_ns("fluid.reallocate");
}

/// One repetition: the service, its inputs and the outcome tallies.
class Rep {
 public:
  Rep(const Workload& workload, std::uint64_t seed, bool traced)
      : w_(workload), traced_(traced) {
    build_network();
    network_.emplace(topo_, traffic_);
    service_.emplace(sim_, topo_, *network_, service_options(), kAdmin);
    build_catalog(seed);
    service_->start();
    generate_arrivals(seed);
    if (w_.storm) {
      fault::FaultScheduleOptions storm;
      storm.horizon_seconds = w_.arrival_window_s;
      storm.link_mtbf_seconds = 1800.0;
      storm.link_mttr_seconds = 240.0;
      storm.server_mtbf_seconds = 3600.0;
      storm.server_mttr_seconds = 300.0;
      injector_.emplace(sim_, *service_);
      injector_->schedule_random(storm, seed ^ 0x5bd1e995ULL);
    }
    outcomes_.assign(arrivals_.size(), Outcome::kPending);
    schedule_arrival(0);
  }

  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  /// Runs simulated minutes until every request has resolved.
  void run() {
    const double limit = w_.arrival_window_s + kDrainLimitSeconds;
    while (resolved_ < arrivals_.size() && sim_.now().seconds() < limit) {
      const SimTime until = sim_.now() + kSliceSeconds;
      if (traced_) {
        const auto start = Clock::now();
        events_ += sim_.run_until(until);
        slice_ms_.add(seconds_since(start) * 1e3);
      } else {
        events_ += sim_.run_until(until);
      }
      sample();
    }
  }

  [[nodiscard]] RepResult collect() const {
    RepResult r;
    r.traced = traced_;
    r.digest = digest_.value();
    check(r.violations);
    const obs::MetricsSnapshot snap = service_->metrics_snapshot();
    const auto n = static_cast<double>(arrivals_.size());
    const auto count = [&snap](const char* name) {
      return static_cast<double>(snap.value_u64(name));
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };

    auto& s = r.sim;
    if (startup_.count() > 0) {
      s["startup_mean_s"] = startup_.mean();
      s["startup_p50_s"] = startup_.quantile(0.50);
      s["startup_p99_s"] = startup_.quantile(0.99);
    }
    s["startup_samples"] = static_cast<double>(startup_.count());
    s["qos_ok_share"] = qos_ok_ / n;
    s["request_ok_share"] = static_cast<double>(finished_) / n;
    s["finished"] = static_cast<double>(finished_);
    s["failed"] = static_cast<double>(failed_);
    s["rejected"] = static_cast<double>(rejected_);
    s["no_server"] = static_cast<double>(no_server_);

    const auto events = static_cast<double>(events_);
    s["sim.events"] = events;
    s["sim.heap_padding_max"] = static_cast<double>(heap_padding_max_);
    s["fluid.reallocations"] = count("fluid.reallocations");
    s["fluid.realloc_per_event"] = ratio(count("fluid.reallocations"), events);
    s["fluid.traffic_queries"] = count("fluid.traffic_queries");
    s["fluid.active_flows_mean"] =
        ratio(static_cast<double>(flows_sum_), static_cast<double>(samples_));
    s["transfer.active_mean"] = ratio(static_cast<double>(transfers_sum_),
                                      static_cast<double>(samples_));
    s["transfer.active_max"] = static_cast<double>(transfers_max_);
    s["vra.spt_hit_ratio"] =
        ratio(count("vra.spt_hits"),
              count("vra.spt_hits") + count("vra.spt_misses"));
    s["vra.graph_rebuilds"] = count("vra.graph_rebuilds");
    s["vra.graph_incremental"] = count("vra.graph_incremental");
    s["vra.edges_rewritten"] = count("vra.edges_rewritten");
    s["dma.requests"] = count("dma.requests");
    s["dma.hit_ratio"] = ratio(count("dma.hits"), count("dma.requests"));
    s["dma.stores"] = count("dma.stores");
    s["dma.evictions"] = count("dma.evictions");
    s["service.admitted"] = count("service.admitted");
    s["service.rejected"] = count("service.rejected");
    s["service.retries"] = count("service.retries");
    s["service.sessions_failed"] = count("service.sessions_failed");
    const double sessions = static_cast<double>(finished_ + failed_);
    s["stream.switches_per_session"] =
        ratio(static_cast<double>(switches_), sessions);
    s["stream.stall_retries"] = static_cast<double>(stall_retries_);
    s["stream.failovers"] = static_cast<double>(failovers_);
    s["snmp.polls"] = count("snmp.polls");
    s["fault.applied"] =
        injector_ ? static_cast<double>(injector_->trace().size()) : 0.0;

    if (traced_) {
      auto& p = r.probe;
      p["sim.slice_ms_p50"] = slice_ms_.quantile(0.50);
      p["sim.slice_ms_p99"] = slice_ms_.quantile(0.99);
      p["sim.run_next_ns"] = static_cast<double>(profiler_ns("sim.run_next"));
      p["fluid.reallocate_ns"] =
          static_cast<double>(profiler_ns("fluid.reallocate"));
      p["fluid.reallocate_calls"] =
          static_cast<double>(profiler_calls("fluid.reallocate"));
      p["vra.select_ns"] = static_cast<double>(profiler_ns("vra.select_server"));
      p["vra.selections"] =
          static_cast<double>(profiler_calls("vra.select_server"));
      p["service.request_self_ns"] = static_cast<double>(request_self_ns_);
    }
    return r;
  }

 private:
  /// bench_scale's two-tier backbone with every capacity x100: three cores
  /// in a triangle, nine access sites on spurs of three speeds.
  void build_network() {
    for (int c = 0; c < 3; ++c) {
      cores_.push_back(topo_.add_node("core" + std::to_string(c)));
    }
    topo_.add_link(cores_[0], cores_[1], Mbps{3400.0});
    topo_.add_link(cores_[1], cores_[2], Mbps{3400.0});
    topo_.add_link(cores_[2], cores_[0], Mbps{3400.0});
    for (int e = 0; e < 9; ++e) {
      const NodeId edge = topo_.add_node("edge" + std::to_string(e));
      edges_.push_back(edge);
      topo_.add_link(cores_[e % 3], edge, Mbps{100.0 * (2.0 + 4.0 * (e % 3))});
    }
    for (const net::LinkInfo& info : topo_.links()) {
      traffic_.set_shape(info.id, {.capacity = info.capacity,
                                   .base_fraction = 0.10,
                                   .peak_fraction = 0.60});
    }
    // One hot transit trunk, as in bench_scale: load-aware routing detours.
    const LinkId hot = *topo_.find_link(cores_[0], cores_[1]);
    traffic_.set_shape(hot, {.capacity = Mbps{3400.0},
                             .base_fraction = 0.55,
                             .peak_fraction = 0.97});
  }

  [[nodiscard]] service::ServiceOptions service_options() const {
    service::ServiceOptions options;
    options.cluster_size = MegaBytes{30.0};
    options.retention = service::SessionRetention::kCountersOnly;
    // Stripes land on the first disks of an array, so the cores get disks
    // large enough for their two-thirds share of the catalog.
    options.server.disk_profile.capacity = MegaBytes{18000.0};
    if (!w_.all_local) {
      // Small edge disks (40 titles) so the DMA keeps evicting.
      service::ServerSetup edge;
      edge.disk_count = 4;
      edge.disk_profile.capacity = MegaBytes{1200.0};
      for (const NodeId node : edges_) options.server_overrides[node] = edge;
    }
    if (w_.storm) {
      options.qos.enabled = true;
      options.failover.retry_limit = 2;
      options.failover.retry_backoff_seconds = 30.0;
    }
    return options;
  }

  void build_catalog(std::uint64_t seed) {
    Rng rng{seed ^ 0xc2b2ae3d27d4eb4fULL};
    for (std::size_t v = 0; v < w_.titles; ++v) {
      // Local clips fit one cluster: 4-29 MB spread over the popularity
      // ranks, plus a seeded jitter so startup (one local fetch) is not the
      // same on every seed while the work per request stays put.
      const double clip_mb =
          4.0 +
          24.0 * static_cast<double>((v * 37) % w_.titles) /
              static_cast<double>(w_.titles - 1) +
          rng.uniform(0.0, 1.0);
      const MegaBytes size{w_.all_local ? clip_mb : 120.0};
      // MPEG-1 to MPEG-2 rates: the QoS floor binds on the faster titles
      // once their share of a contended link drops below the bitrate.
      const Mbps bitrate{rng.uniform(1.5, 6.0)};
      const VideoId id =
          service_->add_video("t" + std::to_string(v), size, bitrate);
      videos_.push_back(id);
      if (w_.all_local) {
        for (const NodeId edge : edges_) service_->place_initial_copy(edge, id);
      } else {
        service_->place_initial_copy(cores_[v % 3], id);
        service_->place_initial_copy(cores_[(v + 1) % 3], id);
      }
    }
  }

  /// Exactly `requests` Poisson arrivals over about the arrival window:
  /// Zipf 0.8 titles (rank = catalog order), uniform edge homes and, for
  /// the storm, a 20/50/30 premium/standard/background class mix.
  void generate_arrivals(std::uint64_t seed) {
    Rng rng{seed};
    const workload::ZipfDistribution zipf{videos_.size(), 0.8};
    const double rate =
        static_cast<double>(w_.requests) / w_.arrival_window_s;
    const auto last_edge = static_cast<std::int64_t>(edges_.size()) - 1;
    arrivals_.reserve(w_.requests);
    double t = 0.0;
    for (std::size_t i = 0; i < w_.requests; ++i) {
      t += rng.exponential(rate);
      Arrival a{SimTime{t},
                edges_[static_cast<std::size_t>(rng.uniform_int(0, last_edge))],
                videos_[zipf.sample(rng)], UserClass::kStandard};
      if (w_.storm) {
        const double u = rng.uniform();
        a.cls = u < 0.2   ? UserClass::kPremium
                : u < 0.7 ? UserClass::kStandard
                          : UserClass::kBackground;
      }
      arrivals_.push_back(a);
    }
  }

  /// The lazy arrival chain: each arrival schedules the next one.
  void schedule_arrival(std::size_t i) {
    if (i >= arrivals_.size()) return;
    sim_.schedule_at(arrivals_[i].at, [this, i](SimTime) {
      if (traced_) {
        const std::uint64_t nested_before = nested_site_ns();
        const auto start = Clock::now();
        submit(i);
        const std::uint64_t span = ns_since(start);
        const std::uint64_t nested = nested_site_ns() - nested_before;
        request_self_ns_ += span > nested ? span - nested : 0;
      } else {
        submit(i);
      }
      schedule_arrival(i + 1);
    });
  }

  /// Every request enters the service here.
  void submit(std::size_t i) {
    const Arrival& a = arrivals_[i];
    auto on_done = [this, i](const stream::Session& session) {
      session_done(i, session);
    };
    if (!w_.storm) {
      service_->request_at(a.home, a.video, std::move(on_done));
      return;
    }
    const auto outcome = service_->request_classed(a.home, a.video, a.cls,
                                                   1.0, std::move(on_done));
    using Admission = service::VodService::Admission;
    if (outcome.verdict == Admission::kRejected) {
      resolve(i, Outcome::kRejected);
    } else if (outcome.verdict == Admission::kNoServer) {
      resolve(i, Outcome::kNoServer);
    }
  }

  void session_done(std::size_t i, const stream::Session& session) {
    const stream::SessionMetrics& m = session.metrics();
    switches_ += static_cast<std::uint64_t>(m.server_switches);
    stall_retries_ += static_cast<std::uint64_t>(m.stall_retries);
    failovers_ += static_cast<std::uint64_t>(m.proactive_failovers);
    digest_.add(m.startup_delay());
    digest_.add(static_cast<std::uint64_t>(m.server_switches));
    if (m.failed) {
      resolve(i, Outcome::kFailed);
      return;
    }
    if (m.cluster_completed.size() != session.cluster_count()) {
      ++short_sessions_;
    }
    startup_.add(m.startup_delay());
    if (m.meets_qos_floor(session.video().bitrate)) ++qos_ok_;
    resolve(i, Outcome::kFinished);
  }

  void resolve(std::size_t i, Outcome outcome) {
    if (outcomes_[i] != Outcome::kPending) {
      ++double_resolved_;
      return;
    }
    outcomes_[i] = outcome;
    ++resolved_;
    digest_.add(static_cast<std::uint64_t>(i));
    digest_.add(static_cast<std::uint64_t>(outcome));
    digest_.add(sim_.now().seconds());
    switch (outcome) {
      case Outcome::kFinished:
        ++finished_;
        break;
      case Outcome::kFailed:
        ++failed_;
        break;
      case Outcome::kRejected:
        ++rejected_;
        break;
      case Outcome::kNoServer:
        ++no_server_;
        break;
      case Outcome::kPending:
        break;
    }
  }

  /// Slice-boundary probes.  Public accessors only, read between events.
  void sample() {
    sim::EventQueue& queue = sim_.queue();
    heap_padding_max_ = std::max(heap_padding_max_,
                                 queue.heap_size() - queue.pending_count());
    flows_sum_ += network_->active_flow_count();
    const std::size_t transfers = service_->transfers().active_count();
    transfers_sum_ += transfers;
    transfers_max_ = std::max(transfers_max_, transfers);
    ++samples_;
  }

  /// The output checks: each one compares what the driver saw from outside
  /// with what the service reports about itself.
  void check(std::vector<std::string>& violations) const {
    const auto fail = [&violations](const std::string& what) {
      violations.push_back(what);
    };
    const std::size_t n = arrivals_.size();
    if (resolved_ != n) {
      fail("only " + std::to_string(resolved_) + " of " + std::to_string(n) +
           " requests resolved before the drain limit");
    }
    if (double_resolved_ != 0) {
      fail(std::to_string(double_resolved_) +
           " requests resolved more than once");
    }
    if (finished_ + failed_ + rejected_ + no_server_ != n) {
      fail("finished + failed + rejected + no-server != offered");
    }
    if (service_->active_session_count() != 0) {
      fail(std::to_string(service_->active_session_count()) +
           " sessions still active after the drain");
    }
    if (short_sessions_ != 0) {
      fail(std::to_string(short_sessions_) +
           " finished sessions fetched fewer clusters than the title has");
    }
    const obs::MetricsSnapshot snap = service_->metrics_snapshot();
    const std::uint64_t retries = snap.value_u64("service.retries");
    if (snap.value_u64("service.sessions_finished") != finished_) {
      fail("service.sessions_finished disagrees with the done callbacks");
    }
    // A retried session fails once per retry before its final outcome.
    if (snap.value_u64("service.sessions_failed") != failed_ + retries) {
      fail("service.sessions_failed != failed callbacks + service.retries");
    }
    if (snap.value_u64("service.rejected") != rejected_) {
      fail("service.rejected disagrees with the admission verdicts");
    }
    if (w_.storm &&
        snap.value_u64("service.admitted") != n - rejected_ - no_server_) {
      fail("service.admitted != offered - rejected - no-server");
    }
    if (startup_.count() < kMinStartupSamples) {
      fail("fewer than " + std::to_string(kMinStartupSamples) +
           " finished sessions: startup p99 is not resolved");
    }
  }

  const Workload& w_;
  const bool traced_;

  // Construction order is lifetime order: the service needs the topology,
  // traffic, simulation and network to outlive it.
  net::Topology topo_;
  std::vector<NodeId> cores_;
  std::vector<NodeId> edges_;
  net::DiurnalTraffic traffic_{14.0};
  sim::Simulation sim_;
  std::optional<net::FluidNetwork> network_;
  std::optional<service::VodService> service_;
  std::optional<fault::FaultInjector> injector_;

  std::vector<VideoId> videos_;
  std::vector<Arrival> arrivals_;
  std::vector<Outcome> outcomes_;

  std::size_t resolved_ = 0;
  std::size_t double_resolved_ = 0;
  std::size_t finished_ = 0;
  std::size_t failed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t no_server_ = 0;
  std::size_t short_sessions_ = 0;
  double qos_ok_ = 0.0;
  std::uint64_t switches_ = 0;
  std::uint64_t stall_retries_ = 0;
  std::uint64_t failovers_ = 0;
  SampleSet startup_;
  Digest digest_;

  std::size_t events_ = 0;
  std::size_t samples_ = 0;
  std::size_t heap_padding_max_ = 0;
  std::size_t flows_sum_ = 0;
  std::size_t transfers_sum_ = 0;
  std::size_t transfers_max_ = 0;

  SampleSet slice_ms_;
  std::uint64_t request_self_ns_ = 0;
};

RepResult run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  obs::Profiler& profiler = obs::Profiler::instance();
  const auto setup_start = Clock::now();
  Rep rep{w, seed, traced};
  const double setup_s = seconds_since(setup_start);
  if (traced) {
    profiler.reset();
    profiler.set_enabled(true);
  }
  const auto run_start = Clock::now();
  rep.run();
  const double run_s = seconds_since(run_start);
  profiler.set_enabled(false);
  RepResult result = rep.collect();
  result.setup_s = setup_s;
  result.run_s = run_s;
  return result;
}

/// Host-speed probe.  The machine this runs on is shared, and its speed
/// drifts by tens of percent over minutes, far more than a median over one
/// run can absorb.  So each timed repetition is bracketed by this fixed
/// loop, and host times are reported at the speed where it takes
/// kCalibrationRefMs.  The loop is written here and shares no code with
/// the service, so a change to the service cannot move it; it mixes what
/// the simulator does per event (a binary heap of timed entries, an
/// ordered map of live ids, a std::function dispatch) so that interference
/// slows it roughly as it slows a repetition.
constexpr double kCalibrationRefMs = 40.0;

double calibration_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next_random = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::pair<double, std::uint32_t>> heap;
  std::map<std::uint32_t, double> live;
  const std::function<void(std::uint32_t)> dispatch = [&](std::uint32_t id) {
    const auto it = live.find(id);
    if (it == live.end()) return;
    it->second += 1.0;
    if (next_random() % 4 == 0) live.erase(it);
  };
  double now = 0.0;
  std::uint32_t next_id = 0;
  for (int op = 0; op < 150000; ++op) {
    if (heap.size() < 2000 || next_random() % 2 == 0) {
      heap.emplace_back(now + static_cast<double>(next_random() % 1000) / 10.0,
                        next_id);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      live.emplace(next_id++, now);
    } else {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      now = heap.back().first;
      dispatch(heap.back().second);
      heap.pop_back();
    }
  }
  if (live.size() > heap.size() + next_id) std::abort();  // keeps the work
  return seconds_since(start) * 1e3;
}

/// Wall time of one set-up alone (the teardown is not timed).
double time_setup(const Workload& w, std::uint64_t seed) {
  const auto start = Clock::now();
  const Rep rep{w, seed, false};
  return seconds_since(start);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// VmHWM (peak resident set) of this process in kB.
std::size_t peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << '"' << metrics[i].name
        << "\": {\"value\": " << format_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The self-time table of one traced repetition: each span minus the
/// profiler sites and spans nested in it.  `other` is the rest of the run
/// phase: event dispatch plus the session, transfer, DMA, SNMP and service
/// handlers that carry no span of their own.
void print_layer_table(const RepResult& rep, double overhead_pct) {
  const auto& p = rep.probe;
  const double wall_ns = rep.run_s * 1e9;
  struct Row {
    const char* layer;
    double calls;
    double self_ns;
  };
  std::vector<Row> rows{
      {"service.request", rep.sim.at("finished") + rep.sim.at("failed") +
                              rep.sim.at("rejected") + rep.sim.at("no_server"),
       p.at("service.request_self_ns")},
      {"vra.select_server", p.at("vra.selections"), p.at("vra.select_ns")},
      {"fluid.reallocate", p.at("fluid.reallocate_calls"),
       p.at("fluid.reallocate_ns")},
  };
  double attributed = 0.0;
  for (const Row& row : rows) attributed += row.self_ns;
  rows.push_back({"other", rep.sim.at("sim.events"), wall_ns - attributed});

  std::printf("\n%-20s %12s %12s %8s\n", "layer (self time)", "calls",
              "self ms", "share");
  for (const Row& row : rows) {
    std::printf("%-20s %12.0f %12.3f %7.2f%%\n", row.layer, row.calls,
                row.self_ns / 1e6, 100.0 * row.self_ns / wall_ns);
  }
  std::printf("%-20s %12s %12.3f %7.2f%%\n", "total (traced run)", "",
              wall_ns / 1e6, 100.0);
  std::printf("sim.run_next covers %.2f%% of the traced run; tracing costs "
              "%.2f%% (host-scaled medians, traced vs untraced)\n\n",
              100.0 * p.at("sim.run_next_ns") / wall_ns, overhead_pct);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    throw std::invalid_argument("--seconds must be in (0, 120]");
  }
  return args;
}

int run(const Args& args) {
  const auto found =
      std::find_if(kWorkloads.begin(), kWorkloads.end(),
                   [&](const Workload& w) { return w.name == args.workload; });
  if (found == kWorkloads.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload& w = *found;

  // One warm-up repetition fills caches and the allocator; it is checked
  // like the others but not timed.  Then at least three timed repetitions
  // of each kind, and as many more as fit the budget.  Each timed one is
  // preceded by set-up-only samples, so set-up time is a median of many,
  // and followed by a calibration loop: its host times are scaled by the
  // mean of the loops on either side.  A repetition that fails its checks
  // ends the run.
  constexpr int kSetupSamplesPerRep = 3;
  const std::size_t min_reps = args.trace ? 6 : 3;
  const auto start = Clock::now();
  std::vector<RepResult> reps{run_rep(w, args.seed, false)};
  // The peak of one whole repetition in a fresh process; later ones only
  // add allocator fragmentation that differs from run to run.
  const std::size_t peak_rss = peak_rss_kb();
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> traced_run_s;
  std::vector<double> calibration;
  double calibration_before = calibration_ms();
  while (reps.back().violations.empty() &&
         (reps.size() <= min_reps || seconds_since(start) < args.seconds)) {
    const bool traced = args.trace && reps.size() % 2 == 0;
    std::vector<double> setups;
    if (!traced) {
      for (int i = 0; i < kSetupSamplesPerRep; ++i) {
        setups.push_back(time_setup(w, args.seed));
      }
    }
    reps.push_back(run_rep(w, args.seed, traced));
    const double calibration_after = calibration_ms();
    const double scale =
        2.0 * kCalibrationRefMs / (calibration_before + calibration_after);
    calibration.push_back(calibration_after);
    calibration_before = calibration_after;
    RepResult& rep = reps.back();
    std::fprintf(stderr,
                 "rep %zu%s: setup %.3f ms, run %.3f ms, host scale %.3f\n",
                 reps.size() - 1, traced ? " (traced)" : "",
                 rep.setup_s * 1e3, rep.run_s * 1e3, scale);
    (traced ? traced_run_s : run_s).push_back(rep.run_s * scale);
    if (!traced) {
      setups.push_back(rep.setup_s);
      for (const double setup : setups) setup_s.push_back(setup * scale);
    }
  }

  std::vector<std::string> violations = reps.back().violations;
  const RepResult& first = reps.front();
  for (const RepResult& rep : reps) {
    if (rep.digest != first.digest || rep.sim != first.sim) {
      violations.push_back("repetitions of one seed disagree");
      break;
    }
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
  }
  if (!violations.empty()) {
    print_result(false, reps.size() * w.requests, w.requests, {});
    return 1;
  }

  const auto& sim = first.sim;
  const auto at = [&sim](const char* name) {
    const auto it = sim.find(name);
    return it == sim.end() ? 0.0 : it->second;
  };
  std::printf("workload=%s seed=%llu requests=%zu timed reps=%zu "
              "(traced %zu) setup samples=%zu calibration median %.3f ms "
              "(reference %.0f ms)\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed), w.requests,
              run_s.size() + traced_run_s.size(), traced_run_s.size(),
              setup_s.size(), median(calibration), kCalibrationRefMs);
  std::printf("outcomes: finished=%.0f failed=%.0f rejected=%.0f "
              "no_server=%.0f\nstartup over %.0f finished sessions: "
              "p50=%.6f s p99=%.6f s\ndigest=%016llx\n",
              at("finished"), at("failed"), at("rejected"), at("no_server"),
              at("startup_samples"), at("startup_p50_s"), at("startup_p99_s"),
              static_cast<unsigned long long>(first.digest));

  const double run_median = median(run_s);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"us_per_request", run_median / static_cast<double>(w.requests) * 1e6,
         "us"},
        {"peak_rss_mb", static_cast<double>(peak_rss) / 1024.0, "MB"},
        {"startup_mean_s", at("startup_mean_s"), "s"},
        {"startup_p99_s", at("startup_p99_s"), "s"},
        {"qos_ok_share", at("qos_ok_share"), "ratio"},
        {"request_ok_share", at("request_ok_share"), "ratio"},
    };
  } else {
    // Per-layer metrics: counts from the (deterministic) simulation, host
    // timings as medians over the traced repetitions, and the traced
    // repetition closest to that median for the table.
    const auto probe_median = [&reps](const char* name) {
      std::vector<double> values;
      for (const RepResult& rep : reps) {
        if (rep.traced) values.push_back(rep.probe.at(name));
      }
      return median(values);
    };
    const double overhead_pct =
        100.0 * (median(traced_run_s) / run_median - 1.0);
    std::vector<double> traced_raw;
    for (const RepResult& rep : reps) {
      if (rep.traced) traced_raw.push_back(rep.run_s);
    }
    const double traced_raw_median = median(traced_raw);
    const RepResult* table_rep = nullptr;
    for (const RepResult& rep : reps) {
      if (rep.traced && (table_rep == nullptr ||
                         std::abs(rep.run_s - traced_raw_median) <
                             std::abs(table_rep->run_s - traced_raw_median))) {
        table_rep = &rep;
      }
    }
    print_layer_table(*table_rep, overhead_pct);
    metrics.push_back({"sim.events", at("sim.events"), "count"});
    metrics.push_back(
        {"sim.ns_per_event", run_median / at("sim.events") * 1e9, "ns"});
    metrics.push_back(
        {"sim.heap_padding_max", at("sim.heap_padding_max"), "count"});
    metrics.push_back(
        {"sim.slice_ms_p50", probe_median("sim.slice_ms_p50"), "ms"});
    metrics.push_back(
        {"sim.slice_ms_p99", probe_median("sim.slice_ms_p99"), "ms"});
    for (const char* name :
         {"fluid.reallocations", "fluid.realloc_per_event",
          "fluid.traffic_queries", "fluid.active_flows_mean"}) {
      metrics.push_back({name, at(name), "count"});
    }
    metrics.push_back(
        {"fluid.reallocate_ns", probe_median("fluid.reallocate_ns"), "ns"});
    metrics.push_back(
        {"transfer.active_mean", at("transfer.active_mean"), "count"});
    metrics.push_back(
        {"transfer.active_max", at("transfer.active_max"), "count"});
    metrics.push_back(
        {"vra.selections", probe_median("vra.selections"), "count"});
    metrics.push_back({"vra.select_ns", probe_median("vra.select_ns"), "ns"});
    metrics.push_back({"vra.spt_hit_ratio", at("vra.spt_hit_ratio"), "ratio"});
    for (const char* name : {"vra.graph_rebuilds", "vra.graph_incremental",
                             "vra.edges_rewritten", "dma.requests"}) {
      metrics.push_back({name, at(name), "count"});
    }
    metrics.push_back({"dma.hit_ratio", at("dma.hit_ratio"), "ratio"});
    metrics.push_back({"dma.stores", at("dma.stores"), "count"});
    metrics.push_back({"dma.evictions", at("dma.evictions"), "count"});
    metrics.push_back(
        {"service.request_ns", probe_median("service.request_self_ns"), "ns"});
    for (const char* name :
         {"service.admitted", "service.rejected", "service.retries",
          "service.sessions_failed", "stream.switches_per_session",
          "stream.stall_retries", "stream.failovers", "snmp.polls",
          "fault.applied"}) {
      metrics.push_back({name, at(name), "count"});
    }
    metrics.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
  }
  print_result(true, reps.size() * w.requests, 0, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vod_perfbench: %s\n", e.what());
    return 2;
  }
}
