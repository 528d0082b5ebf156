// A client streaming session.
//
// The video is fetched cluster by cluster (the striping unit c): before each
// cluster the selection policy is consulted again, so the source server can
// change mid-stream exactly as the paper describes ("the next cluster will
// be requested from the new optimal server").  Cluster k+1 starts
// downloading the moment cluster k finishes; playback runs concurrently at
// the title's bitrate, and the session records startup delay, rebuffering
// and server switches.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "common/user_class.h"
#include "db/records.h"
#include "net/transfer.h"
#include "sim/timer_lane.h"
#include "stream/policy.h"

namespace vod::stream {

/// Per-flow rate cap of a network cluster transfer (client access line /
/// player limit).
inline constexpr Mbps kFlowCap{8.0};

/// Rate of a cluster served from the home server's own disks.
inline constexpr Mbps kLocalRate{80.0};

/// Sentinel for SessionOptions::stall_timeout_seconds: derive the timeout
/// from the cluster size and kFlowCap (3x the expected transfer time of
/// one cluster at full cap), so out-of-the-box sessions cannot hang forever
/// on a dead source.
inline constexpr double kAutoStallTimeout = -1.0;

/// A transfer still delivering at least this rate when the stall watchdog
/// fires is slow-but-alive (congestion, not failure): the watchdog re-arms
/// instead of aborting it.  A flow across a dead link reads exactly 0.
inline constexpr Mbps kStallRateFloor{0.01};

/// Stall retries tolerated per cluster before the session fails — a long
/// title with several independent transient stalls must not exhaust one
/// shared budget when every cluster recovered.
inline constexpr int kMaxClusterStallRetries = 5;

/// Stall retries tolerated across the whole session (genuinely dead titles
/// must still fail instead of retrying per cluster forever).
inline constexpr int kMaxSessionStallRetries = 25;

/// Session tuning.
struct SessionOptions {
  /// Clusters that must be fully downloaded before playback starts.
  std::size_t prebuffer_clusters = 1;
  /// If a cluster download exceeds this, abort it and ask the policy for a
  /// (possibly different) source — the recovery path for link/server
  /// failures mid-stream.  kAutoStallTimeout derives a finite default from
  /// cluster size and kFlowCap; infinity disables the watchdog (the
  /// paper-exact configuration).
  double stall_timeout_seconds = kAutoStallTimeout;
};

/// Everything measured about one session.
struct SessionMetrics {
  SimTime requested_at{0.0};
  std::optional<SimTime> playback_started_at;
  std::optional<SimTime> download_completed_at;
  std::optional<SimTime> playback_finished_at;

  /// Seconds from request to first playable frame.
  [[nodiscard]] double startup_delay() const {
    return playback_started_at ? *playback_started_at - requested_at : 0.0;
  }

  double rebuffer_seconds = 0.0;
  int rebuffer_events = 0;
  int server_switches = 0;
  /// Cluster fetches abandoned by the stall watchdog and retried.
  int stall_retries = 0;
  /// Source re-selections forced by a fault notification (fail_over),
  /// without waiting for the watchdog.
  int proactive_failovers = 0;
  /// Seconds from each fault notification on the streaming path to the
  /// session streaming again from a (possibly different) source.
  std::vector<double> failover_latencies;
  /// Completed VCR pause intervals (pause time, resume time).
  std::vector<std::pair<SimTime, SimTime>> pauses;

  [[nodiscard]] double total_paused_seconds() const {
    double total = 0.0;
    for (const auto& [from, to] : pauses) total += to - from;
    return total;
  }

  /// Source server of each cluster, in order.
  std::vector<NodeId> cluster_sources;
  /// Completion time of each cluster download.
  std::vector<SimTime> cluster_completed;

  bool finished = false;
  bool failed = false;
  std::string failure_reason;

  /// Mean delivered rate over the whole download (set when it finishes).
  Mbps mean_delivered_rate{0.0};

  /// True when playback never stalled after starting.
  [[nodiscard]] bool smooth() const {
    return finished && rebuffer_events == 0;
  }

  /// The paper's QoS goal: a minimum sustainable rate ("the minimum video
  /// frame rate for which a video can be considered decent").  Met when
  /// the session finished, never rebuffered, and delivered at least
  /// `floor` on average.
  [[nodiscard]] bool meets_qos_floor(Mbps floor) const {
    return smooth() && mean_delivered_rate >= floor;
  }
};

/// Drives one video download + playback inside the simulation.  The stall
/// watchdog of the cluster in flight is the session's own timer on the
/// simulation's lane for its timeout (the private base), so armed
/// watchdogs cost the event heap one entry per distinct timeout.
class Session : private sim::TimerLane::Hook {
 public:
  using DoneCallback = std::function<void(const Session&)>;

  /// References must outlive the session.  `cluster_size` is the striping
  /// unit c; `video` comes from the catalog.  `user_class` is the service
  /// tier the session streams at: its class_policy() sets the weight of its
  /// transfers in the fluid network's weighted max-min fill and scales the
  /// resolved stall timeout.  nullopt is the classless paper session
  /// (weight 1, unscaled timeout), reported as kStandard.
  Session(sim::Simulation& sim, net::TransferManager& transfers,
          ServerSelectionPolicy& policy, db::VideoInfo video, NodeId home,
          MegaBytes cluster_size, SessionOptions options = {},
          DoneCallback on_done = {},
          std::optional<UserClass> user_class = std::nullopt);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Schedules the first cluster fetch at the current simulation time.
  void start();

  /// VCR pause: playback consumption stops (the download continues — a
  /// paused player keeps buffering).  No-op if already paused or done.
  /// Pauses are honored while the download is in flight; a pause still
  /// open when the last cluster lands is clipped there (afterwards the
  /// pause is the player's business, not the distribution service's).
  void pause();

  /// VCR resume; no-op if not paused.
  void resume();

  [[nodiscard]] bool paused() const { return pause_started_.has_value(); }

  /// Aborts the session (cancels any in-flight transfer).
  void abort(const std::string& reason);

  // ---- fault notifications (service failover machinery) ----

  /// Stamps "a fault hit the streaming path now"; the next successful
  /// cluster fetch records the elapsed time as failover latency.  No-op
  /// when the session is not mid-transfer.
  void mark_source_fault(SimTime now);

  /// Abandons the in-flight transfer and re-consults the policy
  /// immediately (the proactive recovery path).  Does not touch the stall
  /// retry budgets; fails the session only when no source is left.
  /// No-op when the session is not mid-transfer.
  void fail_over(const std::string& cause);

  /// Models the source server dying while its path links stay up: cancels
  /// the in-flight transfer without re-selecting, so the bytes simply stop
  /// arriving and only the stall watchdog (if armed) can rescue the
  /// session.  Used by the watchdog-only baseline.
  void black_hole_inflight();

  /// The server currently being streamed from (nullopt when idle or done).
  [[nodiscard]] std::optional<NodeId> streaming_source() const;

  /// Links of the in-flight transfer's path (empty when idle or local).
  [[nodiscard]] const std::vector<LinkId>& inflight_links() const;

  /// The resolved watchdog timeout (finite when kAutoStallTimeout was
  /// passed; infinity when disabled).
  [[nodiscard]] double stall_timeout_seconds() const {
    return watchdog_ != nullptr ? watchdog_->delay().seconds()
                                : std::numeric_limits<double>::infinity();
  }

  /// Labels this session's trace events (the async begin/end pair and the
  /// per-session instants all carry this id).  Set by the service before
  /// start(); sessions started without one trace as id 0.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  /// Chains another completion callback (after any existing ones) — used
  /// when a coalesced request joins this session.  Throws std::logic_error
  /// if the session already ended.
  void add_done_callback(DoneCallback callback);

  /// Current delivered rate of the in-flight transfer (0 when idle, done,
  /// or black-holed) — what a preemption planner can actually reclaim by
  /// aborting this session right now.
  [[nodiscard]] Mbps inflight_rate() const;

  [[nodiscard]] const SessionMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const db::VideoInfo& video() const { return video_; }
  [[nodiscard]] UserClass user_class() const {
    return user_class_.value_or(UserClass::kStandard);
  }
  [[nodiscard]] NodeId home() const { return home_; }
  [[nodiscard]] std::size_t cluster_count() const {
    return part_sizes_.size();
  }
  [[nodiscard]] bool active() const { return started_ && !done_; }

 private:
  void fetch_next_cluster(SimTime now);
  void on_cluster_done(std::size_t index, SimTime now);
  /// The watchdog lane's fire callback: the armed cluster is always
  /// next_cluster_, the one in flight.
  static void on_watchdog(sim::TimerLane::Hook& hook, SimTime now);
  void on_stall_timeout(SimTime now);
  void cancel_watchdog();
  /// Ends the in-flight transfer, if any: cancels it while still active
  /// (a completed or black-holed one is gone already) and forgets it.
  void drop_inflight();
  /// Derives playback timing (startup, rebuffers) from cluster completion
  /// times; called once the download finishes or fails.
  void finalize_playback();
  void finish(SimTime now);
  void fail(SimTime now, const std::string& reason);

  sim::Simulation& sim_;
  net::TransferManager& transfers_;
  ServerSelectionPolicy& policy_;
  db::VideoInfo video_;
  DoneCallback on_done_;

  /// Wall time after consuming `content` of video starting at wall time
  /// `from`, accounting for the recorded pause intervals.
  [[nodiscard]] double advance_playhead(double from, Duration content) const;

  std::vector<MegaBytes> part_sizes_;
  std::size_t prebuffer_clusters_;
  std::size_t next_cluster_ = 0;
  std::optional<FlowId> inflight_;
  /// The in-flight transfer's route, shared with the policy that chose it
  /// (null when idle).
  routing::Route inflight_route_;
  std::optional<SimTime> pause_started_;
  /// When a fault notification hit the in-flight transfer: the instant, for
  /// the failover-latency measurement closed by the next successful fetch.
  std::optional<SimTime> pending_fault_at_;
  /// The lane of the stall timeout resolved in the constructor; null when
  /// the watchdog is disabled.
  sim::TimerLane* watchdog_ = nullptr;
  std::uint64_t trace_id_ = 0;
  // The small fields share one 16-byte run (no padding between them).
  NodeId home_;
  std::uint32_t flow_weight_ = 1;  // the class's, 1 when classless
  int retries_this_cluster_ = 0;
  std::optional<UserClass> user_class_;
  bool started_ = false;
  bool done_ = false;
  SessionMetrics metrics_;
};

}  // namespace vod::stream
