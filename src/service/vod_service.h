// The complete VoD service — the paper's Figure 1 wired together.
//
// Owns the database, one DMA cache per video server, the SNMP statistics
// module, the VRA and the streaming machinery, and exposes the two
// interfaces of the paper: the user-facing web module (browse/search/
// request) and the limited-access administration module.
//
// Substitution note (see DESIGN.md): when the DMA admits a title at a
// server, the copy becomes available immediately — the home server acts as
// a store-and-forward proxy filling its cache from the stream passing
// through it.  The admission threshold option controls how eagerly that
// happens.
#pragma once

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/units.h"
#include "common/user_class.h"
#include "db/database.h"
#include "dma/dma_cache.h"
#include "net/fluid.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/audit.h"
#include "service/ip_directory.h"
#include "sim/simulation.h"
#include "snmp/snmp_module.h"
#include "storage/disk_array.h"
#include "stream/policy.h"
#include "stream/session.h"
#include "vra/vra.h"

namespace vod::service {

/// Hardware of one video server (all servers homogeneous by default; use
/// ServiceOptions::server_overrides per node if needed).
struct ServerSetup {
  std::size_t disk_count = 8;
  storage::DiskProfile disk_profile{};
  /// kPlain = the paper's Figure 3; kParity = the RAID-5-style
  /// reliability extension (survives one disk failure per server).
  storage::StripingMode striping = storage::StripingMode::kPlain;
};

/// Failure-handling behaviour of the service (see src/fault for the
/// injector that exercises it).
struct FailoverOptions {
  /// Push fault notifications into affected sessions immediately (the
  /// connection-reset signal): a session streaming from a crashed server
  /// or across a cut link re-consults the selection policy at once instead
  /// of waiting out its stall watchdog.  False = watchdog-only baseline.
  bool proactive = true;
  /// Service-level retries of a failed session (0 = off): the failed
  /// request is re-submitted as a fresh session after an exponential
  /// backoff, up to this many times.
  int retry_limit = 0;
  double retry_backoff_seconds = 30.0;
  double retry_backoff_factor = 2.0;
  double retry_backoff_max_seconds = 480.0;
};

/// Per-class service policy (see QosOptions::policies, indexed by
/// class_index()).  The defaults are identity knobs: weight 1, headroom
/// x1, the global retry budget, unscaled patience.
struct ClassPolicy {
  /// Weight of this class's transfers in the fluid network's weighted
  /// max-min fill.  Borrowing is emergent: a premium flow frozen at its
  /// cap stops consuming fill increments, so its unused share spills to
  /// whoever is still filling — lower classes included — each allocation
  /// epoch.
  std::uint32_t flow_weight = 1;
  /// Multiplier on the base admission headroom for this class (lower
  /// classes demand more slack; see AdmissionOptions::class_headroom).
  double admission_headroom = 1.0;
  /// Service-level retry budget for this class; -1 inherits
  /// FailoverOptions::retry_limit.  0 means a failed (or preempted)
  /// session of this class is simply absorbed shed.
  int retry_limit = -1;
  /// Multiplier on the session stall timeout: <1 gives up sooner (sheds
  /// first under a storm), >1 is more patient.
  double stall_timeout_scale = 1.0;
};

/// Tiered-QoS configuration.  Disabled (the default) keeps the service
/// byte-identical to the classless paper behaviour: every class-aware
/// branch collapses to the identity and no per-class metric is created.
struct QosOptions {
  bool enabled = false;
  /// May a request that fails plain admission preempt enough lower-class
  /// sessions (ranked class-descending, then youngest-first) to fit?
  bool allow_preemption = true;
  /// Indexed by class_index(): premium, standard, background.
  std::array<ClassPolicy, kUserClassCount> policies{
      ClassPolicy{/*flow_weight=*/4, /*admission_headroom=*/1.0,
                  /*retry_limit=*/-1, /*stall_timeout_scale=*/1.5},
      ClassPolicy{/*flow_weight=*/2, /*admission_headroom=*/1.1,
                  /*retry_limit=*/-1, /*stall_timeout_scale=*/1.0},
      ClassPolicy{/*flow_weight=*/1, /*admission_headroom=*/1.25,
                  /*retry_limit=*/-1, /*stall_timeout_scale=*/0.5},
  };
};

/// What the service keeps of a session once it finishes or fails.  Full
/// Session objects are always retired (destroyed) on completion — memory
/// for live machinery is O(active sessions) either way; this chooses what
/// survives them.
enum class SessionRetention {
  /// Keep a compact SessionRecord (metrics summary + identity) per retired
  /// session: post-run reports, per-session assertions and retry-chain
  /// reconstruction keep working.  Memory is O(total sessions), but a
  /// record is far smaller than a live Session.
  kSummaries,
  /// Keep only the aggregate counters/histograms.  Retired ids vanish from
  /// session_ids() and per-session accessors throw for them; memory is
  /// O(active) no matter how many sessions a run churns through — the
  /// million-session configuration.
  kCountersOnly,
};

/// Compact summary of one retired session (SessionRetention::kSummaries).
struct SessionRecord {
  stream::SessionMetrics metrics;
  NodeId home;
  db::VideoInfo video;
  UserClass user_class = UserClass::kStandard;
  /// Retry-chain bookkeeping (FailoverOptions::retry_limit): set when this
  /// session failed and was re-submitted, superseding its outcome.
  bool superseded = false;
  /// The retry session spawned for it (invalid until the backoff fires).
  SessionId retried_as{};
};

/// Global service configuration.
struct ServiceOptions {
  /// The striping/switching unit c (MB) — common to all disks, per paper.
  MegaBytes cluster_size{50.0};
  /// SNMP refresh period (paper: 1–2 minutes).
  double snmp_interval_seconds = 90.0;
  /// Switch-hysteresis margin of the per-cluster VRA policy (0 = the
  /// paper's always-follow-the-best behaviour; see stream::VraPolicy).
  double vra_switch_hysteresis = 0.0;
  /// Batching window (s): a request for a title already streaming to the
  /// same home server within this window joins that stream instead of
  /// opening a new one — the service-aggregation idea of the paper's
  /// refs [10]/[14].  0 disables coalescing (paper behaviour).
  double coalesce_window_seconds = 0.0;
  /// Ring-buffer size of the routing decision audit (0 = auditing off).
  std::size_t audit_capacity = 0;
  vra::ValidationOptions validation{};
  dma::DmaOptions dma{};
  stream::SessionOptions session{};
  FailoverOptions failover{};
  /// VRA degraded mode: when every link's statistics are staler than this
  /// (SNMP monitor dark), server selection falls back to min-hop routing
  /// over links still believed up instead of trusting stale LVNs.
  /// Infinity disables the mode.
  double degraded_stats_age_seconds =
      std::numeric_limits<double>::infinity();
  /// Hardware defaults for every video server...
  ServerSetup server{};
  /// ...with optional per-node overrides (heterogeneous deployments).
  std::map<NodeId, ServerSetup> server_overrides{};
  /// What survives a session's retirement (see SessionRetention).
  SessionRetention retention = SessionRetention::kSummaries;
  /// Tiered user-class QoS (request_classed); off = classless paper mode.
  QosOptions qos{};
};

/// The running service.
class VodService {
 public:
  /// `topology` and `network` must outlive the service.
  VodService(sim::Simulation& sim, const net::Topology& topology,
             net::FluidNetwork& network, ServiceOptions options,
             db::AdminCredential admin);

  // ---- service initialization (paper section) ----

  /// Registers a title; available nowhere until placed or DMA-admitted.
  VideoId add_video(std::string title, MegaBytes size, Mbps bitrate);

  /// Stores a full copy at `server` (initial seeding by the
  /// administrators); throws if the disks cannot tolerate it.
  void place_initial_copy(NodeId server, VideoId video);

  /// Takes a first SNMP sample and starts periodic polling.
  void start();

  [[nodiscard]] IpDirectory& ip_directory() { return ips_; }

  // ---- the web module (full access) ----

  [[nodiscard]] std::vector<db::VideoInfo> list_titles() const;
  [[nodiscard]] std::vector<db::VideoInfo> search_titles(
      const std::string& needle) const;
  [[nodiscard]] std::optional<db::VideoInfo> find_title(
      const std::string& title) const;

  /// The `count` most requested titles network-wide (DMA points summed
  /// over every server), most popular first; ties toward lower video ids.
  /// The web module's "most popular" shelf.
  [[nodiscard]] std::vector<std::pair<db::VideoInfo, std::uint64_t>>
  top_titles(std::size_t count) const;

  /// Full user request path: resolve the client's home server from its IP,
  /// run the DMA accounting at that server, then stream under VRA control.
  /// Throws std::invalid_argument if the IP maps to no registered subnet.
  SessionId request_by_ip(const std::string& client_ip, VideoId video,
                          stream::Session::DoneCallback on_done = {});

  /// Same, with the home server already known.
  SessionId request_at(NodeId home, VideoId video,
                       stream::Session::DoneCallback on_done = {});

  /// Outcome of an admission-controlled request.  kPreempted means
  /// admitted *by* preemption: the session started, and `preempted` lists
  /// who paid for it.
  enum class Admission { kAdmitted, kRejected, kNoServer, kPreempted };
  struct AdmissionOutcome {
    Admission verdict;
    /// Set only when admitted (kAdmitted or kPreempted).
    std::optional<SessionId> session;
    /// Sessions aborted to make room (kPreempted only), in the order they
    /// were sacrificed: lowest class first, youngest first within a class.
    std::vector<SessionId> preempted;
  };

  /// Like request_at, but the session starts only if the VRA's chosen path
  /// has at least `headroom` x the title's bitrate of residual bandwidth
  /// (per the limited-access statistics).  Rejected requests still count
  /// toward the home server's DMA popularity — a denied user asked for the
  /// title all the same.
  AdmissionOutcome request_with_admission(
      NodeId home, VideoId video, double headroom = 1.0,
      stream::Session::DoneCallback on_done = {});

  /// Fixed failure reason of sessions aborted by the preemption planner —
  /// reports and tests identify victims by it.
  static constexpr const char* kPreemptedReason =
      "preempted by higher-class admission";

  /// The tiered front door (ServiceOptions::qos): class-aware admission
  /// (per-class headroom via `headroom` x the class's multiplier), then —
  /// when plain admission fails, preemption is allowed, and the path is
  /// merely saturated rather than severed — the planner ranks strictly
  /// lower-class victims (class-descending, youngest-first, deterministic)
  /// and aborts just enough of them, by their current delivered rates, to
  /// cover every short link's deficit.  Victims re-enter through the
  /// service-retry chain at their own class (their remaining budget
  /// permitting).  With qos.enabled == false this is exactly
  /// request_with_admission for any class argument.
  AdmissionOutcome request_classed(NodeId home, VideoId video, UserClass cls,
                                   double headroom = 1.0,
                                   stream::Session::DoneCallback on_done = {});

  /// Class of an active or retired session (kStandard for pre-QoS runs).
  [[nodiscard]] UserClass session_class(SessionId id) const;

  /// Sessions aborted by the preemption planner so far.
  [[nodiscard]] std::size_t preemption_victim_count() const {
    return preemption_victims_;
  }
  /// Requests admitted only by preempting someone (kPreempted outcomes).
  [[nodiscard]] std::size_t preempted_admit_count() const {
    return preempted_admits_;
  }

  [[nodiscard]] std::size_t admitted_count() const {
    return static_cast<std::size_t>(admitted_.value());
  }
  [[nodiscard]] std::size_t rejected_count() const {
    return static_cast<std::size_t>(rejected_.value());
  }
  /// Requests satisfied by joining an existing stream (coalescing).
  [[nodiscard]] std::size_t coalesced_count() const {
    return static_cast<std::size_t>(coalesced_.value());
  }

  // ---- the administration module (limited access) ----

  /// Privileged database view (stats + config).
  [[nodiscard]] db::LimitedAccessView admin_view();
  void set_server_online(NodeId server, bool online);

  /// Fails one disk at `server`: titles striped onto it disappear from
  /// that server's catalog entry (the VRA immediately stops offering
  /// them from there).  Returns the lost titles.
  std::vector<VideoId> fail_disk(NodeId server, std::size_t slot);

  /// The routing decision audit; throws std::logic_error when
  /// ServiceOptions::audit_capacity was 0.
  [[nodiscard]] const DecisionAudit& audit() const;
  [[nodiscard]] snmp::SnmpModule& snmp() { return *snmp_; }

  // ---- fault notifications (the failover machinery's entry points) ----

  /// Link failure: the fluid network drops the link; with proactive
  /// failover the database learns immediately (connection reset beats the
  /// next SNMP poll) and every session streaming across the link re-selects
  /// its source at once.  Idempotent.
  void fail_link(LinkId link);
  void restore_link(LinkId link);

  /// Server crash: the server goes offline in the database (the VRA's
  /// per-request poll of candidate servers sees the crash either way);
  /// sessions streaming from it either fail over immediately (proactive)
  /// or are black-holed until their stall watchdog fires (baseline).
  /// A restart brings the server back with its disk contents intact.
  /// Idempotent.
  void crash_server(NodeId server);
  void restore_server(NodeId server);
  [[nodiscard]] bool server_crashed(NodeId server) const {
    return std::binary_search(crashed_servers_.begin(),
                              crashed_servers_.end(), server);
  }

  /// Service-level retries performed so far (FailoverOptions::retry_limit).
  [[nodiscard]] std::size_t service_retry_count() const {
    return static_cast<std::size_t>(service_retries_.value());
  }
  /// True when `id` failed and was re-submitted as a new session — its
  /// outcome was superseded by the retry's.  Chain bookkeeping lives on
  /// the retired records (pruned with them under kCountersOnly).
  [[nodiscard]] bool session_superseded(SessionId id) const {
    const SessionRecord* record = record_of(id);
    return record != nullptr && record->superseded;
  }
  /// The retry session spawned for a superseded `id`, if any yet.
  [[nodiscard]] std::optional<SessionId> retried_as(SessionId id) const;

  // ---- observability ----

  /// The service's metrics registry — one source of truth for run-level
  /// counters.  The service's own counters live here directly; the VRA /
  /// SNMP / DMA / fluid counters are mirrored in at snapshot time by the
  /// collectors registered in the constructor.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Point-in-time copy of every metric, collectors included.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }
  /// Sessions started and not yet finished or failed.
  [[nodiscard]] std::size_t active_session_count() const {
    return active_sessions_;
  }
  /// Live Session objects resident in the store.  Finished/failed sessions
  /// are retired (destroyed) by a same-instant sweep, so between events
  /// this equals active_session_count() — the O(active) memory invariant
  /// the leak regression test pins down.
  [[nodiscard]] std::size_t resident_session_count() const {
    return sessions_.size();
  }
  /// Coalescing batches currently open (stale ones are swept one window
  /// after registration and when their leader retires).
  [[nodiscard]] std::size_t open_batch_count() const {
    return batches_.size();
  }

  // ---- accessors ----

  [[nodiscard]] const vra::Vra& vra() const { return *vra_; }
  /// The live Session object — *active sessions only*: once a session
  /// finishes or fails it is retired to a SessionRecord and this throws
  /// std::out_of_range.  Post-completion consumers use session_metrics()
  /// and friends, which serve active and retired sessions alike.
  [[nodiscard]] stream::Session& session(SessionId id);
  [[nodiscard]] const stream::Session& session(SessionId id) const;
  /// Metrics of an active or retired session; throws std::out_of_range for
  /// unknown ids (including retired ids under kCountersOnly retention).
  [[nodiscard]] const stream::SessionMetrics& session_metrics(
      SessionId id) const;
  /// Home server of an active or retired session.
  [[nodiscard]] NodeId session_home(SessionId id) const;
  /// Catalog entry of the title an active or retired session streamed.
  [[nodiscard]] const db::VideoInfo& session_video(SessionId id) const;
  /// Every session known: active plus retired (ascending id).  Under
  /// kCountersOnly retention, active only.
  [[nodiscard]] std::vector<SessionId> session_ids() const;
  [[nodiscard]] dma::DmaCache& dma_cache(NodeId server);
  [[nodiscard]] db::Database& database() { return db_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] net::TransferManager& transfers() { return transfers_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  struct ServerState {
    std::unique_ptr<storage::DiskArray> disks;
    std::unique_ptr<dma::DmaCache> cache;
  };

  void register_topology();

  /// Creates, registers and starts a session; wraps `on_done` with the
  /// service-retry machinery when `retries_left > 0`.  `register_batch`
  /// is false for retry sessions (they joined no coalescing batch and
  /// already paid their DMA accounting).  `cls` selects the per-class
  /// session knobs (weight, patience) and rides the retry chain, so a
  /// preempted or failed session re-enters at its own class.
  SessionId spawn_session(NodeId home, const db::VideoInfo& info,
                          UserClass cls,
                          stream::Session::DoneCallback on_done,
                          int retries_left, Duration backoff,
                          bool register_batch);
  stream::Session::DoneCallback wrap_with_retry(
      SessionId id, NodeId home, const db::VideoInfo& info, UserClass cls,
      stream::Session::DoneCallback on_done, int retries_left,
      Duration backoff);

  /// The shared tail of request_at / request_classed: DMA accounting,
  /// class-gated coalescing (a request only joins a leader of its own
  /// class), spawn with the class's retry budget.
  SessionId request_at_impl(NodeId home, const db::VideoInfo& info,
                            UserClass cls,
                            stream::Session::DoneCallback on_done);

  /// This class's service-retry budget (ClassPolicy::retry_limit, -1 =
  /// the global FailoverOptions::retry_limit).
  [[nodiscard]] int retry_limit_for(UserClass cls) const;
  /// The per-session knobs for `cls`: ServiceOptions::session with the
  /// class's flow weight, patience scale and label applied (identity when
  /// qos is disabled).
  [[nodiscard]] stream::SessionOptions session_options_for(
      UserClass cls) const;
  /// Lazy per-class instruments (`qos.<class>.<what>`): created on first
  /// touch, so classless runs never grow the registry.
  obs::Counter& qos_counter(UserClass cls, const char* what);
  obs::Histogram& qos_histogram(UserClass cls, const char* what,
                                std::vector<double> upper_bounds);

  /// The preemption plan for a failed admission: which strictly-lower-
  /// class sessions to abort so that every link of `path` short of
  /// `required` residual recovers the difference (by the victims' current
  /// delivered rates).  Victims are ranked class-descending then
  /// youngest-first (id descending).  nullopt when the candidates cannot
  /// cover the deficit — then nobody is sacrificed in vain.
  [[nodiscard]] std::optional<std::vector<SessionId>> plan_preemption(
      const std::vector<LinkId>& path, Mbps required, UserClass cls);

  /// Stamps and (if proactive) fails over every active session whose
  /// in-flight transfer `predicate` says is hit by the fault.
  template <typename Predicate>
  void notify_sessions(const Predicate& predicate, const char* cause,
                       bool black_hole_when_passive);

  /// Called from the done observer (before user callbacks): snapshots the
  /// session into a SessionRecord (kSummaries) and queues the Session
  /// object for destruction by a same-instant sweep — a session cannot be
  /// destroyed while its own completion callback stack is still running.
  void retire_session(SessionId id, const stream::Session& session);
  void sweep_retired();
  /// Record of a retired session, nullptr when unknown or not retained.
  [[nodiscard]] SessionRecord* record_of(SessionId id);
  [[nodiscard]] const SessionRecord* record_of(SessionId id) const;
  /// Re-arming expiry sweep for coalescing batches: entries older than the
  /// window are dropped even if no later request ever looks them up.
  void schedule_batch_expiry();

  sim::Simulation& sim_;
  const net::Topology& topology_;
  net::FluidNetwork& network_;
  ServiceOptions options_;
  db::AdminCredential admin_;
  db::Database db_;
  net::TransferManager transfers_;
  IpDirectory ips_;
  std::map<NodeId, ServerState> servers_;
  std::unique_ptr<snmp::SnmpModule> snmp_;
  std::unique_ptr<vra::Vra> vra_;
  std::unique_ptr<stream::VraPolicy> vra_policy_;
  std::unique_ptr<DecisionAudit> audit_;
  std::unique_ptr<AuditingPolicy> audited_policy_;
  /// The policy sessions actually use (the VRA policy, possibly audited).
  stream::ServerSelectionPolicy* policy_ = nullptr;
  /// Pool before store: the store's Ptr deleters return into the pool, so
  /// it must outlive them (members destroy in reverse declaration order).
  ObjectPool<stream::Session> session_pool_;
  /// Dense store of *live* sessions only — finished/failed ones retire to
  /// `retired_` records and leave this map, keeping it O(active).
  SlotMap<SessionId, ObjectPool<stream::Session>::Ptr> sessions_;
  /// Summaries of retired sessions, indexed by id value (kSummaries only;
  /// never shrinks — it IS the retained history).
  std::vector<std::optional<SessionRecord>> retired_;
  /// Sessions completed this instant, awaiting the retirement sweep.
  std::vector<SessionId> retire_queue_;
  bool retire_sweep_scheduled_ = false;
  bool batch_expiry_scheduled_ = false;
  /// Open batches: (home, video) -> (leader session, batch started at).
  /// Keyed by (node, video) — small and pruned (lookup, leader retirement,
  /// expiry sweep), so a node-based map is fine here.
  std::map<std::pair<NodeId, VideoId>, std::pair<SessionId, SimTime>>
      batches_;
  SessionId::underlying_type next_session_ = 0;
  /// Registry first: the Counter/Histogram references below point into it.
  obs::MetricsRegistry metrics_;
  obs::Counter& admitted_ = metrics_.counter("service.admitted");
  obs::Counter& rejected_ = metrics_.counter("service.rejected");
  obs::Counter& coalesced_ = metrics_.counter("service.coalesced");
  obs::Counter& service_retries_ = metrics_.counter("service.retries");
  obs::Counter& sessions_finished_ =
      metrics_.counter("service.sessions_finished");
  obs::Counter& sessions_failed_ =
      metrics_.counter("service.sessions_failed");
  obs::Histogram& startup_delay_hist_ = metrics_.histogram(
      "session.startup_delay_seconds", {1, 2, 5, 10, 30, 60, 120, 300});
  obs::Histogram& download_hist_ = metrics_.histogram(
      "session.download_seconds", {60, 300, 600, 1800, 3600, 7200, 14400});
  /// Rebuffer totals for every retired session regardless of QoS mode (the
  /// lazy qos.<class>.stall_seconds split exists only on classed runs);
  /// the SLO monitor's stall-ceiling specs read this one.
  obs::Histogram& stall_hist_ = metrics_.histogram(
      "session.stall_seconds", {1, 5, 15, 30, 60, 120, 300, 600, 1800});
  std::size_t active_sessions_ = 0;
  /// Crashed-server set on the failover hot path: sorted vector, binary
  /// searched — a handful of NodeIds never justifies a node-based tree.
  std::vector<NodeId> crashed_servers_;
  /// Preemption totals (plain members, not registry counters: the
  /// registry's per-class series are created lazily so classless
  /// snapshots stay untouched, but these must be readable either way).
  std::size_t preemption_victims_ = 0;
  std::size_t preempted_admits_ = 0;
};

}  // namespace vod::service
