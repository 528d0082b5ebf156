#include "service/vod_service.h"

#include <algorithm>

#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "common/log.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace vod::service {

VodService::VodService(sim::Simulation& sim, const net::Topology& topology,
                       net::FluidNetwork& network, ServiceOptions options,
                       db::AdminCredential admin)
    : sim_(sim),
      topology_(topology),
      network_(network),
      options_(options),
      admin_(std::move(admin)),
      db_(admin_),
      transfers_(sim, network) {
  require(options_.server.disk_count != 0,
      "VodService: servers need at least one disk");
  register_topology();
  snmp_ = std::make_unique<snmp::SnmpModule>(
      sim_, network_, db_.limited_view(admin_),
      Duration{options_.snmp_interval_seconds});
  vra_ = std::make_unique<vra::Vra>(topology_, db_.full_view(),
                                    db_.limited_view(admin_),
                                    options_.validation);
  vra_->set_obs(&sim_.obs());
  vra_->configure_degraded_mode(Duration{options_.degraded_stats_age_seconds},
                                [this] { return sim_.now(); });
  vra_policy_ = std::make_unique<stream::VraPolicy>(
      *vra_, options_.vra_switch_hysteresis);
  policy_ = vra_policy_.get();
  if (options_.audit_capacity > 0) {
    audit_ = std::make_unique<DecisionAudit>(options_.audit_capacity);
    audited_policy_ = std::make_unique<AuditingPolicy>(*vra_policy_,
                                                       *audit_, sim_);
    policy_ = audited_policy_.get();
  }
  // Components that keep their own counters are mirrored into the registry
  // at snapshot time, so one snapshot covers the whole service.
  metrics_.add_collector([this](obs::MetricsSnapshot& snap) {
    const vra::VraCacheStats& cs = vra_->cache_stats();
    snap.set_counter("vra.graph_hits", cs.graph_hits);
    snap.set_counter("vra.graph_incremental", cs.graph_incremental);
    snap.set_counter("vra.graph_rebuilds", cs.graph_rebuilds);
    snap.set_counter("vra.edges_rewritten", cs.edges_rewritten);
    snap.set_counter("vra.spt_hits", cs.spt_hits);
    snap.set_counter("vra.spt_misses", cs.spt_misses);
    snap.set_counter("vra.degraded_selections",
                     vra_->degraded_selection_count());
    snap.set_counter("snmp.polls", snmp_->poll_count());
    snap.set_counter("fluid.reallocations", network_.reallocation_count());
    snap.set_counter("fluid.traffic_queries",
                     network_.traffic_query_count());
    snap.set_gauge("fluid.active_flows",
                   static_cast<double>(network_.active_flow_count()));
    snap.set_gauge("service.active_sessions",
                   static_cast<double>(active_sessions_));
    std::uint64_t hits = 0, stores = 0, evictions = 0, requests = 0;
    for (const auto& [node, state] : servers_) {
      hits += state.cache->hit_count();
      stores += state.cache->store_count();
      evictions += state.cache->eviction_count();
      requests += state.cache->request_count();
    }
    snap.set_counter("dma.hits", hits);
    snap.set_counter("dma.stores", stores);
    snap.set_counter("dma.evictions", evictions);
    snap.set_counter("dma.requests", requests);
    // Truncated traces are detectable from the snapshot alone; 0 (also
    // when no sink is installed) keeps the column present in every CSV.
    obs::TraceRecorder* tr = sim_.obs().trace();
    snap.set_counter("trace.dropped_events",
                     tr != nullptr ? tr->dropped_count() : 0);
  });
}

const DecisionAudit& VodService::audit() const {
  ensure(audit_, "VodService::audit: auditing disabled (audit_capacity == 0)");
  return *audit_;
}

void VodService::register_topology() {
  auto view_factory = [this]() { return db_.limited_view(admin_); };
  for (std::size_t n = 0; n < topology_.node_count(); ++n) {
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    const auto override_it = options_.server_overrides.find(node);
    const ServerSetup& setup = override_it != options_.server_overrides.end()
                                   ? override_it->second
                                   : options_.server;
    require(setup.disk_count != 0,
        "VodService: server override needs at least one disk");
    db::ServerConfig config;
    config.disk_count = static_cast<int>(setup.disk_count);
    config.disk_capacity = setup.disk_profile.capacity;
    // The server's access bandwidth: sum of its adjacent links.
    Mbps access{0.0};
    for (const LinkId link : topology_.links_adjacent_to(node)) {
      access += topology_.link(link).capacity;
    }
    config.access_bandwidth = access;
    db_.register_server(node, topology_.node_name(node), config);

    ServerState state;
    state.disks = std::make_unique<storage::DiskArray>(
        setup.disk_count, setup.disk_profile, options_.cluster_size,
        setup.striping);
    // DMA admissions/evictions mirror into the server's title list so the
    // VRA (which reads the database) sees them.
    dma::DmaCallbacks callbacks;
    callbacks.on_admit = [node, view_factory](VideoId video) {
      view_factory().add_title(node, video);
    };
    callbacks.on_evict = [node, view_factory](VideoId video) {
      view_factory().remove_title(node, video);
    };
    state.cache = std::make_unique<dma::DmaCache>(
        *state.disks, options_.dma, std::move(callbacks));
    state.cache->set_obs(&sim_.obs(), node.value());
    servers_.emplace(node, std::move(state));
  }
  for (const net::LinkInfo& info : topology_.links()) {
    db_.register_link(info.id, info.name, info.capacity);
  }
}

VideoId VodService::add_video(std::string title, MegaBytes size,
                              Mbps bitrate) {
  return db_.register_video(std::move(title), size, bitrate);
}

void VodService::place_initial_copy(NodeId server, VideoId video) {
  const auto info = db_.full_view().video(video);
  require(info, "place_initial_copy: unknown video");
  dma::DmaCache& cache = *servers_.at(server).cache;
  if (cache.cached(video)) return;  // already there
  require(cache.place(video, info->size),
      "place_initial_copy: disks cannot tolerate the video");
  db_.limited_view(admin_).add_title(server, video);
}

void VodService::start() {
  snmp_->poll_now(sim_.now());
  snmp_->start();
}

std::vector<db::VideoInfo> VodService::list_titles() const {
  return db_.full_view().list_videos();
}

std::vector<db::VideoInfo> VodService::search_titles(
    const std::string& needle) const {
  return db_.full_view().search(needle);
}

std::optional<db::VideoInfo> VodService::find_title(
    const std::string& title) const {
  return db_.full_view().find_by_title(title);
}

std::vector<std::pair<db::VideoInfo, std::uint64_t>> VodService::top_titles(
    std::size_t count) const {
  const std::vector<db::VideoInfo> infos = db_.full_view().list_videos();
  std::vector<std::pair<db::VideoInfo, std::uint64_t>> ranked;
  ranked.reserve(infos.size());
  for (const db::VideoInfo& info : infos) {
    // Integer sums, so accumulation order cannot change the ranking.
    std::uint64_t demand = 0;
    for (const auto& [node, state] : servers_) {
      demand += state.cache->points(info.id);
    }
    ranked.emplace_back(info, demand);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first.id < b.first.id;
            });
  if (ranked.size() > count) ranked.resize(count);
  return ranked;
}

SessionId VodService::request_by_ip(const std::string& client_ip,
                                    VideoId video,
                                    stream::Session::DoneCallback on_done) {
  const auto home = ips_.home_of(client_ip);
  require(home,
      [&] { return "request_by_ip: no subnet matches " + client_ip; });
  return request_at(*home, video, std::move(on_done));
}

SessionId VodService::request_at(NodeId home, VideoId video,
                                 stream::Session::DoneCallback on_done) {
  const auto info = db_.full_view().video(video);
  require(info, "request_at: unknown video");
  require(topology_.has_node(home), "request_at: unknown home node");
  return request_at_impl(home, *info, UserClass::kStandard,
                         std::move(on_done));
}

SessionId VodService::request_at_impl(NodeId home, const db::VideoInfo& info,
                                      UserClass cls,
                                      stream::Session::DoneCallback on_done) {
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    tr->instant(
        obs::Subsystem::kService, "service.request",
        {{"home", topology_.node_name(home)},
         {"video", obs::num(static_cast<std::uint64_t>(info.id.value()))}});
  }

  // DMA accounting at the home server: the request counts toward the
  // title's popularity there and may admit (or not) a local copy.
  servers_.at(home).cache->on_request(info.id, info.size);

  // Coalescing: join a still-active stream of the same title to the same
  // home if it started recently enough (the joiner shares the multicast
  // delivery; only the leader session carries transfer state).  Classed
  // requests only join a leader of their own class — a premium joiner
  // riding a background leader would inherit its weight and shedding
  // order.
  if (options_.coalesce_window_seconds > 0.0) {
    const auto key = std::make_pair(home, info.id);
    const auto batch = batches_.find(key);
    if (batch != batches_.end()) {
      const auto& [leader, started] = batch->second;
      // The leader may already be retired (failed over, finished): such a
      // batch is dead and must never absorb a new request.
      auto* leader_slot = sessions_.find(leader);
      const bool joinable =
          leader_slot != nullptr && (*leader_slot)->active() &&
          sim_.now() - started <= options_.coalesce_window_seconds;
      if (joinable &&
          (!options_.qos.enabled || (*leader_slot)->user_class() == cls)) {
        stream::Session& leader_session = **leader_slot;
        ++coalesced_;
        // The joiner's completion coincides with the leader's.
        leader_session.add_done_callback(std::move(on_done));
        VOD_LOG_DEBUG("service: coalesced request onto session "
                      << leader.value());
        if (obs::TraceRecorder* tr = sim_.obs().trace()) {
          tr->instant(obs::Subsystem::kService, "service.coalesce",
                      {{"leader", obs::num(static_cast<std::uint64_t>(
                           leader.value()))}});
        }
        return leader;
      }
      // Dead or expired batches are dropped here; a live batch of another
      // class is merely passed over (the spawn below takes over the key).
      if (!joinable) batches_.erase(batch);
    }
  }

  const SessionId id =
      spawn_session(home, info, cls, std::move(on_done),
                    retry_limit_for(cls),
                    Duration{options_.failover.retry_backoff_seconds},
                    /*register_batch=*/true);
  VOD_LOG_INFO("service: session " << id.value() << " for video "
                                   << info.title << " at "
                                   << topology_.node_name(home));
  return id;
}

SessionId VodService::spawn_session(NodeId home, const db::VideoInfo& info,
                                    UserClass cls,
                                    stream::Session::DoneCallback on_done,
                                    int retries_left, Duration backoff,
                                    bool register_batch) {
  const SessionId id{next_session_++};
  // The session-lifecycle metrics observer runs before the user/retry
  // callback so counters and histograms are settled by the time callers
  // inspect the service; it also retires the session (record + deferred
  // destruction) first, so the retry wrapper finds a record to annotate.
  auto done =
      wrap_with_retry(id, home, info, cls, std::move(on_done), retries_left,
                      backoff);
  auto observed = [this, id, cls, done = std::move(done)](
                      const stream::Session& session) {
    --active_sessions_;
    const stream::SessionMetrics& m = session.metrics();
    if (m.failed) {
      ++sessions_failed_;
    } else {
      ++sessions_finished_;
      startup_delay_hist_.observe(m.startup_delay());
      if (m.download_completed_at) {
        download_hist_.observe(*m.download_completed_at - m.requested_at);
      }
    }
    stall_hist_.observe(m.rebuffer_seconds);
    if (options_.qos.enabled) {
      ++qos_counter(cls, m.failed ? "failed" : "finished");
      qos_histogram(cls, "stall_seconds", {1, 5, 15, 60, 300, 900})
          .observe(m.rebuffer_seconds);
      for (const double latency : m.failover_latencies) {
        qos_histogram(cls, "failover_latency_seconds",
                      {0.1, 0.5, 1, 5, 15, 60})
            .observe(latency);
      }
    }
    if (obs::TraceRecorder* tr = sim_.obs().trace()) {
      tr->counter(obs::Subsystem::kService, "service.active_sessions",
                  static_cast<double>(active_sessions_));
    }
    retire_session(id, session);
    if (done) done(session);
  };
  ObjectPool<stream::Session>::Ptr session =
      session_pool_.make(sim_, transfers_, *policy_, info, home,
                         options_.cluster_size, session_options_for(cls),
                         std::move(observed));
  stream::Session& ref = *session;
  ref.set_trace_id(id.value());
  sessions_.insert(id, std::move(session));
  if (register_batch && options_.coalesce_window_seconds > 0.0) {
    batches_[std::make_pair(home, info.id)] = std::make_pair(id, sim_.now());
    schedule_batch_expiry();
  }
  ++active_sessions_;
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    tr->counter(obs::Subsystem::kService, "service.active_sessions",
                static_cast<double>(active_sessions_));
  }
  ref.start();
  return id;
}

stream::Session::DoneCallback VodService::wrap_with_retry(
    SessionId id, NodeId home, const db::VideoInfo& info, UserClass cls,
    stream::Session::DoneCallback on_done, int retries_left,
    Duration backoff) {
  if (retries_left <= 0) return on_done;
  return [this, id, home, info, cls, on_done = std::move(on_done),
          retries_left, backoff](const stream::Session& session) {
    if (!session.metrics().failed) {
      if (on_done) on_done(session);
      return;
    }
    // The request outlives this session: re-submit after the backoff and
    // hand the user callback to the retry.  The chain bookkeeping lives on
    // the session's retired record (created just before this wrapper ran),
    // so it is pruned together with the records instead of growing in side
    // maps across retry storms.
    if (SessionRecord* record = record_of(id)) record->superseded = true;
    ++service_retries_;
    const Duration next_backoff{
        std::min(backoff.seconds() * options_.failover.retry_backoff_factor,
                 options_.failover.retry_backoff_max_seconds)};
    VOD_LOG_INFO("service: session " << id.value() << " failed ("
                                     << session.metrics().failure_reason
                                     << "); retrying in " << backoff);
    if (obs::TraceRecorder* tr = sim_.obs().trace()) {
      tr->instant(
          obs::Subsystem::kService, "service.retry",
          {{"sid", obs::num(static_cast<std::uint64_t>(id.value()))},
           {"backoff_s", obs::num(backoff.seconds())}});
    }
    // The retry re-enters at the session's own class: a preempted
    // background session comes back as background (and may be preempted
    // again), never promoted by the detour through the retry chain.
    sim_.schedule_in(
        backoff,
        [this, id, home, info, cls, on_done, retries_left,
         next_backoff](SimTime) {
          const SessionId retry =
              spawn_session(home, info, cls, on_done, retries_left - 1,
                            next_backoff, /*register_batch=*/false);
          if (SessionRecord* record = record_of(id)) {
            record->retried_as = retry;
          }
        });
  };
}

VodService::AdmissionOutcome VodService::request_with_admission(
    NodeId home, VideoId video, double headroom,
    stream::Session::DoneCallback on_done) {
  const auto info = db_.full_view().video(video);
  require(info, "request_with_admission: unknown video");
  require(topology_.has_node(home), "request_with_admission: unknown home");
  const auto decision = vra_->select_server(home, video);
  if (!decision) {
    // The DMA still counts the demand even when nothing can serve it.
    servers_.at(home).cache->on_request(video, info->size);
    return AdmissionOutcome{Admission::kNoServer, std::nullopt, {}};
  }
  const AdmissionController admission{
      db_.limited_view(admin_),
      AdmissionOptions{.required_headroom = headroom}};
  if (!admission.admit(*decision, info->bitrate)) {
    servers_.at(home).cache->on_request(video, info->size);
    ++rejected_;
    VOD_LOG_INFO("service: rejected request for " << info->title
                                                  << " (no QoS headroom)");
    if (obs::TraceRecorder* tr = sim_.obs().trace()) {
      tr->instant(
          obs::Subsystem::kService, "service.reject",
          {{"home", topology_.node_name(home)},
           {"video", obs::num(static_cast<std::uint64_t>(video.value()))}});
    }
    return AdmissionOutcome{Admission::kRejected, std::nullopt, {}};
  }
  ++admitted_;
  const SessionId id = request_at(home, video, std::move(on_done));
  return AdmissionOutcome{Admission::kAdmitted, id, {}};
}

VodService::AdmissionOutcome VodService::request_classed(
    NodeId home, VideoId video, UserClass cls, double headroom,
    stream::Session::DoneCallback on_done) {
  const auto info = db_.full_view().video(video);
  require(info, "request_classed: unknown video");
  require(topology_.has_node(home), "request_classed: unknown home node");
  const bool qos = options_.qos.enabled;
  if (qos) ++qos_counter(cls, "requests");

  const auto decision = vra_->select_server(home, video);
  if (!decision) {
    // The DMA still counts the demand even when nothing can serve it.
    servers_.at(home).cache->on_request(video, info->size);
    if (qos) ++qos_counter(cls, "no_server");
    return AdmissionOutcome{Admission::kNoServer, std::nullopt, {}};
  }

  AdmissionOptions admission_options{.required_headroom = headroom};
  if (qos) {
    for (std::size_t c = 0; c < kUserClassCount; ++c) {
      admission_options.class_headroom[c] =
          options_.qos.policies[c].admission_headroom;
    }
  }
  const AdmissionController admission{db_.limited_view(admin_),
                                      admission_options};
  if (admission.admit(*decision, info->bitrate, cls)) {
    ++admitted_;
    if (qos) ++qos_counter(cls, "admitted");
    const SessionId id =
        request_at_impl(home, *info, cls, std::move(on_done));
    return AdmissionOutcome{Admission::kAdmitted, id, {}};
  }

  // Plain admission failed.  Preemption may still carve out room — but
  // only by sacrificing strictly lower classes, and only when the whole
  // deficit is coverable (nobody is aborted for a plan that cannot fit
  // the request anyway).
  if (qos && options_.qos.allow_preemption && !decision->served_locally) {
    const auto victims =
        plan_preemption(decision->path.links,
                        admission.required_rate(info->bitrate, cls), cls);
    if (victims) {
      // One allocation epoch for the whole sacrifice: the fair shares are
      // re-solved once, after every victim's flow is torn down.
      {
        const net::FluidNetwork::BatchGuard epoch =
            network_.defer_reallocate();
        for (const SessionId victim : *victims) {
          auto* slot = sessions_.find(victim);
          if (slot == nullptr || !(*slot)->active()) continue;
          ++preemption_victims_;
          ++qos_counter((*slot)->user_class(), "preempted");
          VOD_LOG_INFO("service: preempting session " << victim.value());
          if (obs::TraceRecorder* tr = sim_.obs().trace()) {
            tr->instant(obs::Subsystem::kService, "service.preempt",
                        {{"victim", obs::num(static_cast<std::uint64_t>(
                             victim.value()))}});
          }
          (*slot)->abort(kPreemptedReason);
        }
      }
      ++admitted_;
      ++preempted_admits_;
      ++qos_counter(cls, "admitted");
      ++qos_counter(cls, "preempted_admits");
      // A committed sacrifice is an anomaly worth a black box: victims are
      // aborted, the admission went through over their dead flows.
      if (obs::FlightRecorder* fr = sim_.obs().flight()) {
        fr->trigger("preemption");
      }
      const SessionId id =
          request_at_impl(home, *info, cls, std::move(on_done));
      return AdmissionOutcome{Admission::kPreempted, id,
                              std::move(*victims)};
    }
  }

  servers_.at(home).cache->on_request(video, info->size);
  ++rejected_;
  if (qos) ++qos_counter(cls, "rejected");
  VOD_LOG_INFO("service: rejected " << to_string(cls) << " request for "
                                    << info->title << " (no QoS headroom)");
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    tr->instant(
        obs::Subsystem::kService, "service.reject",
        {{"home", topology_.node_name(home)},
         {"video", obs::num(static_cast<std::uint64_t>(video.value()))}});
  }
  return AdmissionOutcome{Admission::kRejected, std::nullopt, {}};
}

std::optional<std::vector<SessionId>> VodService::plan_preemption(
    const std::vector<LinkId>& path, Mbps required, UserClass cls) {
  if (path.empty()) return std::nullopt;
  // Per-link deficits against the same slightly-stale limited-access
  // statistics the admission check read.  A severed (offline) link cannot
  // be mended by shedding load, so no plan exists for it.
  const db::LimitedAccessView view = db_.limited_view(admin_);
  std::vector<LinkId> short_links;
  std::vector<double> deficit;
  for (const LinkId link : path) {
    const db::LinkRecord& record = view.link(link);
    if (!record.online) return std::nullopt;
    const double free = std::max(
        0.0, (record.total_bandwidth - record.used_bandwidth).value());
    if (free < required.value()) {
      short_links.push_back(link);
      deficit.push_back(required.value() - free);
    }
  }
  if (short_links.empty()) return std::nullopt;

  // Candidates: active sessions of a strictly lower class currently
  // delivering across at least one short link.  What their abort frees on
  // those links is their present fluid rate — the one number that is
  // actually true right now, unlike the stale DB residuals.
  struct Candidate {
    SessionId id;
    UserClass cls;
    double rate;
    std::vector<std::size_t> hits;  // indices into short_links
  };
  std::vector<Candidate> candidates;
  sessions_.for_each_ordered(
      [&](SessionId id, ObjectPool<stream::Session>::Ptr& session) {
        if (!session->active()) return;
        const UserClass victim_cls = session->user_class();
        if (!outranks(cls, victim_cls)) return;
        const double rate = session->inflight_rate().value();
        if (rate <= 0.0) return;  // nothing reclaimable right now
        std::vector<std::size_t> hits;
        const std::vector<LinkId>& links = session->inflight_links();
        for (std::size_t s = 0; s < short_links.size(); ++s) {
          if (std::find(links.begin(), links.end(), short_links[s]) !=
              links.end()) {
            hits.push_back(s);
          }
        }
        if (!hits.empty()) {
          candidates.push_back(
              Candidate{id, victim_cls, rate, std::move(hits)});
        }
      });

  // Rank: lowest class first, youngest first within a class.  Both keys
  // are total orders, so the plan is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cls != b.cls) {
                return class_index(a.cls) > class_index(b.cls);
              }
              return a.id.value() > b.id.value();
            });

  std::vector<SessionId> plan;
  std::size_t uncovered = short_links.size();
  for (const Candidate& candidate : candidates) {
    if (uncovered == 0) break;
    bool helps = false;
    for (const std::size_t s : candidate.hits) {
      if (deficit[s] > 0.0) helps = true;
    }
    if (!helps) continue;  // its links are already covered — spare it
    plan.push_back(candidate.id);
    for (const std::size_t s : candidate.hits) {
      if (deficit[s] <= 0.0) continue;
      deficit[s] -= candidate.rate;
      if (deficit[s] <= 0.0) --uncovered;
    }
  }
  if (uncovered > 0) return std::nullopt;
  return plan;
}

int VodService::retry_limit_for(UserClass cls) const {
  if (!options_.qos.enabled) return options_.failover.retry_limit;
  const int limit = options_.qos.policies[class_index(cls)].retry_limit;
  return limit < 0 ? options_.failover.retry_limit : limit;
}

stream::SessionOptions VodService::session_options_for(UserClass cls) const {
  stream::SessionOptions session_options = options_.session;
  if (!options_.qos.enabled) return session_options;
  const ClassPolicy& policy = options_.qos.policies[class_index(cls)];
  session_options.user_class = cls;
  session_options.flow_weight = policy.flow_weight;
  session_options.stall_timeout_scale = policy.stall_timeout_scale;
  return session_options;
}

obs::Counter& VodService::qos_counter(UserClass cls, const char* what) {
  return metrics_.counter(std::string("qos.") + to_string(cls) + "." + what);
}

obs::Histogram& VodService::qos_histogram(UserClass cls, const char* what,
                                          std::vector<double> upper_bounds) {
  return metrics_.histogram(
      std::string("qos.") + to_string(cls) + "." + what,
      std::move(upper_bounds));
}

UserClass VodService::session_class(SessionId id) const {
  if (const auto* slot = sessions_.find(id)) return (*slot)->user_class();
  const SessionRecord* record = record_of(id);
  require_found(record != nullptr,
      "VodService::session_class: unknown session");
  return record->user_class;
}

db::LimitedAccessView VodService::admin_view() {
  return db_.limited_view(admin_);
}

template <typename Predicate>
void VodService::notify_sessions(const Predicate& predicate,
                                 const char* cause,
                                 bool black_hole_when_passive) {
  // Collect first: fail_over() can complete or fail a session, whose done
  // callback may submit new requests and grow sessions_ while we iterate.
  std::vector<stream::Session*> affected;
  sessions_.for_each_ordered(
      [&](SessionId, ObjectPool<stream::Session>::Ptr& session) {
        if (!session->active()) return;
        if (predicate(*session)) affected.push_back(session.get());
      });
  // Shed strictly bottom-up by class: premium failovers route (and grab
  // residual capacity) first, background last.  The sort is stable over
  // the ascending-id collection order, so a single-class population keeps
  // the exact pre-QoS notification order.
  std::stable_sort(affected.begin(), affected.end(),
                   [](const stream::Session* a, const stream::Session* b) {
                     return class_index(a->user_class()) <
                            class_index(b->user_class());
                   });
  // One allocation epoch for the whole storm: every failover in the sweep
  // tears down one flow and starts another, and the fair shares are
  // re-solved once when the guard releases.  The network mutation that
  // caused the fault (link cut, if any) happened before this call, so
  // transfers drained by the fault instant have already completed.
  const net::FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  for (stream::Session* session : affected) {
    session->mark_source_fault(sim_.now());
    if (options_.failover.proactive) {
      session->fail_over(cause);
    } else if (black_hole_when_passive) {
      session->black_hole_inflight();
    }
  }
}

void VodService::fail_link(LinkId link) {
  if (!network_.link_up(link)) return;
  network_.set_link_up(link, false);
  if (options_.failover.proactive) {
    // The connection reset travels faster than the next SNMP poll: tell
    // the database (and through it the VRA) right away.
    admin_view().set_link_online(link, false);
  }
  notify_sessions(
      [link](const stream::Session& session) {
        const auto& links = session.inflight_links();
        return std::find(links.begin(), links.end(), link) != links.end();
      },
      "link down",
      // A cut link already starves the flow (rate 0); the watchdog-only
      // baseline needs no extra black-holing.
      /*black_hole_when_passive=*/false);
}

void VodService::restore_link(LinkId link) {
  if (network_.link_up(link)) return;
  network_.set_link_up(link, true);
  if (options_.failover.proactive) {
    admin_view().set_link_online(link, true);
  }
}

void VodService::crash_server(NodeId server) {
  require_found(servers_.contains(server),
      "VodService::crash_server: unknown server");
  const auto pos = std::lower_bound(crashed_servers_.begin(),
                                    crashed_servers_.end(), server);
  if (pos != crashed_servers_.end() && *pos == server) return;
  crashed_servers_.insert(pos, server);
  // Both modes: the VRA polls candidate servers per request, and a crashed
  // box answers no poll — only the *reaction of running sessions* differs.
  set_server_online(server, false);
  notify_sessions(
      [server](const stream::Session& session) {
        const auto source = session.streaming_source();
        return source && *source == server;
      },
      "source server crashed",
      // Links stay up when a server dies, so without black-holing the
      // in-flight transfer would absurdly keep delivering.
      /*black_hole_when_passive=*/true);
}

void VodService::restore_server(NodeId server) {
  require_found(servers_.contains(server),
      "VodService::restore_server: unknown server");
  const auto pos = std::lower_bound(crashed_servers_.begin(),
                                    crashed_servers_.end(), server);
  if (pos == crashed_servers_.end() || *pos != server) return;
  crashed_servers_.erase(pos);
  // The restarted server still holds its disk contents; it re-registers as
  // online and the VRA may select it again immediately.
  set_server_online(server, true);
}

std::optional<SessionId> VodService::retried_as(SessionId id) const {
  const SessionRecord* record = record_of(id);
  if (record == nullptr || !record->retried_as.valid()) return std::nullopt;
  return record->retried_as;
}

void VodService::retire_session(SessionId id,
                                const stream::Session& session) {
  if (options_.retention == SessionRetention::kSummaries) {
    if (retired_.size() <= id.value()) {
      retired_.resize(static_cast<std::size_t>(id.value()) + 1);
    }
    retired_[id.value()] = SessionRecord{session.metrics(), session.home(),
                                         session.video(),
                                         session.user_class()};
  }
  // Destruction is deferred to a same-instant sweep event: this runs
  // inside the session's own done-callback stack, where `delete this`
  // territory begins.  Same-time events fire in scheduling order, so the
  // sweep runs after the current event finishes, before time advances.
  retire_queue_.push_back(id);
  if (!retire_sweep_scheduled_) {
    retire_sweep_scheduled_ = true;
    sim_.schedule_at(sim_.now(), [this](SimTime) { sweep_retired(); });
  }
}

void VodService::sweep_retired() {
  retire_sweep_scheduled_ = false;
  // The queue is drained into a local: a destructor must not invalidate
  // the iteration if some future session type ever completes others.
  std::vector<SessionId> queue = std::move(retire_queue_);
  retire_queue_.clear();
  for (const SessionId id : queue) {
    auto* slot = sessions_.find(id);
    if (slot == nullptr) continue;
    // A batch led by this session can never absorb another request; drop
    // it now rather than waiting for a lookup or the expiry sweep.
    const auto key = std::make_pair((*slot)->home(), (*slot)->video().id);
    const auto batch = batches_.find(key);
    if (batch != batches_.end() && batch->second.first == id) {
      batches_.erase(batch);
    }
    sessions_.erase(id);
  }
}

SessionRecord* VodService::record_of(SessionId id) {
  if (!id.valid() || id.value() >= retired_.size()) return nullptr;
  auto& record = retired_[id.value()];
  return record ? &*record : nullptr;
}

const SessionRecord* VodService::record_of(SessionId id) const {
  if (!id.valid() || id.value() >= retired_.size()) return nullptr;
  const auto& record = retired_[id.value()];
  return record ? &*record : nullptr;
}

void VodService::schedule_batch_expiry() {
  if (batch_expiry_scheduled_ || batches_.empty()) return;
  batch_expiry_scheduled_ = true;
  sim_.schedule_in(
      Duration{options_.coalesce_window_seconds}, [this](SimTime now) {
        batch_expiry_scheduled_ = false;
        for (auto it = batches_.begin(); it != batches_.end();) {
          // Strictly-older only: an entry exactly one window old is still
          // joinable by the lookup path (<= window), so it survives to the
          // next sweep.
          if (now - it->second.second > options_.coalesce_window_seconds) {
            it = batches_.erase(it);
          } else {
            ++it;
          }
        }
        schedule_batch_expiry();  // re-arm while entries remain
      });
}

void VodService::set_server_online(NodeId server, bool online) {
  admin_view().set_server_online(server, online);
}

std::vector<VideoId> VodService::fail_disk(NodeId server, std::size_t slot) {
  const auto it = servers_.find(server);
  require_found(it != servers_.end(), "VodService::fail_disk: unknown server");
  // The DMA reports the casualties through its eviction callback, which
  // already removes them from the server's database entry.
  return it->second.cache->handle_disk_failure(slot);
}

stream::Session& VodService::session(SessionId id) {
  auto* slot = sessions_.find(id);
  require_found(slot != nullptr,
      "VodService::session: unknown or retired session");
  return **slot;
}

const stream::Session& VodService::session(SessionId id) const {
  const auto* slot = sessions_.find(id);
  require_found(slot != nullptr,
      "VodService::session: unknown or retired session");
  return **slot;
}

const stream::SessionMetrics& VodService::session_metrics(
    SessionId id) const {
  if (const auto* slot = sessions_.find(id)) return (*slot)->metrics();
  const SessionRecord* record = record_of(id);
  require_found(record != nullptr,
      "VodService::session_metrics: unknown session (or retired without a "
      "record under kCountersOnly retention)");
  return record->metrics;
}

NodeId VodService::session_home(SessionId id) const {
  if (const auto* slot = sessions_.find(id)) return (*slot)->home();
  const SessionRecord* record = record_of(id);
  require_found(record != nullptr,
      "VodService::session_home: unknown session");
  return record->home;
}

const db::VideoInfo& VodService::session_video(SessionId id) const {
  if (const auto* slot = sessions_.find(id)) return (*slot)->video();
  const SessionRecord* record = record_of(id);
  require_found(record != nullptr,
      "VodService::session_video: unknown session");
  return record->video;
}

std::vector<SessionId> VodService::session_ids() const {
  std::vector<SessionId> out;
  out.reserve(sessions_.size() + retired_.size());
  // Ids are issued sequentially from 0, so one ascending pass over the id
  // space merges active and retired in order.
  for (SessionId::underlying_type v = 0; v < next_session_; ++v) {
    const SessionId id{v};
    if (sessions_.contains(id) || record_of(id) != nullptr) {
      out.push_back(id);
    }
  }
  return out;
}

dma::DmaCache& VodService::dma_cache(NodeId server) {
  const auto it = servers_.find(server);
  require_found(it != servers_.end(), "VodService::dma_cache: unknown server");
  return *it->second.cache;
}

}  // namespace vod::service
