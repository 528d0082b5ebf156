#include "stream/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contract.h"
#include "common/log.h"
#include "obs/trace.h"
#include "storage/striping.h"

namespace vod::stream {

namespace {

/// One per-session instant, tagged with the session's trace id.
void trace_session(const obs::Context& context, const char* name,
                   std::uint64_t sid, std::vector<obs::TraceArg> args = {}) {
  obs::TraceRecorder* tr = context.trace();
  if (tr == nullptr) return;
  args.insert(args.begin(), {"sid", obs::num(sid)});
  tr->instant(obs::Subsystem::kSession, name, std::move(args));
}

}  // namespace

Session::Session(sim::Simulation& sim, net::TransferManager& transfers,
                 ServerSelectionPolicy& policy, db::VideoInfo video,
                 NodeId home, MegaBytes cluster_size, SessionOptions options,
                 DoneCallback on_done)
    : sim_(sim),
      transfers_(transfers),
      policy_(policy),
      video_(std::move(video)),
      home_(home),
      options_(options),
      on_done_(std::move(on_done)) {
  require(home.valid(), "Session: invalid home node");
  require(!(cluster_size.value() <= 0.0),
      "Session: cluster size must be positive");
  require(options_.prebuffer_clusters != 0,
      "Session: prebuffer must be >= 1 cluster");
  require(options_.flow_weight >= 1, "Session: flow weight must be >= 1");
  require(options_.stall_timeout_scale > 0.0,
      "Session: stall timeout scale must be positive");
  if (options_.stall_timeout_seconds == kAutoStallTimeout) {
    require(!(options_.flow_cap.value() <= 0.0),
        "Session: flow cap must be positive");
    stall_timeout_ =
        3.0 * cluster_size.megabits() / options_.flow_cap.value();
  } else if (options_.stall_timeout_seconds > 0.0) {
    stall_timeout_ = options_.stall_timeout_seconds;  // infinity disables
  } else {
    fail_require(
        "Session: stall timeout must be positive, infinity, or "
        "kAutoStallTimeout");
  }
  // Class patience knob; x1.0 is the bit-identical classless default (and
  // scaling infinity keeps the watchdog disabled).
  if (options_.stall_timeout_scale != 1.0) {
    stall_timeout_ *= options_.stall_timeout_scale;
  }
  // The striping plan defines the cluster boundaries; the disk count is
  // irrelevant for sizes, so any positive count works here.
  const storage::StripePlacement plan =
      storage::plan_striping(video_.id, video_.size, cluster_size, 1);
  part_sizes_ = plan.part_sizes;
}

Session::~Session() {
  cancel_watchdog();
  if (inflight_ && transfers_.active(*inflight_)) {
    transfers_.cancel(*inflight_);
  }
}

void Session::start() {
  ensure(!started_, "Session::start: already started");
  started_ = true;
  metrics_.requested_at = sim_.now();
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    tr->async_begin(
        obs::Subsystem::kSession, "session", trace_id_,
        {{"video", obs::num(static_cast<std::uint64_t>(video_.id.value()))},
         {"home", obs::num(static_cast<std::uint64_t>(home_.value()))}});
  }
  fetch_next_cluster(sim_.now());
}

void Session::abort(const std::string& reason) {
  if (!active()) return;
  fail(sim_.now(), reason);
}

void Session::add_done_callback(DoneCallback callback) {
  if (!callback) return;
  ensure(!done_, "Session::add_done_callback: already done");
  if (!on_done_) {
    on_done_ = std::move(callback);
    return;
  }
  on_done_ = [first = std::move(on_done_),
              second = std::move(callback)](const Session& session) {
    first(session);
    second(session);
  };
}

void Session::pause() {
  if (done_ || pause_started_) return;
  pause_started_ = sim_.now();
}

void Session::resume() {
  if (!pause_started_) return;
  metrics_.pauses.emplace_back(*pause_started_, sim_.now());
  pause_started_.reset();
}

double Session::advance_playhead(double from, Duration content) const {
  double wall = from;
  double left = content.seconds();
  for (const auto& [pause_at, resume_at] : metrics_.pauses) {
    const double p = pause_at.seconds();
    const double r = resume_at.seconds();
    if (p >= wall + left) break;  // pause begins after this content ends
    if (r <= wall) continue;      // pause already over
    if (p > wall) {
      left -= p - wall;  // play up to the pause
      wall = p;
    }
    wall = r;  // sit out the pause
  }
  return wall + left;
}

void Session::fetch_next_cluster(SimTime now) {
  const std::size_t index = next_cluster_;
  const auto selection = policy_.select_cluster(home_, video_.id, index);
  if (!selection) {
    fail(now, "no server can provide the title");
    return;
  }

  if (!metrics_.cluster_sources.empty() &&
      metrics_.cluster_sources.back() != selection->server) {
    ++metrics_.server_switches;
    VOD_LOG_DEBUG("session: switched source for cluster " << index);
    trace_session(
        sim_.obs(), "session.switch", trace_id_,
        {{"cluster", obs::num(static_cast<std::uint64_t>(index))},
         {"from", obs::num(static_cast<std::uint64_t>(
              metrics_.cluster_sources.back().value()))},
         {"to", obs::num(static_cast<std::uint64_t>(
              selection->server.value()))}});
  }
  metrics_.cluster_sources.push_back(selection->server);

  if (pending_fault_at_) {
    metrics_.failover_latencies.push_back(now - *pending_fault_at_);
    pending_fault_at_.reset();
  }

  const bool local = selection->path.links.empty();
  const Mbps cap = local ? options_.local_rate : options_.flow_cap;
  inflight_path_ = selection->path.links;
  inflight_ = transfers_.start_transfer(
      selection->path.links, part_sizes_[index], cap,
      [this, index](SimTime t) { on_cluster_done(index, t); },
      options_.flow_weight);

  if (std::isfinite(stall_timeout_)) {
    watchdog_ = sim_.schedule_in(
        Duration{stall_timeout_},
        [this, index](SimTime t) { on_stall_timeout(index, t); });
  }
}

void Session::cancel_watchdog() {
  if (watchdog_.valid()) {
    sim_.queue().cancel(watchdog_);
    watchdog_ = sim::EventHandle{};
  }
}

void Session::on_stall_timeout(std::size_t index, SimTime now) {
  watchdog_ = sim::EventHandle{};
  if (done_ || index != next_cluster_ || !inflight_) return;
  // A transfer still delivering is congested, not dead: let it run and
  // check again one timeout from now.
  if (transfers_.active(*inflight_) &&
      transfers_.current_rate(*inflight_) >= options_.stall_rate_floor) {
    watchdog_ = sim_.schedule_in(
        Duration{stall_timeout_},
        [this, index](SimTime t) { on_stall_timeout(index, t); });
    return;
  }
  // The cluster is overdue: abandon the transfer and re-select a source.
  // (The flow may already be gone if the source was black-holed.)
  // One allocation epoch spans the abandon + the retry's replacement flow.
  const net::FluidNetwork::BatchGuard epoch =
      transfers_.network().defer_reallocate();
  if (transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  inflight_.reset();
  inflight_path_.clear();
  ++metrics_.stall_retries;
  ++retries_this_cluster_;
  // Forget the abandoned source so a return to it counts as a new choice.
  metrics_.cluster_sources.pop_back();
  if (retries_this_cluster_ > options_.max_retries) {
    fail(now, "cluster stalled beyond retry budget");
    return;
  }
  if (metrics_.stall_retries > options_.max_total_retries) {
    fail(now, "session stalled beyond total retry budget");
    return;
  }
  VOD_LOG_INFO("session: cluster " << index << " stalled; retrying");
  trace_session(sim_.obs(), "session.stall", trace_id_,
                {{"cluster", obs::num(static_cast<std::uint64_t>(index))},
                 {"retries", obs::num(static_cast<std::uint64_t>(
                      metrics_.stall_retries))}});
  fetch_next_cluster(now);
}

void Session::on_cluster_done(std::size_t index, SimTime now) {
  ensure(index == metrics_.cluster_completed.size(),
      "Session: clusters completed out of order");
  cancel_watchdog();
  inflight_.reset();
  inflight_path_.clear();
  retries_this_cluster_ = 0;
  metrics_.cluster_completed.push_back(now);
  ++next_cluster_;
  if (next_cluster_ == part_sizes_.size()) {
    finish(now);
  } else {
    fetch_next_cluster(now);
  }
}

void Session::mark_source_fault(SimTime now) {
  if (!active() || !inflight_) return;
  if (!pending_fault_at_) pending_fault_at_ = now;
}

void Session::fail_over(const std::string& cause) {
  if (!active() || !inflight_) return;
  // The teardown of the doomed transfer and the start of its replacement
  // happen at one instant: solve the fair shares once, when both are in.
  const net::FluidNetwork::BatchGuard epoch =
      transfers_.network().defer_reallocate();
  cancel_watchdog();
  if (transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
  inflight_.reset();
  inflight_path_.clear();
  metrics_.cluster_sources.pop_back();
  ++metrics_.proactive_failovers;
  VOD_LOG_INFO("session: failing over (" << cause << ")");
  trace_session(sim_.obs(), "session.failover", trace_id_,
                {{"cause", cause}});
  fetch_next_cluster(sim_.now());
}

void Session::black_hole_inflight() {
  if (!active() || !inflight_) return;
  // Keep inflight_ set: from the session's view the download is still
  // "running", it just never delivers another byte.
  if (transfers_.active(*inflight_)) transfers_.cancel(*inflight_);
}

Mbps Session::inflight_rate() const {
  if (!active() || !inflight_ || !transfers_.active(*inflight_)) {
    return Mbps{0.0};
  }
  return transfers_.current_rate(*inflight_);
}

std::optional<NodeId> Session::streaming_source() const {
  if (!active() || !inflight_) return std::nullopt;
  return metrics_.cluster_sources.back();
}

void Session::finalize_playback() {
  // Reconstruct the playback timeline from cluster completion times.
  // Playback begins once `prebuffer_clusters` clusters have arrived; each
  // cluster plays for part_size * 8 / bitrate seconds; a cluster arriving
  // after the playhead reached it is a rebuffer event.
  const std::size_t done = metrics_.cluster_completed.size();
  if (done == 0) return;

  const std::size_t prebuffer =
      std::min(options_.prebuffer_clusters, part_sizes_.size());
  if (done < prebuffer) return;  // never started playing

  // Playback begins once the prebuffer is in — or once the user unpauses,
  // whichever is later.
  const SimTime buffered = metrics_.cluster_completed[prebuffer - 1];
  const double start = advance_playhead(buffered.seconds(), Duration{0.0});
  metrics_.playback_started_at = SimTime{start};

  double playhead = start;
  for (std::size_t k = 0; k < done; ++k) {
    const double arrival = metrics_.cluster_completed[k].seconds();
    if (arrival > playhead) {
      // Stall: the playhead waited for this cluster.
      metrics_.rebuffer_seconds += arrival - playhead;
      ++metrics_.rebuffer_events;
      playhead = arrival;
    }
    playhead = advance_playhead(
        playhead,
        Duration{part_sizes_[k].megabits() / video_.bitrate.value()});
  }
  if (metrics_.finished) {
    metrics_.playback_finished_at = SimTime{playhead};
  }
}

void Session::finish(SimTime now) {
  if (pause_started_) resume();  // close an open pause at "now"
  done_ = true;
  metrics_.finished = true;
  metrics_.download_completed_at = now;
  const double span = now - metrics_.requested_at;
  if (span > 0.0) {
    metrics_.mean_delivered_rate = Mbps{video_.size.megabits() / span};
  }
  finalize_playback();
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    trace_session(sim_.obs(), "session.finish", trace_id_,
                  {{"switches", obs::num(static_cast<std::uint64_t>(
                       metrics_.server_switches))}});
    tr->async_end(obs::Subsystem::kSession, "session", trace_id_);
  }
  if (on_done_) on_done_(*this);
}

void Session::fail(SimTime now, const std::string& reason) {
  if (pause_started_) resume();  // close an open pause at "now"
  cancel_watchdog();
  done_ = true;
  metrics_.failed = true;
  metrics_.failure_reason = reason;
  metrics_.download_completed_at = now;
  if (inflight_ && transfers_.active(*inflight_)) {
    transfers_.cancel(*inflight_);
  }
  inflight_.reset();
  inflight_path_.clear();
  finalize_playback();
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    trace_session(sim_.obs(), "session.fail", trace_id_,
                  {{"reason", reason}});
    tr->async_end(obs::Subsystem::kSession, "session", trace_id_);
  }
  if (on_done_) on_done_(*this);
}

}  // namespace vod::stream
