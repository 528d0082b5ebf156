#include "stream/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contract.h"
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
                 DoneCallback on_done, std::optional<UserClass> user_class)
    : sim_(sim),
      transfers_(transfers),
      policy_(policy),
      video_(std::move(video)),
      on_done_(std::move(on_done)),
      prebuffer_clusters_(options.prebuffer_clusters),
      home_(home),
      user_class_(user_class) {
  require(home.valid(), "Session: invalid home node");
  require(!(cluster_size.value() <= 0.0),
      "Session: cluster size must be positive");
  require(prebuffer_clusters_ != 0,
      "Session: prebuffer must be >= 1 cluster");
  double stall_timeout = 0.0;
  if (options.stall_timeout_seconds == kAutoStallTimeout) {
    stall_timeout = 3.0 * cluster_size.megabits() / kFlowCap.value();
  } else if (options.stall_timeout_seconds > 0.0) {
    stall_timeout = options.stall_timeout_seconds;  // infinity disables
  } else {
    fail_require(
        "Session: stall timeout must be positive, infinity, or "
        "kAutoStallTimeout");
  }
  // Class weight and patience; a classless session keeps weight 1 and the
  // unscaled timeout (scaling infinity keeps the watchdog disabled).
  if (user_class_) {
    const ClassPolicy& policy = class_policy(*user_class_);
    flow_weight_ = policy.flow_weight;
    stall_timeout *= policy.stall_timeout_scale;
  }
  if (std::isfinite(stall_timeout)) {
    watchdog_ = &sim_.timer_lane(Duration{stall_timeout}, &on_watchdog);
  }
  // The striping rule defines the cluster boundaries.  A retry replaces
  // its cluster's source entry, so neither record outgrows the count.
  part_sizes_ = storage::part_sizes(video_.size, cluster_size);
  metrics_.cluster_sources.reserve(part_sizes_.size());
  metrics_.cluster_completed.reserve(part_sizes_.size());
}

Session::~Session() {
  cancel_watchdog();
  drop_inflight();
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
  auto selection = policy_.select_cluster(home_, video_.id, index);
  if (!selection) {
    fail(now, "no server can provide the title");
    return;
  }

  if (!metrics_.cluster_sources.empty() &&
      metrics_.cluster_sources.back() != selection->server) {
    ++metrics_.server_switches;
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

  inflight_route_ = std::move(selection->route);
  const std::vector<LinkId>& links = inflight_route_->links;
  const Mbps cap = links.empty() ? kLocalRate : kFlowCap;
  inflight_ = transfers_.start_transfer(
      links, part_sizes_[index], cap,
      [this, index](SimTime t) { on_cluster_done(index, t); },
      flow_weight_);

  if (watchdog_ != nullptr) watchdog_->arm(*this);
}

void Session::cancel_watchdog() {
  if (watchdog_ != nullptr) watchdog_->disarm(*this);
}

void Session::on_watchdog(sim::TimerLane::Hook& hook, SimTime now) {
  static_cast<Session&>(hook).on_stall_timeout(now);
}

void Session::on_stall_timeout(SimTime now) {
  // Every path that ends a fetch disarms its watchdog, so a firing one
  // belongs to the cluster still in flight.
  ensure(inflight_.has_value(), "Session: watchdog fired with no fetch");
  // A transfer still delivering is congested, not dead: let it run and
  // check again one timeout from now.
  if (transfers_.active(*inflight_) &&
      transfers_.current_rate(*inflight_) >= kStallRateFloor) {
    watchdog_->arm(*this);
    return;
  }
  // The cluster is overdue: abandon the transfer and re-select a source.
  // (The flow may already be gone if the source was black-holed.)
  // One allocation epoch spans the abandon + the retry's replacement flow.
  const net::FluidNetwork::BatchGuard epoch =
      transfers_.network().defer_reallocate();
  drop_inflight();
  ++metrics_.stall_retries;
  ++retries_this_cluster_;
  // Forget the abandoned source so a return to it counts as a new choice.
  metrics_.cluster_sources.pop_back();
  if (retries_this_cluster_ > kMaxClusterStallRetries) {
    fail(now, "cluster stalled beyond retry budget");
    return;
  }
  if (metrics_.stall_retries > kMaxSessionStallRetries) {
    fail(now, "session stalled beyond total retry budget");
    return;
  }
  trace_session(sim_.obs(), "session.stall", trace_id_,
                {{"cluster", obs::num(static_cast<std::uint64_t>(
                      next_cluster_))},
                 {"retries", obs::num(static_cast<std::uint64_t>(
                      metrics_.stall_retries))}});
  fetch_next_cluster(now);
}

void Session::on_cluster_done(std::size_t index, SimTime now) {
  ensure(index == metrics_.cluster_completed.size(),
      "Session: clusters completed out of order");
  cancel_watchdog();
  drop_inflight();
  retries_this_cluster_ = 0;
  metrics_.cluster_completed.push_back(now);
  ++next_cluster_;
  if (next_cluster_ == part_sizes_.size()) {
    finish(now);
  } else {
    fetch_next_cluster(now);
  }
}

void Session::drop_inflight() {
  if (inflight_ && transfers_.active(*inflight_)) {
    transfers_.cancel(*inflight_);
  }
  inflight_.reset();
  inflight_route_.reset();
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
  drop_inflight();
  metrics_.cluster_sources.pop_back();
  ++metrics_.proactive_failovers;
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

const std::vector<LinkId>& Session::inflight_links() const {
  static const std::vector<LinkId> kNoLinks;
  return inflight_route_ ? inflight_route_->links : kNoLinks;
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
      std::min(prebuffer_clusters_, part_sizes_.size());
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
  drop_inflight();
  finalize_playback();
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    trace_session(sim_.obs(), "session.fail", trace_id_,
                  {{"reason", reason}});
    tr->async_end(obs::Subsystem::kSession, "session", trace_id_);
  }
  if (on_done_) on_done_(*this);
}

}  // namespace vod::stream
