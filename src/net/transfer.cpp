#include "net/transfer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contract.h"

namespace vod::net {

namespace {
// Remaining sizes at or below this are "done" (guards float drift).
constexpr double kDoneEpsilonMb = 1e-9;
}  // namespace

TransferManager::TransferManager(sim::Simulation& sim, FluidNetwork& network)
    : sim_(sim), network_(network) {
  network_.set_change_hooks([this] { on_network_pre_change(); },
                            [this] { on_network_post_change(); });
  network_.set_obs(&sim_.obs());
}

TransferManager::~TransferManager() {
  network_.set_change_hooks({}, {});
  network_.set_obs(nullptr);
  sim_.queue().cancel(wake_);
}

void TransferManager::on_network_pre_change() {
  if (busy_depth_ > 0) return;
  settle_bytes(sim_.now());
}

void TransferManager::on_network_post_change() {
  if (busy_depth_ > 0) return;
  const BusyScope guard{busy_depth_};
  complete_finished(sim_.now());
  reschedule(sim_.now());
}

FlowId TransferManager::start_transfer(std::vector<LinkId> path,
                                       MegaBytes size, Mbps rate_cap,
                                       CompletionCallback on_complete,
                                       std::uint32_t weight) {
  require(!(size.value() <= 0.0),
      "TransferManager::start_transfer: size must be positive");
  require(on_complete, "TransferManager::start_transfer: empty callback");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  FlowId id;
  {
    // The clock step and the new flow share one allocation epoch: one
    // fair-share solve for the instant, not one per mutation.
    const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
    advance_progress(now);
    id = network_.start_flow(std::move(path), rate_cap, weight);
    const std::uint32_t lane = network_.flow_bundle(id);
    if (lanes_.size() <= lane) lanes_.resize(lane + 1);
    Lane& members = lanes_[lane];
    const auto pos = static_cast<std::uint32_t>(members.ids.size());
    transfers_.insert(id, Transfer{std::move(on_complete), lane, pos});
    members.remaining.push_back(size.value());
    members.ids.push_back(id);
    sift_up(members, pos);
    // A transfer born at or below the done epsilon never crosses it during
    // a settle, so it becomes a completion candidate outright.
    if (size.value() <= kDoneEpsilonMb) drained_.push_back(id);
  }
  replan(now);
  return id;
}

void TransferManager::cancel(FlowId id) {
  require_found(transfers_.contains(id),
      "TransferManager::cancel: unknown transfer");
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  {
    // One allocation epoch for the clock step and the stop.
    const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
    advance_progress(now);
    erase_transfer(id);
    network_.stop_flow(id);
  }
  replan(now);
}

void TransferManager::erase_transfer(FlowId id) {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager: unknown transfer");
  Lane& lane = lanes_[transfer.lane];
  const std::uint32_t pos = transfer.pos;
  transfers_.erase(id);
  // Move the lane's last member into the hole, then sift it whichever way
  // its value needs.
  const double last_remaining = lane.remaining.back();
  const FlowId last_id = lane.ids.back();
  lane.remaining.pop_back();
  lane.ids.pop_back();
  if (pos == lane.ids.size()) return;
  place(lane, pos, last_remaining, last_id);
  if (pos > 0 && last_remaining < lane.remaining[(pos - 1) / 2]) {
    sift_up(lane, pos);
  } else {
    sift_down(lane, pos);
  }
}

void TransferManager::place(Lane& lane, std::uint32_t pos, double remaining,
                            FlowId id) {
  lane.remaining[pos] = remaining;
  lane.ids[pos] = id;
  transfers_.at(id, "TransferManager: lane out of sync").pos = pos;
}

void TransferManager::sift_up(Lane& lane, std::uint32_t pos) {
  const double remaining = lane.remaining[pos];
  const FlowId id = lane.ids[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!(remaining < lane.remaining[parent])) break;
    place(lane, pos, lane.remaining[parent], lane.ids[parent]);
    pos = parent;
  }
  place(lane, pos, remaining, id);
}

void TransferManager::sift_down(Lane& lane, std::uint32_t pos) {
  const double remaining = lane.remaining[pos];
  const FlowId id = lane.ids[pos];
  const auto size = static_cast<std::uint32_t>(lane.ids.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && lane.remaining[child + 1] < lane.remaining[child]) {
      ++child;
    }
    if (!(lane.remaining[child] < remaining)) break;
    place(lane, pos, lane.remaining[child], lane.ids[child]);
    pos = child;
  }
  place(lane, pos, remaining, id);
}

MegaBytes TransferManager::remaining(FlowId id) const {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager::remaining: unknown transfer");
  // Report progress as of "now" without mutating state.
  const double elapsed = sim_.now() - last_progress_;
  const double moved_mb =
      network_.flow_rate(id).value() * elapsed / 8.0;
  return MegaBytes{std::max(
      0.0, lanes_[transfer.lane].remaining[transfer.pos] - moved_mb)};
}

Mbps TransferManager::current_rate(FlowId id) const {
  require_found(transfers_.contains(id),
      "TransferManager::current_rate: unknown");
  return network_.flow_rate(id);
}

void TransferManager::settle_bytes(SimTime now) {
  // Progress is settled to `now` before every network mutation (here, or
  // through the pre-change hook), and a flow started since the last solve
  // exists only after such a mutation at this same instant.  So a settle
  // that moves bytes sees no such flow: every lane member moves at its
  // bundle's rate.
  const double elapsed = now - last_progress_;
  if (elapsed > 0.0) {
    for (std::uint32_t b = 0; b < lanes_.size(); ++b) {
      Lane& lane = lanes_[b];
      if (lane.ids.empty()) continue;
      const double moved_mb = network_.bundle_rate(b).value() * elapsed / 8.0;
      for (std::size_t i = 0; i < lane.remaining.size(); ++i) {
        const double before = lane.remaining[i];
        lane.remaining[i] = std::max(0.0, before - moved_mb);
        // Record the crossing once: remaining only ever decreases, so a
        // transfer enters the candidate list exactly one time.
        if (before > kDoneEpsilonMb && lane.remaining[i] <= kDoneEpsilonMb) {
          drained_.push_back(lane.ids[i]);
        }
      }
    }
  }
  last_progress_ = now;
}

void TransferManager::advance_progress(SimTime now) {
  settle_bytes(now);
  if (network_.time() < now) network_.set_time(now);
}

void TransferManager::complete_finished(SimTime now) {
  // Only transfers in the drained candidate list can be done: a transfer
  // enters it when its settled remaining crosses the epsilon (or at birth,
  // for degenerate sizes), so the sweep costs O(drained), not O(active)
  // per completion.  Completion is judged on settled `remaining`, never on
  // mid-epoch rates, so the sweep finishes the same transfers the
  // per-mutation solve did.
  if (drained_.empty()) return;
  // One allocation epoch for the whole sweep: a burst of simultaneous
  // completions (and whatever transfers the callbacks start) re-solves the
  // fair shares once when the guard releases, not once per stop_flow; the
  // caller reschedules after this returns, reading the fresh rates.
  const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  for (;;) {
    // Deterministic pick: lowest flow id among the finished candidates
    // (entries cancelled since they drained are dead and skipped).
    FlowId done;
    std::size_t done_at = 0;
    for (std::size_t i = 0; i < drained_.size(); ++i) {
      const FlowId id = drained_[i];
      const Transfer* transfer = transfers_.find(id);
      if (transfer == nullptr ||
          lanes_[transfer->lane].remaining[transfer->pos] > kDoneEpsilonMb) {
        continue;
      }
      if (!done.valid() || id < done) {
        done = id;
        done_at = i;
      }
    }
    if (!done.valid()) {
      drained_.clear();
      break;
    }
    drained_.erase(drained_.begin() + static_cast<std::ptrdiff_t>(done_at));
    CompletionCallback callback =
        std::move(transfers_.at(done,
            "TransferManager: drained transfer vanished").on_complete);
    erase_transfer(done);
    network_.stop_flow(done);
    // The callback may start/cancel transfers; state is consistent here.
    callback(now);
  }
}

void TransferManager::replan(SimTime now) {
  // Inside an enclosing epoch the rates are stale (new flows read 0), and
  // whoever closes it re-plans anyway: the post-change hook when an outside
  // caller (failover, preemption) holds it, refresh or the hook itself when
  // a completion callback started or cancelled this transfer.
  if (!network_.epoch_open()) reschedule(now);
}

void TransferManager::reschedule(SimTime now) {
  double next = std::numeric_limits<double>::infinity();
  if (!transfers_.empty()) {
    // Earliest completion: per lane, at its smallest remaining, the heap
    // root (monotone rounding; see lanes_).  Rates are fresh here: no
    // epoch is open.
    for (std::uint32_t b = 0; b < lanes_.size(); ++b) {
      const Lane& lane = lanes_[b];
      if (lane.ids.empty()) continue;
      next = std::min(next, now.seconds() +
                                MegaBytes{lane.remaining.front()}.megabits() /
                                    network_.bundle_rate(b).value());
    }
    // Wake at background-traffic changes too, so rates stay faithful.
    next = std::min(next, network_.next_traffic_change(now).seconds());
  }

  // Re-keying the pending wake-up in place gives it a fresh sequence
  // number, so it lands exactly where a cancel plus a new schedule would.
  sim::EventQueue& queue = sim_.queue();
  if (next == std::numeric_limits<double>::infinity()) {
    queue.cancel(wake_);
  } else if (!queue.reschedule(wake_, SimTime{next})) {
    wake_ = sim_.schedule_at(SimTime{next}, [this](SimTime t) { refresh(t); });
  }
}

void TransferManager::refresh(SimTime now) {
  const BusyScope guard{busy_depth_};
  {
    // One allocation epoch for the clock step, the completion sweep and
    // whatever transfers its callbacks start: one solve for the instant.
    const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
    advance_progress(now);
    complete_finished(now);
  }
  reschedule(now);
}

}  // namespace vod::net
