#include "net/transfer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contract.h"
#include "common/indexed_heap.h"

namespace vod::net {

namespace {
// Progress is counted in integer units of 2^-30 MB.
constexpr double kUnitsPerMb = 0x1p30;
constexpr double kUnitsPerMegabit = kUnitsPerMb / 8.0;
// The ceiling of every finish and served count (2^32 MB): half the int64
// range, so the sum of two never overflows.
constexpr std::int64_t kMaxUnits = std::int64_t{1} << 62;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
// drained_ is keyed by flow id alone, with no back-pointer to keep.
constexpr auto kUntracked = [](FlowId, std::size_t) {};
// How far past now a settle reads the due-heap.  A root crosses the done
// line when served is within a unit and a half of its finish, so up to that
// much progress before its closed-form due instant; four units at the
// slowest moving rate covers every lane.
constexpr double kSettleSlack =
    4.0 / (kMinFlowRate.value() * kUnitsPerMegabit);

// std::llround for 0 <= x < 2^62 (half away from zero), without the
// library call: x minus its truncation is exact in that range.
std::int64_t round_units(double x) {
  const auto whole = static_cast<std::int64_t>(x);
  return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}
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

FlowId TransferManager::start_transfer(const std::vector<LinkId>& path,
                                       MegaBytes size, Mbps rate_cap,
                                       CompletionCallback on_complete,
                                       std::uint32_t weight) {
  require(std::isfinite(size.value()) && size.value() > 0.0,
      "TransferManager::start_transfer: size must be finite and positive");
  require(size.value() * kUnitsPerMb <= static_cast<double>(kMaxUnits),
      "TransferManager::start_transfer: size exceeds 2^32 MB");
  // start_flow checks the cap too, but only after the clock step: reject a
  // bad one before any state moves.
  require(rate_cap.value() > 0.0,
      "TransferManager::start_transfer: cap must be positive");
  require(on_complete, "TransferManager::start_transfer: empty callback");
  const std::int64_t units = round_units(size.value() * kUnitsPerMb);
  const SimTime now = sim_.now();
  const BusyScope guard{busy_depth_};
  FlowId id;
  bool overflow = false;
  {
    // The clock step and the new flow share one allocation epoch: one
    // fair-share solve for the instant, not one per mutation.
    const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
    advance_progress(now);
    id = network_.start_flow(path, rate_cap, weight);
    const std::uint32_t index = network_.flow_bundle(id);
    if (lanes_.size() <= index) lanes_.resize(index + 1);
    Lane& lane = lanes_[index];
    // The newcomer's finish counts from the lane's level now; settling the
    // lane first also queues any member that crossed the line meanwhile.
    if (!lane.members.empty()) settle_lane(lane, now.seconds());
    // Only a lane that never empties can climb this far; undo the flow
    // inside the epoch and reject once the manager is consistent again.
    overflow = lane.served > kMaxUnits - units;
    if (overflow) {
      network_.stop_flow(id);
    } else {
      transfers_.insert(id, Transfer{std::move(on_complete), index, 0});
      indexed_heap::push<2>(lane.members, Member{lane.served + units, id},
                            by_finish, track_member());
      // A transfer born within the done line never crosses it during a
      // settle, so it becomes a completion candidate outright.
      if (units <= kDoneUnits) queue_drained(id);
    }
  }
  replan(now);
  require(!overflow,
      "TransferManager::start_transfer: lane counter would overflow");
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
  const std::uint32_t index = transfer.lane;
  const std::uint32_t pos = transfer.pos;
  transfers_.erase(id);
  Lane& lane = lanes_[index];
  // The lane's last member fills the hole; a new root marks the lane dirty.
  indexed_heap::erase<2>(lane.members, pos, by_finish, track_member());
  if (lane.members.empty()) {
    // The next bundle to take this index starts from zero, and the re-plan
    // takes the lane off the due-heap.
    mark_dirty(index);
    lane.base_served = lane.served = 0;
    lane.base_time = lane.rate = 0.0;
  }
}

void TransferManager::queue_drained(FlowId id) {
  indexed_heap::push<2>(drained_, id, std::less<>{}, kUntracked);
}

MegaBytes TransferManager::remaining(FlowId id) const {
  const Transfer& transfer =
      transfers_.at(id, "TransferManager::remaining: unknown transfer");
  // Report progress as of "now" without mutating state.
  const Lane& lane = lanes_[transfer.lane];
  const std::int64_t left =
      lane.members[transfer.pos].finish -
      served_at(lane, sim_.now().seconds());
  return MegaBytes{static_cast<double>(std::max<std::int64_t>(left, 0)) /
                   kUnitsPerMb};
}

Mbps TransferManager::current_rate(FlowId id) const {
  require_found(transfers_.contains(id),
      "TransferManager::current_rate: unknown");
  return network_.flow_rate(id);
}

std::int64_t TransferManager::served_at(const Lane& lane, double t) {
  const double moved = lane.rate * (t - lane.base_time) * kUnitsPerMegabit;
  // Also catches NaN (an infinite rate at t = base_time).
  if (!(moved < static_cast<double>(kMaxUnits))) return kMaxUnits;
  return std::min(lane.base_served + round_units(moved), kMaxUnits);
}

double TransferManager::due_time(const Lane& lane) {
  const std::int64_t root = lane.members.front().finish;
  const std::int64_t left = root - lane.base_served;
  if (left <= kDoneUnits) return lane.base_time;
  double due = lane.base_time +
               static_cast<double>(left) / (lane.rate * kUnitsPerMegabit);
  // The closed form lands within a rounding of the finish.  Step past an
  // instant at which the root is still short of the done line, so the
  // wake-up always completes it instead of re-arming at the same time.
  while (root - served_at(lane, due) > kDoneUnits) {
    due = std::nextafter(due, kInfinity);
  }
  return due;
}

void TransferManager::settle_lane(Lane& lane, double now) {
  const std::int64_t was = lane.served;
  const std::int64_t served = served_at(lane, now);
  // Only members within the done line are visited, and the root holds the
  // lane's smallest finish: most settles stop there.  served only rises,
  // so a member is queued exactly once, when it first crosses.
  indexed_heap::visit<2>(
      lane.members,
      [served](const Member& m) { return m.finish - served <= kDoneUnits; },
      [this, was](const Member& m) {
        if (m.finish - was > kDoneUnits) queue_drained(m.id);
      });
  lane.served = served;
}

void TransferManager::settle_bytes(SimTime now) {
  // served is a closed form of time since the lane's last rate change, so
  // a lane need not be settled to stay exact: only a lane whose root may
  // have crossed the done line must be, to queue it for completion now.
  // Those are keyed within the slack of now in the due-heap.  A dirty lane
  // may be keyed at a stale instant until the next re-plan, which an epoch
  // held across a clock step defers, so it is settled too.
  if (now > last_progress_) {
    const double limit = now.seconds() + kSettleSlack;
    indexed_heap::visit<2>(
        due_heap_,
        [limit](const DueEntry& entry) { return !(entry.at > limit); },
        [this, now](const DueEntry& entry) {
          ++lane_visits_;
          settle_lane(lanes_[entry.lane], now.seconds());
        });
    for (const std::uint32_t b : dirty_lanes_) {
      Lane& lane = lanes_[b];
      if (lane.members.empty() || lane.rate == 0.0) continue;
      ++lane_visits_;
      settle_lane(lane, now.seconds());
    }
  }
  last_progress_ = now;
}

void TransferManager::mark_dirty(std::uint32_t lane) {
  if (lanes_[lane].dirty) return;
  lanes_[lane].dirty = true;
  dirty_lanes_.push_back(lane);
}

void TransferManager::set_due(std::uint32_t lane, double at) {
  const std::uint32_t pos = lanes_[lane].due_pos;
  if (pos == kUnqueued) {
    indexed_heap::push<2>(due_heap_, DueEntry{at, lane}, by_due, track_due());
  } else if (due_heap_[pos].at != at) {
    due_heap_[pos].at = at;
    indexed_heap::sift<2>(due_heap_, pos, by_due, track_due());
  }
}

void TransferManager::clear_due(std::uint32_t lane) {
  const std::uint32_t pos = lanes_[lane].due_pos;
  if (pos == kUnqueued) return;
  lanes_[lane].due_pos = kUnqueued;
  indexed_heap::erase<2>(due_heap_, pos, by_due, track_due());
}

void TransferManager::advance_progress(SimTime now) {
  settle_bytes(now);
  if (network_.time() < now) network_.set_time(now);
}

void TransferManager::complete_finished(SimTime now) {
  // Only transfers in the drained candidate list can be done: a transfer
  // enters it when its lane's settled served count crosses the done line
  // (or at birth, for degenerate sizes), and stays done since served only
  // rises, so the sweep costs O(drained), not O(active) per completion.
  if (drained_.empty()) return;
  // One allocation epoch for the whole sweep: a burst of simultaneous
  // completions (and whatever transfers the callbacks start) re-solves the
  // fair shares once when the guard releases, not once per stop_flow; the
  // caller reschedules after this returns, reading the fresh rates.
  const FluidNetwork::BatchGuard epoch = network_.defer_reallocate();
  while (!drained_.empty()) {
    // Deterministic order: lowest flow id first, also among the candidates
    // the callbacks queue; entries cancelled since they drained are dead
    // and skipped.
    const FlowId done = drained_.front();
    indexed_heap::erase<2>(drained_, 0, std::less<>{}, kUntracked);
    Transfer* transfer = transfers_.find(done);
    if (transfer == nullptr) continue;
    CompletionCallback callback = std::move(transfer->on_complete);
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
  ensure(last_progress_ == now,
      "TransferManager::reschedule: progress not settled to now");
  // Rates are fresh here (no epoch is open) and progress is settled to
  // now.  Only a lane with a new root, or whose bundle the fill re-rated,
  // can have a new due instant; every other lane keeps its key.
  for (const std::uint32_t b : network_.rate_changes()) {
    if (b < lanes_.size()) mark_dirty(b);
  }
  network_.clear_rate_changes();
  for (const std::uint32_t b : dirty_lanes_) {
    Lane& lane = lanes_[b];
    lane.dirty = false;
    ++lane_visits_;
    if (lane.members.empty()) {
      clear_due(b);
      continue;
    }
    const double rate = network_.bundle_rate(b).value();
    if (rate != lane.rate) {
      // Rebase onto the new rate: bring served to now at the old one
      // (queueing any member that crossed), then restart the closed form.
      settle_lane(lane, now.seconds());
      lane.base_served = lane.served;
      lane.base_time = now.seconds();
      lane.rate = rate;
    }
    if (!(lane.rate > 0.0)) {  // severed: nothing moves
      clear_due(b);
      continue;
    }
    set_due(b, due_time(lane));
  }
  dirty_lanes_.clear();

  double next = kInfinity;
  if (!transfers_.empty()) {
    // Earliest completion: the due-heap's root (see lanes_).
    if (!due_heap_.empty()) next = due_heap_.front().at;
    // Wake at background-traffic changes too, so rates stay faithful.
    next = std::min(next, network_.next_traffic_change(now).seconds());
    // A root already done when its lane was rebased is due now.
    next = std::max(next, now.seconds());
  }

  // Re-keying the pending wake-up in place gives it a fresh sequence
  // number, so it lands exactly where a cancel plus a new schedule would.
  sim::EventQueue& queue = sim_.queue();
  if (next == kInfinity) {
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
