// Timed data transfers over the fluid network.
//
// A transfer is a flow plus a byte count: the manager tracks remaining bytes
// as rates evolve (other transfers starting/stopping, background traffic
// shifting) and fires a completion callback at the simulated instant the
// last byte lands.  The streaming layer builds cluster fetches on top of
// this.
//
// Transfers are grouped by fluid bundle into lanes (see lanes_).  Progress
// is an integer count of 2^-30 MB units per lane, a closed form of time
// since the lane's last rate change.  A network mutation costs work per
// lane that changed, not per lane: the fill lists the bundles whose rate
// moved, a start or stop that moves a lane's root marks the lane, and an
// indexed min-heap of lane due instants gives the next completion and the
// few lanes a settle must read.  Every priority structure here is an
// indexed heap (common/indexed_heap.h).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/fluid.h"
#include "sim/simulation.h"

namespace vod::net {

/// Drives transfers to completion inside a Simulation.  Progress is exact:
/// between refresh points rates are constant — every TrafficModel holds its
/// load until next_change_after, and the manager wakes at each such change
/// — so each lane's served count grows linearly from its last rate change
/// and completion times are solved in closed form.  A size must be finite,
/// positive and at most 2^32 MB; a start that would push its lane's
/// counter past 2^62 units is rejected.
class TransferManager {
 public:
  using CompletionCallback = std::function<void(SimTime)>;

  /// Both references must outlive the manager.
  TransferManager(sim::Simulation& sim, FluidNetwork& network);
  ~TransferManager();

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  /// Starts moving `size` across `path` (empty = local, runs at `rate_cap`).
  /// `on_complete` fires exactly once unless the transfer is cancelled.
  /// `weight` is the flow's share multiplier in the fluid network's
  /// weighted max-min fill (1 = the classless default).
  FlowId start_transfer(const std::vector<LinkId>& path, MegaBytes size,
                        Mbps rate_cap, CompletionCallback on_complete,
                        std::uint32_t weight = 1);

  /// Aborts an in-flight transfer (no callback); throws if unknown.
  void cancel(FlowId id);

  [[nodiscard]] bool active(FlowId id) const {
    return transfers_.contains(id);
  }
  [[nodiscard]] MegaBytes remaining(FlowId id) const;
  [[nodiscard]] Mbps current_rate(FlowId id) const;
  [[nodiscard]] std::size_t active_count() const {
    return transfers_.size();
  }

  /// The network transfers run over — exposed so callers pairing a cancel
  /// with a restart (failover) can wrap both in one allocation epoch via
  /// FluidNetwork::defer_reallocate().
  [[nodiscard]] FluidNetwork& network() { return network_; }

  /// Lanes read so far by settles and re-plans: the per-mutation work,
  /// which scales with the lanes that changed or are about to complete.
  [[nodiscard]] std::uint64_t lane_visit_count() const {
    return lane_visits_;
  }

 private:
  friend class TransferAudit;  // the test-only lane auditor (tests/support)

  struct Transfer {
    CompletionCallback on_complete;
    std::uint32_t lane;  // the flow's bundle
    std::uint32_t pos;   // index into the lane's members (heap back-pointer)
  };

  /// A lane member: the served level at which the transfer is done.
  struct Member {
    std::int64_t finish;
    FlowId id;
  };
  /// The transfers of one fluid bundle, whose members all move at the
  /// bundle's rate: a binary min-heap on finish.  Every move of a member
  /// updates its Transfer::pos.
  struct Lane {
    std::vector<Member> members;
    /// Progress in units: served(t) = base_served +
    /// llround(rate x (t - base_time) x units per megabit).
    std::int64_t base_served = 0;
    double base_time = 0.0;
    double rate = 0.0;  // Mbps, the bundle's rate as of the last rebase
    std::int64_t served = 0;  // served as of the lane's last settle
    /// Index into due_heap_, or kUnqueued while the lane is empty or
    /// severed.
    std::uint32_t due_pos = kUnqueued;
    bool dirty = false;  // on dirty_lanes_
  };

  /// A due_heap_ entry: a moving lane keyed at due_time(lane).
  struct DueEntry {
    double at;
    std::uint32_t lane;
  };
  static constexpr std::uint32_t kUnqueued =
      std::numeric_limits<std::uint32_t>::max();
  /// A member within one unit (about 1e-9 MB) of its finish is done: the
  /// closed-form completion instant lands within a rounding of it.
  static constexpr std::int64_t kDoneUnits = 1;

  static constexpr auto by_finish = [](const Member& a, const Member& b) {
    return a.finish < b.finish;
  };
  static constexpr auto by_due = [](const DueEntry& a, const DueEntry& b) {
    return a.at < b.at;
  };
  /// The lane heaps' `moved` callback: points the member's Transfer at its
  /// position, and a new root (which moves the lane's due instant) marks
  /// the lane dirty.  Members below the root leave the due instant alone.
  auto track_member() {
    return [this](const Member& member, std::size_t pos) {
      Transfer& transfer =
          transfers_.at(member.id, "TransferManager: lane out of sync");
      transfer.pos = static_cast<std::uint32_t>(pos);
      if (pos == 0) mark_dirty(transfer.lane);
    };
  }
  /// due_heap_'s `moved` callback: keeps Lane::due_pos current.
  auto track_due() {
    return [this](const DueEntry& entry, std::size_t pos) {
      lanes_[entry.lane].due_pos = static_cast<std::uint32_t>(pos);
    };
  }

  /// Drops a transfer from its lane and the store (not from the network).
  void erase_transfer(FlowId id);
  /// Adds a completion candidate to drained_.
  void queue_drained(FlowId id);

  /// A lane's served count at time `t` (>= its base_time); saturates at
  /// the counter ceiling, past which every member is done.
  static std::int64_t served_at(const Lane& lane, double t);
  /// The first instant at which the root of a non-empty lane moving at a
  /// positive rate is done (before its base_time if already done there):
  /// a pure function of the root's finish, base_served, base_time and rate.
  static double due_time(const Lane& lane);
  /// Moves one lane's served count to `now`, queueing the members that
  /// crossed the done line on the way.
  void settle_lane(Lane& lane, double now);
  /// Queues a lane for the next re-plan (its root or rate moved, or it
  /// emptied).
  void mark_dirty(std::uint32_t lane);

  /// Inserts, re-keys or drops a lane's due_heap_ entry.
  void set_due(std::uint32_t lane, double at);
  void clear_due(std::uint32_t lane);

  /// Brings every lane whose root may have crossed the done line by `now`
  /// to `now` (see lanes_), without touching the network clock.
  void settle_bytes(SimTime now);
  /// settle_bytes + advance the network clock.
  void advance_progress(SimTime now);
  /// Completes transfers that have drained; callbacks may start new ones.
  void complete_finished(SimTime now);
  /// Re-plans the dirty and re-rated lanes and schedules the next wake-up
  /// (earliest completion or traffic change).
  void reschedule(SimTime now);
  /// reschedule, unless an allocation epoch is still open.
  void replan(SimTime now);
  void refresh(SimTime now);

  /// Network change hooks: when something *else* mutates the FluidNetwork
  /// (the SNMP module advancing time, a link failing), settle progress at
  /// the old rates first and re-plan wake-ups after.
  void on_network_pre_change();
  void on_network_post_change();

  /// RAII reentrancy guard: the manager's own network mutations must not
  /// re-trigger the hooks.
  class BusyScope {
   public:
    explicit BusyScope(int& depth) : depth_(depth) { ++depth_; }
    ~BusyScope() { --depth_; }
    BusyScope(const BusyScope&) = delete;
    BusyScope& operator=(const BusyScope&) = delete;

   private:
    int& depth_;
  };

  sim::Simulation& sim_;
  FluidNetwork& network_;
  SlotMap<FlowId, Transfer> transfers_;
  /// Indexed by bundle: lanes_[b] holds exactly the live transfers whose
  /// flow belongs to bundle b.  Membership is fixed for a flow's life, and
  /// a bundle index is reused only once its members are all gone; a lane
  /// that empties resets its counters, so an index's lane starts from zero
  /// whenever its bundle is replaced.
  ///
  /// Progress is integer: every member of a lane moves at one rate, so one
  /// served count measures them all, and a member joining at level s with
  /// z units is done at finish = s + z, fixed for its life.  served is a
  /// closed form of time from the lane's base, which reschedule moves only
  /// when the bundle's rate really changed (after settling the lane to
  /// now).  So served, and every completion instant, depend only on the
  /// rate history, not on how often or when a settle reads them.
  ///
  /// Each lane is a binary min-heap on finish, which never changes, so a
  /// settle leaves the heap alone: it updates the counter and visits the
  /// members within the done line (finish - served at most one unit),
  /// queueing those that newly crossed it, O(drained).  Members share
  /// served, so the lane's next completion is its root, due at the instant
  /// served reaches the root's finish.  The heap layout orders the members
  /// a settle queues, but drained_ hands them out lowest flow id first, so
  /// completions do not depend on it.
  ///
  /// A mutation touches only the lanes that changed.  reschedule visits the
  /// lanes on dirty_lanes_ (a start or stop gave them a new root, or
  /// emptied them) and on the fill's rate-change list, and keys each
  /// moving lane at due_time(lane) in due_heap_, whose root is the next
  /// completion.  A member joining or leaving below the root moves no due
  /// instant.  A settle reads only the lanes keyed within kSettleSlack of
  /// now: a root crosses the done line up to a unit and a half before its
  /// closed-form due instant, and no other lane can hold a member that
  /// crossed.
  std::vector<Lane> lanes_;
  /// Lanes to re-plan at the next reschedule.
  std::vector<std::uint32_t> dirty_lanes_;
  /// Indexed binary min-heap on due instant of the lanes that are moving
  /// (non-empty, positive rate); Lane::due_pos points back into it.
  std::vector<DueEntry> due_heap_;
  std::uint64_t lane_visits_ = 0;
  /// Completion candidates, a binary min-heap on flow id: transfers whose
  /// remaining crossed the done line during a settle (or were born at or
  /// below it).  complete_finished pops them lowest id first instead of
  /// rescanning every transfer per completion; entries cancelled in the
  /// meantime are skipped by a liveness check.
  std::vector<FlowId> drained_;
  SimTime last_progress_{0.0};
  /// The next wake-up (refresh).  Re-keyed in place while pending; once it
  /// fires or is cancelled the queue rejects it as stale.
  sim::EventHandle wake_;
  int busy_depth_ = 0;
};

}  // namespace vod::net
