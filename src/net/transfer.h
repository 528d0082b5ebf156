// Timed data transfers over the fluid network.
//
// A transfer is a flow plus a byte count: the manager tracks remaining bytes
// as rates evolve (other transfers starting/stopping, background traffic
// shifting) and fires a completion callback at the simulated instant the
// last byte lands.  The streaming layer builds cluster fetches on top of
// this.
//
// Transfers are grouped by fluid bundle into lanes (see lanes_), so
// settling progress costs one rate lookup per bundle plus a contiguous loop
// over the lane's remaining sizes, and finding the next completion costs one
// read of each lane's heap root.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/fluid.h"
#include "sim/simulation.h"

namespace vod::net {

/// Drives transfers to completion inside a Simulation.  Progress is exact:
/// between refresh points rates are constant, so remaining bytes decrease
/// linearly and completion times are solved in closed form.
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
  FlowId start_transfer(std::vector<LinkId> path, MegaBytes size,
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

 private:
  struct Transfer {
    CompletionCallback on_complete;
    std::uint32_t lane;  // the flow's bundle
    std::uint32_t pos;   // index into the lane's arrays (heap back-pointer)
  };

  /// The transfers of one fluid bundle, whose members all move at the
  /// bundle's rate: a binary min-heap on remaining, the two arrays moving
  /// in step.  Every move of a member updates its Transfer::pos.
  struct Lane {
    std::vector<double> remaining;  // MB still to move, per transfer
    std::vector<FlowId> ids;
  };

  /// Drops a transfer from its lane and the store (not from the network).
  void erase_transfer(FlowId id);
  /// Writes a member at `pos` of `lane` and points its Transfer there.
  void place(Lane& lane, std::uint32_t pos, double remaining, FlowId id);
  /// Restore the lane's heap order for the member at `pos`.
  void sift_up(Lane& lane, std::uint32_t pos);
  void sift_down(Lane& lane, std::uint32_t pos);

  /// Applies linear progress at current rates up to `now`, without touching
  /// the network clock.
  void settle_bytes(SimTime now);
  /// settle_bytes + advance the network clock.
  void advance_progress(SimTime now);
  /// Completes transfers that have drained; callbacks may start new ones.
  void complete_finished(SimTime now);
  /// Schedules the next wake-up (earliest completion or traffic change).
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
  /// a bundle index is reused only once its members are all gone, so an
  /// index's lane is empty whenever its bundle is replaced.
  ///
  /// Settling computes one rate x elapsed / 8 per lane and subtracts it in
  /// a contiguous loop.  The next completion is the lane minimum of
  /// now + r x 8 / rate, reached at the lane's smallest r: correctly
  /// rounded multiplication, division by a positive rate and addition are
  /// all monotone, so the earliest completion is bit-for-bit what a walk
  /// over every transfer finds (a severed lane, rate 0, yields inf or NaN
  /// either way, which the min ignores).
  ///
  /// Each lane is a min-heap on remaining, so its smallest r is the root.
  /// A settle never breaks the heap: it maps every member of a lane through
  /// the same x -> max(0, fl(x - m)), which is monotone non-decreasing, so
  /// a parent no larger than its child stays no larger.  The root is thus
  /// bit-equal to the lane minimum a scan finds.  The heap layout also
  /// orders the members a settle appends to drained_, but complete_finished
  /// always picks the lowest flow id, so completions do not depend on it.
  std::vector<Lane> lanes_;
  /// Completion candidates: transfers whose remaining crossed the done
  /// epsilon during a settle (or were born at/below it).  complete_finished
  /// drains this instead of rescanning every transfer per completion;
  /// entries cancelled in the meantime are skipped by a liveness check.
  std::vector<FlowId> drained_;
  SimTime last_progress_{0.0};
  /// The next wake-up (refresh).  Re-keyed in place while pending; once it
  /// fires or is cancelled the queue rejects it as stale.
  sim::EventHandle wake_;
  int busy_depth_ = 0;
};

}  // namespace vod::net
