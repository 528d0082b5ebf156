// Fluid-flow bandwidth model.
//
// VoD transfers are modelled as fluid flows: each active flow follows a
// fixed link path and receives a max–min fair share of whatever capacity the
// background (non-VoD) traffic leaves free on every link it crosses, further
// limited by its own rate cap (the title's encoding bitrate or a server's
// NIC).  This is the standard abstraction for bandwidth-arithmetic studies —
// and the paper's evaluation is exactly bandwidth arithmetic.
//
// Class-weighted sharing: every flow carries an integer weight (default 1).
// The progressive filling grows each unfrozen flow by delta x weight per
// round, so on a contended link a weight-4 premium flow receives 4x the
// share of a weight-1 background flow.  Borrowing between classes is
// emergent: a heavy flow frozen at its rate cap stops consuming increments,
// and the remaining (lighter) flows keep filling into the capacity it left
// unused — unused premium share spills to lower classes within the same
// allocation epoch, and is reclaimed the instant the premium cap rises.
// Weights are integers so the weighted arithmetic is exact: with every
// weight at 1 each expression reduces bit-for-bit to the unweighted filler
// the paper benches were frozen against.
//
// Scaling note: flows with equal (sorted unique links, rate cap, weight)
// are symmetric under progressive filling — every round grows them by the
// same increment, they freeze in the same round and end at the same rate —
// so the allocator keeps them as one *bundle* (a member count plus the
// shared rate).  A per-link bundle index and per-link weight sums, both
// maintained at flow start/stop, drive each solve, which then costs
// O(rounds x (links + live bundles)) however many flows a bundle holds: on
// a backbone the flows of all sessions run over a few edge-core paths and
// at most three class weights.  used_bandwidth still walks a per-link
// *flow* list ascending by id and adds each member's rate on its own, so
// SNMP readings keep the exact float reduction order of the per-flow code.
// The naive per-flow filler is a test-only oracle (tests/support/
// fluid_reference.h): the allocator must match it bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/slot_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "obs/context.h"

namespace vod::net {

/// Minimum rate any active flow is granted even on a saturated path, so
/// transfers degrade to "very slow" rather than "stuck forever" (a real TCP
/// flow on a congested link still trickles).
inline constexpr Mbps kMinFlowRate{1e-3};

/// The live bandwidth state of the network: background load from a
/// TrafficModel plus our own flows, shared max–min fairly.
///
/// Flow rates are piecewise constant: they change only when the network
/// mutates (time moves, flows start/stop, links fail/recover).  Components
/// that integrate rates over time (TransferManager) register change hooks
/// so they can settle progress at the old rates before a mutation and
/// re-plan after it.
class FluidNetwork {
 public:
  /// Both references must outlive the network.
  FluidNetwork(const Topology& topology, const TrafficModel& traffic);

  // The change hooks and incidence index tie the network to one identity.
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// `pre` runs before any rate-affecting mutation (old rates still in
  /// force); `post` runs after it (new rates in force).  One subscriber —
  /// the transfer manager — is sufficient for this library.
  void set_change_hooks(std::function<void()> pre, std::function<void()> post);

  /// The run whose trace receives `fluid.realloc` events; nullptr (the
  /// default) traces nothing.  The transfer manager wires its simulation's
  /// context next to the change hooks.
  void set_obs(const obs::Context* context) { obs_ = context; }

  /// Moves the background traffic clock (a mutation: the change hooks
  /// fire).  The TrafficModel is re-read, and shares re-solved, only once
  /// the clock leaves the cached step.
  void set_time(SimTime t);
  [[nodiscard]] SimTime time() const { return now_; }

  /// Marks a link up or down (fiber cut, router crash).  Flows crossing a
  /// down link drop to zero rate until it recovers; background traffic on
  /// it reads as zero.
  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const;

  /// Starts a flow across `path` (links in order; may be empty for a purely
  /// local transfer, which then runs at `rate_cap`).  Every link must exist.
  /// `rate_cap` must be positive (not NaN).  `weight` (>= 1) is the flow's
  /// share of each filling increment — the class-weighted max-min knob; 1 is
  /// the classless paper behaviour.
  FlowId start_flow(const std::vector<LinkId>& path, Mbps rate_cap,
                    std::uint32_t weight = 1);

  /// The share weight a flow was started with.
  [[nodiscard]] std::uint32_t flow_weight(FlowId flow) const;

  /// Removes a flow; throws std::out_of_range if unknown.
  void stop_flow(FlowId flow);

  /// Current fair-share rate of a flow (at least kMinFlowRate unless its
  /// path crosses a down link).  Inside an open allocation epoch (see
  /// BatchGuard) rates are stale: they reflect the last reallocation, and
  /// flows started within the epoch read 0 until it closes.
  [[nodiscard]] Mbps flow_rate(FlowId flow) const;

  /// The distinct links a flow crosses, ascending: its bundle's key (a
  /// path given with a repeated link lists it once).
  [[nodiscard]] const std::vector<LinkId>& flow_path(FlowId flow) const;

  /// The bundle a flow belongs to: an index shared by every live flow with
  /// the same (sorted unique links, cap, weight), fixed for the flow's
  /// life, and reused by an unrelated bundle only once all its members
  /// have stopped.
  [[nodiscard]] std::uint32_t flow_bundle(FlowId flow) const;

  /// The rate of every member of a live bundle as of the last solve.  Unlike
  /// flow_rate it does not zero members started inside an open epoch, so
  /// read it only while no epoch is open (or no member is that new).
  [[nodiscard]] Mbps bundle_rate(std::uint32_t bundle) const {
    return bundles_[bundle].rate;
  }

  /// Live bundles (each holds at least one flow).
  [[nodiscard]] std::size_t bundle_count() const {
    return bundles_.size() - free_bundles_.size();
  }

  /// The live bundles whose rate a fill changed since the last
  /// clear_rate_changes(), each listed once.  A commit that skips the fill
  /// adds none, and a bundle leaves the list when it is freed, so it holds
  /// at most bundle_count() entries even when nobody clears it.  The
  /// transfer manager re-plans these bundles' lanes and clears it.
  [[nodiscard]] const std::vector<std::uint32_t>& rate_changes() const {
    return rate_changes_;
  }
  void clear_rate_changes();

  /// Background-only load on a link at the current time (zero while the
  /// link is down).  An array read from the step cache: the TrafficModel is
  /// consulted once per link per traffic step (see traffic_until_), however
  /// many clock moves, solves, SNMP sweeps and ad-hoc queries fall inside it.
  [[nodiscard]] Mbps background(LinkId link) const;

  /// Background plus all flow shares crossing the link.  An incidence-index
  /// walk: O(flows on this link), not O(all flows x path length).
  [[nodiscard]] Mbps used_bandwidth(LinkId link) const;

  /// used / capacity, clamped to [0, 1].
  [[nodiscard]] double utilization(LinkId link) const;

  [[nodiscard]] std::size_t active_flow_count() const {
    return flows_.size();
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Next instant after `t` when background traffic shifts (see
  /// TrafficModel::next_change_after).  Within the cached step
  /// (now <= t < the step's end) this is the step's end, exactly: the model
  /// promised no change before it.
  [[nodiscard]] SimTime next_traffic_change(SimTime t) const {
    if (!(t < now_) && t < traffic_until_) return traffic_until_;
    return traffic_.next_change_after(t);
  }

  // ---- coalesced allocation epochs ----

  /// RAII handle for one allocation epoch: while any guard is alive,
  /// mutations (start/stop/link-flap/clock moves) update state but
  /// defer the reallocation; the single pre-change hook fires before the
  /// epoch's first mutation, and one commit (at most one reallocation)
  /// plus the post-change hook run when the last guard releases.  Callers
  /// tearing down or starting many flows at one simulated instant (failover
  /// storms, completion sweeps) pay for at most one progressive filling
  /// instead of one per mutation.
  ///
  /// An epoch may span a clock step (TransferManager folds each instant's
  /// step into the mutation that follows it) under three rules: progress
  /// is settled at the old rates before the clock moves (the pre-change
  /// hook, or the manager's own settle); nothing reads rates until the
  /// epoch closes, since mid-epoch rates are stale; and the code that
  /// closes the epoch re-plans the completion wake-up (the post-change
  /// hook, or the manager after closing its own epoch).
  class [[nodiscard]] BatchGuard {
   public:
    BatchGuard() = default;
    BatchGuard(BatchGuard&& other) noexcept : net_(other.net_) {
      other.net_ = nullptr;
    }
    BatchGuard& operator=(BatchGuard&& other) noexcept {
      if (this != &other) {
        release();
        net_ = other.net_;
        other.net_ = nullptr;
      }
      return *this;
    }
    BatchGuard(const BatchGuard&) = delete;
    BatchGuard& operator=(const BatchGuard&) = delete;
    ~BatchGuard() { release(); }

    /// Closes the epoch early (idempotent); the destructor calls this.
    void release() {
      if (net_ != nullptr) {
        FluidNetwork* net = net_;
        net_ = nullptr;
        net->end_batch();
      }
    }

   private:
    friend class FluidNetwork;
    explicit BatchGuard(FluidNetwork* net) : net_(net) {}
    FluidNetwork* net_ = nullptr;
  };

  /// Opens (or nests into) an allocation epoch.  The guard must not outlive
  /// the network.
  BatchGuard defer_reallocate() {
    ++batch_depth_;
    return BatchGuard{this};
  }

  /// True while any BatchGuard is alive (rates may be stale).
  [[nodiscard]] bool epoch_open() const { return batch_depth_ > 0; }

  // ---- introspection ----

  /// Progressive fillings performed so far.  A commit fills only when a
  /// linked flow is live and the fill's inputs changed since the last one
  /// (see commit_mutation), so epoch coalescing, clock moves inside a
  /// traffic step, local flows and member churn that nets to zero on every
  /// bundle all show up as this not advancing.
  [[nodiscard]] std::size_t reallocation_count() const {
    return reallocation_count_;
  }

  /// TrafficModel::background_load calls actually issued: one per link per
  /// traffic step the network's clock enters and reads.
  [[nodiscard]] std::size_t traffic_query_count() const {
    return traffic_query_count_;
  }

 private:
  friend class FluidReference;  // the test-only oracle (tests/support)

  struct Flow {
    std::uint32_t bundle;
  };

  /// Symmetric flows, solved as one.
  struct Bundle {
    std::vector<LinkId> links;  // sorted unique links (empty = local)
    Mbps cap;
    /// Share weight of the progressive filling (>= 1).  Integer so per-link
    /// weight sums are exact and the all-ones case stays bit-identical to
    /// the unweighted filler.
    std::uint32_t weight = 1;
    std::uint32_t members = 0;  // 0 = free slot
    /// members as of the last fill; a linked bundle whose count differs at
    /// commit makes the commit solve.
    std::uint32_t solved_members = 0;
    /// Each member's rate as of the last solve.  A local bundle's is its
    /// floored cap from creation on: nothing else bounds a pathless flow.
    Mbps rate{0.0};
    bool rate_listed = false;  // on rate_changes_
    // Progressive-filling state, meaningful inside reallocate() only.
    double fill = 0.0;
    bool frozen = false;
  };

  /// One per-link flow list entry, for the ascending-id used_bandwidth sum.
  struct IndexEntry {
    FlowId id;
    std::uint32_t bundle;
  };

  /// The progressive fill over the live linked bundles; returns its round
  /// count.  Reads a fresh step cache (commit_mutation refreshes it first).
  std::uint64_t reallocate();
  /// Brings the step cache up to date.  On the first read, once the clock
  /// has reached traffic_until_, or after the topology gained links, it
  /// reads every link's load at now_ (one TrafficModel query per link),
  /// rebuilds background_ and base_residual_, and marks the fill's inputs
  /// dirty.
  void ensure_background() const;
  /// Recomputes base_residual_[link] from background_ and the link's state.
  void write_base_residual(std::size_t link) const;
  /// Fires the pre-change hook (once per epoch when batched); returns true
  /// when the mutation is deferred into an open epoch.
  bool pre_mutation();
  /// Re-solves shares when a linked flow is active and the fill's inputs
  /// changed since the last fill (inputs_dirty_, or a touched bundle whose
  /// member count moved), and fires the post-change hook.
  void commit_mutation();
  void end_batch();
  void ensure_index_size();
  /// Adds a member to the bundle matching (links, cap, weight), creating
  /// it if none is live (the only case that copies `links`); returns its
  /// index.  `links` is sorted and unique.
  std::uint32_t join_bundle(const std::vector<LinkId>& links, Mbps cap,
                            std::uint32_t weight);
  /// Drops a member; an emptied bundle leaves the indexes and frees its slot.
  void leave_bundle(std::uint32_t bundle);

  void pre_change() const {
    if (pre_change_hook_) pre_change_hook_();
  }
  void post_change() const {
    if (post_change_hook_) post_change_hook_();
  }

  std::function<void()> pre_change_hook_;
  std::function<void()> post_change_hook_;
  const obs::Context* obs_ = nullptr;
  const Topology& topology_;
  const TrafficModel& traffic_;
  SimTime now_{0.0};
  // Dense slot-map store; the test-only reference filler uses its
  // ascending-id ordered walk.
  SlotMap<FlowId, Flow> flows_;
  /// link id -> flows crossing it, ascending by flow id (ids are handed out
  /// monotonically, so insertion is an append and the per-link sums reduce
  /// in exactly the order the naive full scan used).
  std::vector<std::vector<IndexEntry>> link_flows_;
  /// link id -> live bundles crossing it (unordered).
  std::vector<std::vector<std::uint32_t>> link_bundles_;
  /// link id -> sum of the weights of the flows crossing it (exact: integer
  /// arithmetic).  All-ones weights make this the per-link flow *count*, so
  /// the weighted filling reproduces the unweighted one bit-for-bit.
  std::vector<std::uint64_t> link_weight_;
  std::vector<Bundle> bundles_;
  std::vector<std::uint32_t> free_bundles_;
  std::vector<std::uint32_t> local_bundles_;  // live bundles with no links
  std::vector<bool> link_down_;  // indexed by link id; default all up
  /// Links currently down.  While zero, a solve skips the severed-bundle
  /// walk entirely: link state costs once per flap, not once per solve.
  std::size_t down_link_count_ = 0;
  FlowId::underlying_type next_flow_ = 0;
  /// Flows with ids from here on were started since the last solve (inside
  /// the open epoch) and read 0 until it closes.
  FlowId::underlying_type solved_below_ = 0;
  /// Flows whose path is non-empty.  When zero, every active flow is purely
  /// local and already holds its share (its bundle's floored cap), so
  /// commit_mutation skips the progressive filling — the all-local fast
  /// path that keeps large single-site session populations O(1) per
  /// mutation.
  std::size_t linked_flow_count_ = 0;

  int batch_depth_ = 0;
  bool batch_dirty_ = false;
  std::size_t reallocation_count_ = 0;

  /// Set when a fill input changed beyond what solved_members tracks: a
  /// linked bundle created or freed (a reused slot may hold a different key
  /// with the same count), a link flap, or a step-cache refresh (a new
  /// traffic step or topology growth; keyed on the refresh itself, so a
  /// mid-epoch background() read that refreshed still solves at close).
  /// Cleared by the fill.
  mutable bool inputs_dirty_ = true;
  /// Linked bundles whose member count changed since the last commit (a
  /// bundle may repeat; joins and leaves of local bundles, which are no
  /// fill input, are not listed).
  std::vector<std::uint32_t> touched_bundles_;
  /// See rate_changes().
  std::vector<std::uint32_t> rate_changes_;

  /// Step-keyed background cache, good while now_ < traffic_until_ (the
  /// model's next_change_after at the last refresh; -inf until the first,
  /// lazy, refresh, so a model configured after construction is still read).
  mutable SimTime traffic_until_{-std::numeric_limits<double>::infinity()};
  /// link id -> min(model load, capacity) for the *up* link.
  mutable std::vector<Mbps> background_;
  /// link id -> max(0, capacity - background), or 0 while the link is down:
  /// the residual every solve starts from.  set_link_up rewrites its entry.
  mutable std::vector<double> base_residual_;
  mutable std::size_t traffic_query_count_ = 0;

  // Scratch buffers reused across reallocations (sized to links/bundles)
  // so steady-state epochs allocate nothing.
  std::vector<double> scratch_residual_;
  /// Per-link sum of unfrozen-flow weights during a solve.
  std::vector<std::uint64_t> scratch_weight_on_;
  std::vector<std::uint32_t> scratch_unfrozen_;
  /// start_flow's sorted unique copy of the caller's path.
  std::vector<LinkId> scratch_links_;
};

}  // namespace vod::net
