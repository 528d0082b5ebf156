#include "net/fluid.h"

#include <algorithm>
#include <limits>

#include "common/contract.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vod::net {

FluidNetwork::FluidNetwork(const Topology& topology,
                           const TrafficModel& traffic)
    : topology_(topology), traffic_(traffic) {}

void FluidNetwork::set_change_hooks(std::function<void()> pre,
                                    std::function<void()> post) {
  pre_change_hook_ = std::move(pre);
  post_change_hook_ = std::move(post);
}

bool FluidNetwork::pre_mutation() {
  if (batch_depth_ == 0) {
    pre_change();
    return false;
  }
  if (!batch_dirty_) {
    // First mutation of the epoch: subscribers settle at the old rates
    // once, however many mutations follow before the epoch closes.
    batch_dirty_ = true;
    pre_change();
  }
  return true;
}

void FluidNetwork::commit_mutation() {
  // The one rule: the fill runs only when something it reads changed since
  // the last fill (see inputs_dirty_).  It is a pure function of those
  // inputs, so rates kept from an unchanged state are bit-identical to a
  // re-solve.  With no linked flow there is nothing to fill: a pathless
  // flow's share is its bundle's floored cap from creation on.
  for (const std::uint32_t index : touched_bundles_) {
    const Bundle& bundle = bundles_[index];
    if (bundle.members != bundle.solved_members) inputs_dirty_ = true;
  }
  touched_bundles_.clear();
  if (linked_flow_count_ > 0) {
    ensure_background();  // entering a new traffic step marks inputs dirty
    const std::size_t flow_count = flows_.size();
    obs::TraceRecorder* tr = obs_ != nullptr ? obs_->trace() : nullptr;
    if (inputs_dirty_) {
      const std::uint64_t rounds = reallocate();
      if (tr != nullptr) {
        tr->instant(
            obs::Subsystem::kFluid, "fluid.realloc",
            {{"rounds", obs::num(rounds)},
             {"flows", obs::num(static_cast<std::uint64_t>(flow_count))}});
      }
    }
    if (tr != nullptr) {
      tr->counter(obs::Subsystem::kFluid, "fluid.active_flows",
                  static_cast<double>(flow_count));
    }
  }
  solved_below_ = next_flow_;
  post_change();
}

void FluidNetwork::end_batch() {
  require(batch_depth_ > 0, "FluidNetwork: unbalanced BatchGuard release");
  if (--batch_depth_ > 0) return;
  if (!batch_dirty_) return;
  batch_dirty_ = false;
  commit_mutation();
}

void FluidNetwork::set_time(SimTime t) {
  require(!(t < now_), "FluidNetwork::set_time: time went backward");
  if (t == now_) return;
  const bool deferred = pre_mutation();
  now_ = t;
  if (!deferred) commit_mutation();
}

void FluidNetwork::ensure_index_size() {
  const std::size_t link_count = topology_.link_count();
  if (link_flows_.size() < link_count) {
    link_flows_.resize(link_count);
    link_bundles_.resize(link_count);
    link_weight_.resize(link_count, 0);
  }
  if (link_down_.size() < link_count) link_down_.resize(link_count, false);
}

std::uint32_t FluidNetwork::join_bundle(const std::vector<LinkId>& links,
                                        Mbps cap, std::uint32_t weight) {
  // A matching bundle crosses the flow's first link (or is local).
  const std::vector<std::uint32_t>& candidates =
      links.empty() ? local_bundles_ : link_bundles_[links.front().value()];
  for (const std::uint32_t index : candidates) {
    Bundle& bundle = bundles_[index];
    if (bundle.weight == weight && bundle.cap == cap && bundle.links == links) {
      ++bundle.members;
      if (!links.empty()) touched_bundles_.push_back(index);
      return index;
    }
  }
  std::uint32_t index;
  if (free_bundles_.empty()) {
    index = static_cast<std::uint32_t>(bundles_.size());
    bundles_.emplace_back();
  } else {
    index = free_bundles_.back();
    free_bundles_.pop_back();
  }
  Bundle& bundle = bundles_[index];
  bundle.links = links;  // a freed slot's vector keeps its capacity
  bundle.cap = cap;
  bundle.weight = weight;
  bundle.members = 1;
  bundle.rate = bundle.links.empty() ? std::max(cap, kMinFlowRate) : Mbps{0.0};
  if (bundle.links.empty()) local_bundles_.push_back(index);
  for (const LinkId link : bundle.links) {
    link_bundles_[link.value()].push_back(index);
  }
  if (!bundle.links.empty()) inputs_dirty_ = true;
  return index;
}

void FluidNetwork::leave_bundle(std::uint32_t index) {
  Bundle& bundle = bundles_[index];
  if (--bundle.members > 0) {
    if (!bundle.links.empty()) touched_bundles_.push_back(index);
    return;
  }
  const auto unlist = [index](std::vector<std::uint32_t>& list) {
    const auto it = std::find(list.begin(), list.end(), index);
    ensure(it != list.end(), "FluidNetwork: bundle index out of sync");
    *it = list.back();
    list.pop_back();
  };
  if (bundle.links.empty()) unlist(local_bundles_);
  for (const LinkId link : bundle.links) unlist(link_bundles_[link.value()]);
  if (bundle.rate_listed) {
    bundle.rate_listed = false;
    unlist(rate_changes_);
  }
  if (!bundle.links.empty()) inputs_dirty_ = true;
  free_bundles_.push_back(index);
}

void FluidNetwork::clear_rate_changes() {
  for (const std::uint32_t index : rate_changes_) {
    bundles_[index].rate_listed = false;
  }
  rate_changes_.clear();
}

FlowId FluidNetwork::start_flow(const std::vector<LinkId>& path,
                                Mbps rate_cap, std::uint32_t weight) {
  require(rate_cap.value() > 0.0,  // false for NaN too
      "FluidNetwork::start_flow: cap must be positive");
  require(weight >= 1, "FluidNetwork::start_flow: weight must be >= 1");
  for (const LinkId link : path) {
    require(topology_.has_link(link),
        "FluidNetwork::start_flow: unknown link in path");
  }
  const bool deferred = pre_mutation();
  ensure_index_size();
  scratch_links_.assign(path.begin(), path.end());
  std::sort(scratch_links_.begin(), scratch_links_.end());
  scratch_links_.erase(
      std::unique(scratch_links_.begin(), scratch_links_.end()),
      scratch_links_.end());
  const FlowId id{next_flow_++};
  const std::uint32_t bundle = join_bundle(scratch_links_, rate_cap, weight);
  flows_.insert(id, Flow{bundle});
  for (const LinkId link : bundles_[bundle].links) {
    // Flow ids are handed out monotonically, so appending keeps each
    // per-link list sorted ascending by id.
    link_flows_[link.value()].push_back(IndexEntry{id, bundle});
    link_weight_[link.value()] += weight;
  }
  if (!bundles_[bundle].links.empty()) ++linked_flow_count_;
  if (!deferred) commit_mutation();
  return id;
}

void FluidNetwork::stop_flow(FlowId flow) {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::stop_flow: unknown flow");
  const bool deferred = pre_mutation();
  const std::uint32_t bundle = entry->bundle;
  const Bundle& shared = bundles_[bundle];
  for (const LinkId link : shared.links) {
    auto& list = link_flows_[link.value()];
    const auto it = std::lower_bound(
        list.begin(), list.end(), flow,
        [](const IndexEntry& e, FlowId needle) { return e.id < needle; });
    ensure(it != list.end() && it->id == flow,
        "FluidNetwork: incidence index out of sync");
    list.erase(it);
    link_weight_[link.value()] -= shared.weight;
  }
  if (!shared.links.empty()) --linked_flow_count_;
  flows_.erase(flow);
  leave_bundle(bundle);
  if (!deferred) commit_mutation();
}

Mbps FluidNetwork::flow_rate(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_rate: unknown flow");
  // Started inside the open epoch: not solved yet.
  if (flow.value() >= solved_below_) return Mbps{0.0};
  return bundles_[entry->bundle].rate;
}

std::uint32_t FluidNetwork::flow_bundle(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_bundle: unknown flow");
  return entry->bundle;
}

std::uint32_t FluidNetwork::flow_weight(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_weight: unknown flow");
  return bundles_[entry->bundle].weight;
}

const std::vector<LinkId>& FluidNetwork::flow_path(FlowId flow) const {
  const Flow* entry = flows_.find(flow);
  require_found(entry != nullptr, "FluidNetwork::flow_path: unknown flow");
  return bundles_[entry->bundle].links;
}

void FluidNetwork::set_link_up(LinkId link, bool up) {
  require_found(topology_.has_link(link),
      "FluidNetwork::set_link_up: unknown link");
  if (link_down_.size() <= link.value()) {
    link_down_.resize(topology_.link_count(), false);
  }
  if (link_down_[link.value()] == !up) return;  // no state change
  const bool deferred = pre_mutation();
  link_down_[link.value()] = !up;
  up ? --down_link_count_ : ++down_link_count_;
  inputs_dirty_ = true;
  if (link.value() < base_residual_.size()) write_base_residual(link.value());
  if (!deferred) commit_mutation();
}

bool FluidNetwork::link_up(LinkId link) const {
  require_found(topology_.has_link(link),
      "FluidNetwork::link_up: unknown link");
  return link.value() >= link_down_.size() || !link_down_[link.value()];
}

void FluidNetwork::ensure_background() const {
  const std::size_t link_count = topology_.link_count();
  if (now_ < traffic_until_ && background_.size() == link_count) return;
  background_.resize(link_count);
  base_residual_.resize(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    const LinkId link{static_cast<LinkId::underlying_type>(l)};
    // Background never exceeds the link's capacity: the trace may carry the
    // paper's raw counters, but physics caps usage at the line rate.
    background_[l] = std::min(traffic_.background_load(link, now_),
                              topology_.link(link).capacity);
    write_base_residual(l);
  }
  traffic_query_count_ += link_count;
  traffic_until_ = traffic_.next_change_after(now_);
  inputs_dirty_ = true;
}

void FluidNetwork::write_base_residual(std::size_t l) const {
  const LinkId link{static_cast<LinkId::underlying_type>(l)};
  const bool down = l < link_down_.size() && link_down_[l];
  base_residual_[l] =
      down ? 0.0
           : std::max(0.0,
                      (topology_.link(link).capacity - background_[l]).value());
}

Mbps FluidNetwork::background(LinkId link) const {
  require_found(topology_.has_link(link),
      "FluidNetwork::background: unknown link");
  if (!link_up(link)) return Mbps{0.0};
  ensure_background();
  return background_[link.value()];
}

Mbps FluidNetwork::used_bandwidth(LinkId link) const {
  Mbps used = background(link);
  // Sum per flow in ascending flow-id order — the exact reduction order the
  // naive all-flows scan used, so the result stays bit-identical to it.
  // Flows started since the last solve read 0 and, ids ascending, form the
  // list's tail.
  if (link.value() < link_flows_.size()) {
    for (const IndexEntry& entry : link_flows_[link.value()]) {
      if (entry.id.value() >= solved_below_) break;
      used += bundles_[entry.bundle].rate;
    }
  }
  return std::min(used, topology_.link(link).capacity);
}

double FluidNetwork::utilization(LinkId link) const {
  const double u =
      used_bandwidth(link) / topology_.link(link).capacity;
  return std::clamp(u, 0.0, 1.0);
}

std::uint64_t FluidNetwork::reallocate() {
  // Progressive filling over bundles: grow every unfrozen bundle's rate by
  // delta x weight until a bundle hits its cap or a link exhausts its
  // residual capacity; freeze and repeat.  Produces the weighted max–min
  // fair allocation subject to rate caps — bit-identical to the naive
  // reference filler (tests/support), which fills every flow on its own:
  // the members of a bundle see the same arithmetic in every round, and the
  // per-link weight sums (members x weight per bundle) are exact integers.
  ++reallocation_count_;
  VOD_PROFILE_SCOPE("fluid.reallocate");
  ensure_index_size();
  const std::size_t link_count = topology_.link_count();

  std::vector<double>& residual = scratch_residual_;
  residual.assign(base_residual_.begin(), base_residual_.end());

  // Every linked flow starts unfrozen (local flows cross no link and keep
  // their bundle's floored cap).
  std::vector<std::uint64_t>& weight_on = scratch_weight_on_;
  weight_on.assign(link_weight_.begin(), link_weight_.end());
  std::vector<std::uint32_t>& unfrozen = scratch_unfrozen_;
  unfrozen.clear();
  for (std::uint32_t b = 0; b < bundles_.size(); ++b) {
    Bundle& bundle = bundles_[b];
    if (bundle.members == 0 || bundle.links.empty()) continue;
    bundle.fill = 0.0;
    bundle.frozen = false;
    unfrozen.push_back(b);
  }

  const auto freeze = [&](Bundle& bundle) {
    bundle.frozen = true;
    const std::uint64_t weight =
        std::uint64_t{bundle.members} * bundle.weight;
    for (const LinkId link : bundle.links) weight_on[link.value()] -= weight;
  };

  constexpr double kEps = 1e-12;
  std::uint64_t rounds = 0;
  while (!unfrozen.empty()) {
    ++rounds;
    // Largest per-weight-unit increment no constraint can absorb less of:
    // each unfrozen flow grows by delta x its weight, so a link drains at
    // delta x (sum of unfrozen weights crossing it).  min over doubles is
    // exact, so the visiting order does not matter.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < link_count; ++l) {
      const std::uint64_t w = weight_on[l];
      if (w > 0) delta = std::min(delta, residual[l] / static_cast<double>(w));
    }
    for (const std::uint32_t b : unfrozen) {
      const Bundle& bundle = bundles_[b];
      delta = std::min(delta, (bundle.cap.value() - bundle.fill) /
                                  static_cast<double>(bundle.weight));
    }

    if (delta > 0.0) {
      for (const std::uint32_t b : unfrozen) {
        bundles_[b].fill += delta * static_cast<double>(bundles_[b].weight);
      }
      // Links with no unfrozen flows keep their residual bit-for-bit
      // (subtracting delta * 0 and re-clamping is the identity on the
      // non-negative values stored here), so they are skipped.
      for (std::size_t l = 0; l < link_count; ++l) {
        const std::uint64_t w = weight_on[l];
        if (w > 0) {
          residual[l] -= delta * static_cast<double>(w);
          residual[l] = std::max(residual[l], 0.0);
        }
      }
    }

    // Freeze bundles at their cap, then everyone on exhausted links.  Rates
    // and residuals are fixed during this pass, so resolving the freeze
    // set link-by-link through the index matches the reference's
    // flow-by-flow path scan exactly.
    bool froze = false;
    for (const std::uint32_t b : unfrozen) {
      Bundle& bundle = bundles_[b];
      if (bundle.fill >= bundle.cap.value() - kEps) {
        freeze(bundle);
        froze = true;
      }
    }
    for (std::size_t l = 0; l < link_count; ++l) {
      if (weight_on[l] == 0 || residual[l] > kEps) continue;
      for (const std::uint32_t b : link_bundles_[l]) {
        if (!bundles_[b].frozen) {
          freeze(bundles_[b]);
          froze = true;
        }
      }
    }
    if (!froze) break;  // nothing limits the remaining flows (shouldn't occur)

    std::erase_if(unfrozen,
                  [&](std::uint32_t b) { return bundles_[b].frozen; });
  }

  for (std::uint32_t b = 0; b < bundles_.size(); ++b) {
    Bundle& bundle = bundles_[b];
    if (bundle.members == 0 || bundle.links.empty()) continue;
    // Flows crossing a down link are truly stuck (rate 0); everyone else
    // gets at least the trickle floor.  With every link up, the common
    // case, no bundle can be severed and the walk is skipped.
    const bool severed =
        down_link_count_ > 0 &&
        std::any_of(bundle.links.begin(), bundle.links.end(),
                    [&](LinkId link) { return link_down_[link.value()]; });
    const Mbps rate =
        severed ? Mbps{0.0} : std::max(Mbps{bundle.fill}, kMinFlowRate);
    if (rate != bundle.rate && !bundle.rate_listed) {
      bundle.rate_listed = true;
      rate_changes_.push_back(b);
    }
    bundle.rate = rate;
    bundle.solved_members = bundle.members;
  }
  inputs_dirty_ = false;
  return rounds;
}

}  // namespace vod::net
