#include "net/fluid.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

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
  // Empty-network fast path: with no flows there are no shares to solve,
  // so a clock move / link flap / final stop_flow skips the residual walk.
  // All-local fast path: a pathless flow's max-min share is exactly
  // max(cap, kMinFlowRate) — independent of links, background traffic and
  // every other flow, and bit-identical to what reallocate() assigns it —
  // and its bundle holds that rate from creation on, so with no linked
  // flow active there is nothing to solve.  Disabled under the reference
  // self-check, which wants every solve to run the full filler.
  if (!flows_.empty() && (linked_flow_count_ > 0 || check_reference_)) {
    reallocate();
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

std::uint32_t FluidNetwork::join_bundle(std::vector<LinkId> links, Mbps cap,
                                        std::uint32_t weight) {
  // A matching bundle crosses the flow's first link (or is local).
  const std::vector<std::uint32_t>& candidates =
      links.empty() ? local_bundles_ : link_bundles_[links.front().value()];
  for (const std::uint32_t index : candidates) {
    Bundle& bundle = bundles_[index];
    if (bundle.weight == weight && bundle.cap == cap && bundle.links == links) {
      ++bundle.members;
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
  bundle.links = std::move(links);
  bundle.cap = cap;
  bundle.weight = weight;
  bundle.members = 1;
  bundle.rate = bundle.links.empty() ? std::max(cap, kMinFlowRate) : Mbps{0.0};
  if (bundle.links.empty()) local_bundles_.push_back(index);
  for (const LinkId link : bundle.links) {
    link_bundles_[link.value()].push_back(index);
  }
  return index;
}

void FluidNetwork::leave_bundle(std::uint32_t index) {
  Bundle& bundle = bundles_[index];
  if (--bundle.members > 0) return;
  const auto unlist = [index](std::vector<std::uint32_t>& list) {
    const auto it = std::find(list.begin(), list.end(), index);
    ensure(it != list.end(), "FluidNetwork: bundle index out of sync");
    *it = list.back();
    list.pop_back();
  };
  if (bundle.links.empty()) unlist(local_bundles_);
  for (const LinkId link : bundle.links) unlist(link_bundles_[link.value()]);
  free_bundles_.push_back(index);
}

FlowId FluidNetwork::start_flow(std::vector<LinkId> path, Mbps rate_cap,
                                std::uint32_t weight) {
  require(!(rate_cap.value() <= 0.0),
      "FluidNetwork::start_flow: cap must be positive");
  require(weight >= 1, "FluidNetwork::start_flow: weight must be >= 1");
  for (const LinkId link : path) {
    require(topology_.has_link(link),
        "FluidNetwork::start_flow: unknown link in path");
  }
  const bool deferred = pre_mutation();
  ensure_index_size();
  std::vector<LinkId> links = path;
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  const FlowId id{next_flow_++};
  const std::uint32_t bundle = join_bundle(std::move(links), rate_cap, weight);
  flows_.insert(id, Flow{std::move(path), bundle});
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
  return entry->path;
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

void FluidNetwork::reallocate() {
  // Progressive filling over bundles: grow every unfrozen bundle's rate by
  // delta x weight until a bundle hits its cap or a link exhausts its
  // residual capacity; freeze and repeat.  Produces the weighted max–min
  // fair allocation subject to rate caps — bit-identical to
  // reallocate_reference(), which fills every flow on its own: the members
  // of a bundle see the same arithmetic in every round, and the per-link
  // weight sums (members x weight per bundle) are exact integers.
  ++reallocation_count_;
  VOD_PROFILE_SCOPE("fluid.reallocate");
  ensure_index_size();
  ensure_background();
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

  for (Bundle& bundle : bundles_) {
    if (bundle.members == 0 || bundle.links.empty()) continue;
    // Flows crossing a down link are truly stuck (rate 0); everyone else
    // gets at least the trickle floor.  With every link up, the common
    // case, no bundle can be severed and the walk is skipped.
    const bool severed =
        down_link_count_ > 0 &&
        std::any_of(bundle.links.begin(), bundle.links.end(),
                    [&](LinkId link) { return link_down_[link.value()]; });
    bundle.rate =
        severed ? Mbps{0.0} : std::max(Mbps{bundle.fill}, kMinFlowRate);
  }

  const std::size_t flow_count = flows_.size();
  if (obs::TraceRecorder* tr = obs_ != nullptr ? obs_->trace() : nullptr) {
    tr->instant(obs::Subsystem::kFluid, "fluid.realloc",
                {{"rounds", obs::num(rounds)},
                 {"flows", obs::num(static_cast<std::uint64_t>(flow_count))}});
    tr->counter(obs::Subsystem::kFluid, "fluid.active_flows",
                static_cast<double>(flow_count));
  }

  if (check_reference_) {
    const std::vector<std::pair<FlowId, Mbps>> reference =
        reallocate_reference();
    ensure(reference.size() == flow_count,
        "FluidNetwork: reference allocation lost a flow");
    std::size_t i = 0;
    flows_.for_each_ordered([&](FlowId id, const Flow& flow) {
      ensure(reference[i].first == id &&
                 reference[i].second.value() ==
                     bundles_[flow.bundle].rate.value(),
          "FluidNetwork: bundled allocation diverged from "
          "reallocate_reference()");
      ++i;
    });
  }
}

std::vector<std::pair<FlowId, Mbps>> FluidNetwork::reallocate_reference()
    const {
  // The original from-scratch progressive filler, preserved as the oracle
  // the indexed allocator is checked against: per-link unfrozen weight
  // sums are recomputed by scanning every flow's path each round (with
  // all-ones weights they are the old per-link unfrozen counts).
  std::vector<double> residual(topology_.link_count());
  for (std::size_t l = 0; l < residual.size(); ++l) {
    const LinkId link{static_cast<LinkId::underlying_type>(l)};
    residual[l] =
        link_up(link)
            ? std::max(0.0, (topology_.link(link).capacity -
                             background(link)).value())
            : 0.0;
  }

  struct Active {
    const Flow* flow;
    FlowId id;
    Mbps cap;
    std::uint32_t weight;
    double rate = 0.0;
    bool frozen = false;
  };
  std::vector<Active> active;
  active.reserve(flows_.size());
  // The ordered walk ascends by id, so `active` is deterministically
  // ordered too.
  flows_.for_each_ordered([&](FlowId id, const Flow& flow) {
    const Bundle& bundle = bundles_[flow.bundle];
    active.push_back(Active{&flow, id, bundle.cap, bundle.weight});
  });

  // Flows with empty paths are purely local: they get their cap outright.
  for (Active& a : active) {
    if (a.flow->path.empty()) {
      a.rate = a.cap.value();
      a.frozen = true;
    }
  }

  const auto weight_on = [&](std::size_t l) {
    std::uint64_t sum = 0;
    for (const Active& a : active) {
      if (a.frozen) continue;
      for (const LinkId link : a.flow->path) {
        if (link.value() == l) {
          sum += a.weight;
          break;
        }
      }
    }
    return sum;
  };

  for (;;) {
    bool any_unfrozen = false;
    for (const Active& a : active) any_unfrozen |= !a.frozen;
    if (!any_unfrozen) break;

    // Largest per-weight-unit increment no constraint can absorb less of.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      const std::uint64_t w = weight_on(l);
      if (w > 0) {
        delta = std::min(delta, residual[l] / static_cast<double>(w));
      }
    }
    for (const Active& a : active) {
      if (!a.frozen) {
        delta = std::min(delta, (a.cap.value() - a.rate) /
                                    static_cast<double>(a.weight));
      }
    }

    if (delta > 0.0) {
      for (Active& a : active) {
        if (!a.frozen) a.rate += delta * static_cast<double>(a.weight);
      }
      for (std::size_t l = 0; l < residual.size(); ++l) {
        const std::uint64_t w = weight_on(l);
        residual[l] -= delta * static_cast<double>(w);
        residual[l] = std::max(residual[l], 0.0);
      }
    }

    // Freeze flows at their cap or on exhausted links.
    constexpr double kEps = 1e-12;
    bool froze = false;
    for (Active& a : active) {
      if (a.frozen) continue;
      if (a.rate >= a.cap.value() - kEps) {
        a.frozen = true;
        froze = true;
        continue;
      }
      for (const LinkId link : a.flow->path) {
        if (residual[link.value()] <= kEps) {
          a.frozen = true;
          froze = true;
          break;
        }
      }
    }
    if (!froze) break;  // nothing limits the remaining flows (shouldn't occur)
  }

  std::vector<std::pair<FlowId, Mbps>> out;
  out.reserve(active.size());
  for (const Active& a : active) {
    // Flows crossing a down link are truly stuck (rate 0); everyone else
    // gets at least the trickle floor.
    bool severed = false;
    for (const LinkId link : a.flow->path) {
      if (!link_up(link)) severed = true;
    }
    out.emplace_back(a.id, severed ? Mbps{0.0}
                                   : std::max(Mbps{a.rate}, kMinFlowRate));
  }
  return out;
}

}  // namespace vod::net
