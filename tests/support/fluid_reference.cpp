#include "support/fluid_reference.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/contract.h"

namespace vod::net {

FluidReference::FluidReference(FluidNetwork& network) {
  network.post_change_hook_ = [&network, checks = checks_,
                               next = std::move(network.post_change_hook_)] {
    if (network.active_flow_count() > 0) {
      ++*checks;
      check(network);
    }
    if (next) next();
  };
}

void FluidReference::check(const FluidNetwork& network) {
  const std::vector<std::pair<FlowId, Mbps>> reference = allocate(network);
  ensure(reference.size() == network.flows_.size(),
      "FluidReference: reference allocation lost a flow");
  std::size_t i = 0;
  network.flows_.for_each_ordered(
      [&](FlowId id, const FluidNetwork::Flow& flow) {
        ensure(reference[i].first == id &&
                   reference[i].second.value() ==
                       network.bundles_[flow.bundle].rate.value(),
            "FluidReference: bundled allocation diverged from the "
            "reference filler");
        ++i;
      });
}

void FluidReference::set_bundle_rate(FluidNetwork& network,
                                     std::uint32_t bundle, Mbps rate) {
  require(bundle < network.bundles_.size() &&
              network.bundles_[bundle].members > 0,
      "FluidReference::set_bundle_rate: no live bundle at that index");
  network.bundles_[bundle].rate = rate;
}

std::vector<std::pair<FlowId, Mbps>> FluidReference::allocate(
    const FluidNetwork& network) {
  // The original from-scratch progressive filler: per-link unfrozen weight
  // sums are recomputed by scanning every flow's path each round (with
  // all-ones weights they are the old per-link unfrozen counts).
  const Topology& topology = network.topology();
  std::vector<double> residual(topology.link_count());
  for (std::size_t l = 0; l < residual.size(); ++l) {
    const LinkId link{static_cast<LinkId::underlying_type>(l)};
    residual[l] =
        network.link_up(link)
            ? std::max(0.0, (topology.link(link).capacity -
                             network.background(link)).value())
            : 0.0;
  }

  struct Active {
    const std::vector<LinkId>* path;
    FlowId id;
    Mbps cap;
    std::uint32_t weight;
    double rate = 0.0;
    bool frozen = false;
  };
  std::vector<Active> active;
  active.reserve(network.flows_.size());
  // The ordered walk ascends by id, so `active` is deterministically
  // ordered too.
  network.flows_.for_each_ordered(
      [&](FlowId id, const FluidNetwork::Flow& flow) {
        const FluidNetwork::Bundle& bundle = network.bundles_[flow.bundle];
        active.push_back(Active{&bundle.links, id, bundle.cap, bundle.weight});
      });

  // Flows with empty paths are purely local: they get their cap outright.
  for (Active& a : active) {
    if (a.path->empty()) {
      a.rate = a.cap.value();
      a.frozen = true;
    }
  }

  const auto weight_on = [&](std::size_t l) {
    std::uint64_t sum = 0;
    for (const Active& a : active) {
      if (a.frozen) continue;
      for (const LinkId link : *a.path) {
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
      for (const LinkId link : *a.path) {
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
    for (const LinkId link : *a.path) {
      if (!network.link_up(link)) severed = true;
    }
    out.emplace_back(a.id, severed ? Mbps{0.0}
                                   : std::max(Mbps{a.rate}, kMinFlowRate));
  }
  return out;
}

}  // namespace vod::net
