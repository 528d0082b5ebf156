// The naive per-flow progressive filler, a test-only oracle for the bundled
// allocator in net/fluid.{h,cpp}.
//
// The allocator solves symmetric flows as one bundle over per-link indexes
// and skips the fill when none of its inputs changed; this filler solves
// every flow on its own from scratch each time, recomputing the per-link
// unfrozen weight sums by scanning every path each round
// (O(rounds x links x flows x path)).  The two must agree bit for bit.  The
// service never runs the filler, so it lives with the tests, not in src/.
//
// FluidReference is the one friend FluidNetwork grants.  It reads the live
// flows (id, links, cap, weight) and chains onto the network's post-change
// hook, so a test can compare every commit with the oracle — including the
// commits under a live VodService, whose TransferManager owns the hooks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/fluid.h"

namespace vod::net {

class FluidReference {
 public:
  /// Checks every later commit of `network` that leaves a flow live,
  /// whether its fill ran or kept the last solve's rates; a divergence
  /// throws std::logic_error out of the mutation that committed.  The check
  /// runs first in the post-change hook, ahead of the hook it wraps.
  /// Construct it after whoever sets the hooks (a TransferManager does at
  /// construction): set_change_hooks() replaces the chain and ends the
  /// check.  The check outlives this object; the network owns it.
  explicit FluidReference(FluidNetwork& network);

  /// Commits compared since construction.
  [[nodiscard]] std::size_t check_count() const { return *checks_; }

  /// A from-scratch solve of the network's current state: (flow, rate) for
  /// every live flow, ascending by id.
  [[nodiscard]] static std::vector<std::pair<FlowId, Mbps>> allocate(
      const FluidNetwork& network);

  /// Compares every live flow's rate with allocate(), bit for bit; throws
  /// std::logic_error on divergence.
  static void check(const FluidNetwork& network);

  /// Overwrites a live bundle's rate without a solve, as a wrong skip
  /// would leave it — for tests of the check itself.
  static void set_bundle_rate(FluidNetwork& network, std::uint32_t bundle,
                              Mbps rate);

 private:
  std::shared_ptr<std::size_t> checks_ = std::make_shared<std::size_t>(0);
};

}  // namespace vod::net
