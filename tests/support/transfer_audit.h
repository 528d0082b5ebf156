// A test-only auditor of TransferManager's lanes.
//
// The manager touches only the lanes that changed on each network mutation:
// a settle reads the lanes keyed near now in its due-heap, and a re-plan
// rebases only dirty or re-rated lanes.  The auditor re-derives, by full
// scans over every lane, what the old every-lane walks would have found,
// and throws std::logic_error from the mutation when the two disagree:
//  - after a settle, no moving lane (positive rate) holds a member past the
//    done line that no settle queued for completion, and the queued
//    candidates are a min-heap on flow id;
//  - after a re-plan, every lane is a min-heap on finish whose members'
//    back-pointers name their positions, every live lane's rate is its
//    bundle's rate, every moving lane is keyed in the due-heap at its
//    recomputed due instant, and the pending wake-up is the full scan's:
//    the earliest due instant, capped by the next traffic change and
//    floored at the re-plan's instant.
//
// TransferAudit is a friend of TransferManager.  Like FluidReference, it
// chains onto the network's change hooks: it replaces them with the
// manager's own, wrapped, so construct it right after the manager (or the
// VodService that owns it) and before a FluidReference on the same network.
#pragma once

#include <cstddef>
#include <memory>

#include "net/transfer.h"

namespace vod::net {

class TransferAudit {
 public:
  /// Audits every later settle and re-plan of `manager` that a change hook
  /// runs or that a hook finds settled (the manager's own operations settle
  /// before their first mutation fires the pre-change hook).  The audit
  /// outlives this object; the network's hooks own it.
  explicit TransferAudit(TransferManager& manager);

  /// Settles and re-plans audited since construction.
  [[nodiscard]] std::size_t settle_checks() const { return counts_->settles; }
  [[nodiscard]] std::size_t plan_checks() const { return counts_->plans; }

 private:
  /// Every member past the done line at the last settle is queued on
  /// drained_ (`completed`: none is left live at all).
  static void check_settled(const TransferManager& manager, bool completed);
  /// The re-plan invariants above; `planned_now` when the manager has just
  /// re-planned at the current instant.  Otherwise it skips the check
  /// (returns false) while a member or rate change awaits the next re-plan,
  /// and compares the wake-up only while it lies ahead of now.
  static bool check_plan(const TransferManager& manager, bool planned_now);

  struct Counts {
    std::size_t settles = 0;
    std::size_t plans = 0;
  };
  std::shared_ptr<Counts> counts_ = std::make_shared<Counts>();
};

}  // namespace vod::net
