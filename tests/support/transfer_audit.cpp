#include "support/transfer_audit.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/contract.h"

namespace vod::net {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

TransferAudit::TransferAudit(TransferManager& manager) {
  TransferManager& m = manager;
  m.network_.set_change_hooks(
      [&m, counts = counts_] {
        m.on_network_pre_change();
        // The manager's own operations settle before their first mutation.
        if (m.last_progress_ == m.sim_.now()) {
          check_settled(m, /*completed=*/false);
          ++counts->settles;
        }
        if (check_plan(m, /*planned_now=*/false)) ++counts->plans;
      },
      [&m, counts = counts_] {
        m.on_network_post_change();
        if (m.busy_depth_ > 0) return;  // the manager re-plans after this
        check_settled(m, /*completed=*/true);
        ++counts->settles;
        check_plan(m, /*planned_now=*/true);
        ++counts->plans;
      });
}

void TransferAudit::check_settled(const TransferManager& m, bool completed) {
  const double now = m.last_progress_.seconds();
  for (std::size_t pos = 1; pos < m.drained_.size(); ++pos) {
    ensure(!(m.drained_[pos] < m.drained_[(pos - 1) / 2]),
        "TransferAudit: the drained candidates are out of order");
  }
  std::vector<FlowId> queued = m.drained_;
  std::sort(queued.begin(), queued.end());
  for (const TransferManager::Lane& lane : m.lanes_) {
    if (lane.members.empty() || !(lane.rate > 0.0)) continue;
    const std::int64_t served = TransferManager::served_at(lane, now);
    for (const TransferManager::Member& member : lane.members) {
      if (member.finish - served > TransferManager::kDoneUnits) continue;
      ensure(!completed,
          "TransferAudit: a member past the done line outlived the "
          "completion sweep");
      ensure(std::binary_search(queued.begin(), queued.end(), member.id),
          "TransferAudit: a member past the done line was never queued by "
          "a settle");
    }
  }
}

bool TransferAudit::check_plan(const TransferManager& m, bool planned_now) {
  if (!m.dirty_lanes_.empty() || !m.network_.rate_changes().empty()) {
    ensure(!planned_now,
        "TransferAudit: a re-plan left a dirty lane or an unread rate "
        "change");
    return false;
  }
  double earliest = kInfinity;
  std::size_t moving = 0;
  for (std::uint32_t b = 0; b < m.lanes_.size(); ++b) {
    const TransferManager::Lane& lane = m.lanes_[b];
    for (std::uint32_t pos = 0; pos < lane.members.size(); ++pos) {
      const TransferManager::Transfer* transfer =
          m.transfers_.find(lane.members[pos].id);
      ensure(transfer != nullptr && transfer->lane == b &&
                 transfer->pos == pos,
          "TransferAudit: a lane member's back-pointer is not its position");
      ensure(pos == 0 || !(lane.members[pos].finish <
                           lane.members[(pos - 1) / 2].finish),
          "TransferAudit: a lane is out of order");
    }
    if (!lane.members.empty()) {
      ensure(lane.rate == m.network_.bundle_rate(b).value(),
          "TransferAudit: a lane's rate is not its bundle's");
    }
    if (lane.members.empty() || !(lane.rate > 0.0)) {
      ensure(lane.due_pos == TransferManager::kUnqueued,
          "TransferAudit: an empty or severed lane is in the due-heap");
      continue;
    }
    const double due = TransferManager::due_time(lane);
    ensure(lane.due_pos < m.due_heap_.size() &&
               m.due_heap_[lane.due_pos].lane == b &&
               m.due_heap_[lane.due_pos].at == due,
        "TransferAudit: a moving lane is not keyed at its due instant");
    ++moving;
    earliest = std::min(earliest, due);
  }
  ensure(moving == m.due_heap_.size(),
      "TransferAudit: the due-heap holds a lane that is not moving");
  for (std::size_t pos = 1; pos < m.due_heap_.size(); ++pos) {
    ensure(!(m.due_heap_[pos].at < m.due_heap_[(pos - 1) / 2].at),
        "TransferAudit: the due-heap is out of order");
  }

  // The wake-up the old scan over every lane would have planned.
  const SimTime now = m.sim_.now();
  double expected = kInfinity;
  if (!m.transfers_.empty()) {
    expected = std::min(earliest,
                        m.network_.next_traffic_change(now).seconds());
  }
  const std::optional<SimTime> wake =
      m.sim_.queue().scheduled_time(m.wake_);
  const double at = wake ? wake->seconds() : kInfinity;
  if (planned_now) {
    expected = std::max(expected, now.seconds());
  } else if (!wake || !(at > now.seconds())) {
    // The wake-up is firing now, or was floored at the earlier instant of
    // its plan.  One still pending past now was planned before the traffic
    // step it caps ends, so the scan at now must find it unfloored.
    return true;
  }
  ensure(at == expected,
      "TransferAudit: the wake-up is not the earliest due instant or "
      "traffic change");
  return true;
}

}  // namespace vod::net
