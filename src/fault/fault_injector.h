// Deterministic fault injection against a running VodService.
//
// Faults are scheduled either by script (*_at methods) or by a seeded
// renewal process (schedule_random): every link, server and disk gets an
// alternating sequence of exponential up-times (MTBF) and repair times
// (MTTR), pre-generated from one Rng so a seed reproduces the exact same
// storm.  Each applied fault is appended to a trace, in execution order,
// for assertions and post-mortems.
//
// The injector only *causes* faults; the recovery machinery it exercises
// lives in the service layer (proactive session failover, service-level
// retries, the VRA's degraded mode) and in the sessions' stall watchdogs.
//
// Ordering guarantee: faults scheduled for the same instant apply in the
// order they were scheduled (EventQueue breaks timestamp ties by sequence
// number), so a cut_link_at/restore_link_at pair at the same time nets out
// to "restored" and the trace records both, in that order.  Together with
// the pre-generated random schedule this makes the whole storm a pure
// function of (options, seed) — the determinism tests assert it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "service/vod_service.h"
#include "sim/simulation.h"

namespace vod::fault {

enum class FaultKind {
  kLinkCut,
  kLinkRestore,
  kServerCrash,
  kServerRestore,
  kDiskFailure,
  kSnmpOutage,
  kSnmpRestore,
};

const char* to_string(FaultKind kind);

/// One applied fault.  `target` is the link/server id (unused for the SNMP
/// kinds); `detail` is the disk slot for kDiskFailure.
struct FaultRecord {
  SimTime at{0.0};
  FaultKind kind = FaultKind::kLinkCut;
  std::uint32_t target = 0;
  std::size_t detail = 0;

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// MTBF/MTTR knobs of the random schedule; infinity disables a fault
/// class.  Disks are never repaired (a failed disk stays failed).
struct FaultScheduleOptions {
  double horizon_seconds = 3600.0;
  double link_mtbf_seconds = std::numeric_limits<double>::infinity();
  double link_mttr_seconds = 300.0;
  double server_mtbf_seconds = std::numeric_limits<double>::infinity();
  double server_mttr_seconds = 600.0;
  double disk_mtbf_seconds = std::numeric_limits<double>::infinity();
  double snmp_mtbf_seconds = std::numeric_limits<double>::infinity();
  double snmp_mttr_seconds = 300.0;
};

class FaultInjector {
 public:
  /// Both references must outlive the injector.
  FaultInjector(sim::Simulation& sim, service::VodService& service);

  // ---- scripted faults ----

  void cut_link_at(SimTime at, LinkId link);
  void restore_link_at(SimTime at, LinkId link);
  void crash_server_at(SimTime at, NodeId server);
  void restore_server_at(SimTime at, NodeId server);
  void fail_disk_at(SimTime at, NodeId server, std::size_t slot);
  void snmp_outage_at(SimTime at);
  void snmp_restore_at(SimTime at);

  // ---- seeded random schedule ----

  /// Pre-generates the whole storm from `seed` and schedules it.  Repairs
  /// begun before the horizon complete even past it, so the network always
  /// heals and a drain period can finish the surviving sessions.
  void schedule_random(const FaultScheduleOptions& options,
                       std::uint64_t seed);

  /// Applied faults, in execution order.
  [[nodiscard]] const std::vector<FaultRecord>& trace() const {
    return trace_;
  }
  [[nodiscard]] std::size_t count(FaultKind kind) const;

 private:
  void schedule(SimTime at, FaultRecord record);
  void apply(const FaultRecord& record);
  [[nodiscard]] std::size_t disk_count_of(NodeId server) const;

  sim::Simulation& sim_;
  service::VodService& service_;
  std::vector<FaultRecord> trace_;
};

}  // namespace vod::fault
