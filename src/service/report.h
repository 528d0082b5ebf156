// Service-level QoS reporting.
//
// Aggregates every session a VodService has handled into the numbers an
// operator (or a bench) wants: completion/failure counts, startup and
// download statistics, rebuffering, switching, and how many sessions met
// the paper's QoS floor.  Renders as an aligned table or CSV.
#pragma once

#include <array>
#include <string>

#include "common/stats.h"
#include "common/units.h"
#include "common/user_class.h"
#include "service/vod_service.h"
#include "vra/vra.h"

namespace vod::service {

/// The aggregate view of a service's session history.
struct ServiceReport {
  std::size_t sessions = 0;
  std::size_t finished = 0;
  std::size_t failed = 0;
  std::size_t in_flight = 0;
  std::size_t qos_ok = 0;     // finished sessions meeting the floor
  Mbps qos_floor{0.0};

  SampleSet startup_seconds;
  SampleSet download_seconds;
  double total_rebuffer_seconds = 0.0;
  int total_switches = 0;
  int total_stall_retries = 0;

  /// Cached LVN engine counters (graph/SPT cache effectiveness).
  vra::VraCacheStats vra_cache;

  [[nodiscard]] double qos_ok_share() const {
    return finished > 0
               ? static_cast<double>(qos_ok) / static_cast<double>(finished)
               : 0.0;
  }
};

/// Scans all sessions of `service`; `qos_floor` is the minimum decent rate
/// (use each title's own bitrate via per-session checks when 0).
ServiceReport build_report(const VodService& service, Mbps qos_floor);

/// The failure-handling view of a service's session history: how many
/// user requests survived the faults, how fast failovers were, and which
/// recovery mechanisms did the work.  Sessions superseded by a service-
/// level retry contribute their failover latencies but not an outcome —
/// the request's outcome is its final attempt's.
struct ResilienceReport {
  std::size_t sessions = 0;   // session objects, retry attempts included
  std::size_t requests = 0;   // user-visible requests (minus superseded)
  std::size_t finished = 0;
  std::size_t failed = 0;     // failed with an explicit failure_reason
  std::size_t hung = 0;       // neither finished nor failed — must be 0
  std::size_t qos_ok = 0;
  Mbps qos_floor{0.0};

  /// Requests that recorded at least one failover, and how many of those
  /// still finished.
  std::size_t sessions_with_failover = 0;
  std::size_t survived_failover = 0;

  int proactive_failovers = 0;
  int stall_retries = 0;
  std::size_t service_retries = 0;
  std::uint64_t degraded_selections = 0;

  /// Fault notification -> streaming again, across all sessions.
  SampleSet failover_latency_seconds;

  /// Rebuffer seconds per user-visible request (zero included): p50/p99
  /// make degradation visible even when availability holds — a storm the
  /// service "survives" by stalling everyone shows up here first.
  SampleSet stall_seconds;

  /// Per-class SLA slice (set when the service ran with qos enabled).
  struct ClassSla {
    /// Session-derived outcomes (superseded retry attempts excluded).
    std::size_t requests = 0;
    std::size_t finished = 0;
    std::size_t failed = 0;
    /// Sessions of this class aborted by the preemption planner, retried
    /// attempts included — every sacrifice counts once.
    std::size_t preempted = 0;
    /// Front-door admission counters (from the qos.<class>.* series).
    std::uint64_t admission_requests = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t no_server = 0;
    SampleSet stall_seconds;
    SampleSet failover_latency_seconds;

    [[nodiscard]] double availability() const {
      return requests > 0 ? static_cast<double>(finished) /
                                static_cast<double>(requests)
                          : 0.0;
    }
    [[nodiscard]] double admit_rate() const {
      return admission_requests > 0
                 ? static_cast<double>(admitted) /
                       static_cast<double>(admission_requests)
                 : 0.0;
    }
  };
  bool classed = false;
  std::array<ClassSla, kUserClassCount> by_class{};

  /// Finished requests over all requests — the headline availability.
  [[nodiscard]] double availability() const {
    return requests > 0
               ? static_cast<double>(finished) / static_cast<double>(requests)
               : 0.0;
  }
};

ResilienceReport build_resilience_report(const VodService& service,
                                         Mbps qos_floor);

/// Human-readable summary table.
std::string format_resilience_report(const ResilienceReport& report);

/// Human-readable summary table.
std::string format_report(const ServiceReport& report);

/// One CSV row per session: id, home, title, outcome, startup, download,
/// rebuffer, switches, retries, mean rate.
std::string report_sessions_csv(const VodService& service);

}  // namespace vod::service
