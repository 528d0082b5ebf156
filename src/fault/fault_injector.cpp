#include "fault/fault_injector.h"

#include <cmath>

#include "common/rng.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace vod::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkCut: return "link-cut";
    case FaultKind::kLinkRestore: return "link-restore";
    case FaultKind::kServerCrash: return "server-crash";
    case FaultKind::kServerRestore: return "server-restore";
    case FaultKind::kDiskFailure: return "disk-failure";
    case FaultKind::kSnmpOutage: return "snmp-outage";
    case FaultKind::kSnmpRestore: return "snmp-restore";
  }
  return "unknown";
}

FaultInjector::FaultInjector(sim::Simulation& sim,
                             service::VodService& service)
    : sim_(sim), service_(service) {}

void FaultInjector::cut_link_at(SimTime at, LinkId link) {
  schedule(at, FaultRecord{at, FaultKind::kLinkCut, link.value(), 0});
}

void FaultInjector::restore_link_at(SimTime at, LinkId link) {
  schedule(at, FaultRecord{at, FaultKind::kLinkRestore, link.value(), 0});
}

void FaultInjector::crash_server_at(SimTime at, NodeId server) {
  schedule(at, FaultRecord{at, FaultKind::kServerCrash, server.value(), 0});
}

void FaultInjector::restore_server_at(SimTime at, NodeId server) {
  schedule(at,
           FaultRecord{at, FaultKind::kServerRestore, server.value(), 0});
}

void FaultInjector::fail_disk_at(SimTime at, NodeId server,
                                 std::size_t slot) {
  schedule(at, FaultRecord{at, FaultKind::kDiskFailure, server.value(), slot});
}

void FaultInjector::snmp_outage_at(SimTime at) {
  schedule(at, FaultRecord{at, FaultKind::kSnmpOutage, 0, 0});
}

void FaultInjector::snmp_restore_at(SimTime at) {
  schedule(at, FaultRecord{at, FaultKind::kSnmpRestore, 0, 0});
}

std::size_t FaultInjector::disk_count_of(NodeId server) const {
  const service::ServiceOptions& options = service_.options();
  const auto it = options.server_overrides.find(server);
  return it != options.server_overrides.end() ? it->second.disk_count
                                              : options.server.disk_count;
}

void FaultInjector::schedule_random(const FaultScheduleOptions& options,
                                    std::uint64_t seed) {
  Rng rng{seed};
  const SimTime base = sim_.now();
  const double horizon = options.horizon_seconds;

  // Links: alternating exponential up/down renewal per link, in topology
  // order so the schedule is a pure function of (topology, options, seed).
  if (std::isfinite(options.link_mtbf_seconds)) {
    for (const net::LinkInfo& info : service_.topology().links()) {
      double t = rng.exponential(1.0 / options.link_mtbf_seconds);
      while (t < horizon) {
        cut_link_at(base + t, info.id);
        const double repair =
            t + rng.exponential(1.0 / options.link_mttr_seconds);
        restore_link_at(base + repair, info.id);
        t = repair + rng.exponential(1.0 / options.link_mtbf_seconds);
      }
    }
  }

  // Servers: same renewal shape, node order.
  if (std::isfinite(options.server_mtbf_seconds)) {
    for (std::size_t n = 0; n < service_.topology().node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      double t = rng.exponential(1.0 / options.server_mtbf_seconds);
      while (t < horizon) {
        crash_server_at(base + t, node);
        const double repair =
            t + rng.exponential(1.0 / options.server_mttr_seconds);
        restore_server_at(base + repair, node);
        t = repair + rng.exponential(1.0 / options.server_mtbf_seconds);
      }
    }
  }

  // Disks: at most one failure per server (no repair), random slot.
  if (std::isfinite(options.disk_mtbf_seconds)) {
    for (std::size_t n = 0; n < service_.topology().node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      const double t = rng.exponential(1.0 / options.disk_mtbf_seconds);
      const std::size_t disks = disk_count_of(node);
      if (t >= horizon || disks == 0) continue;
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(disks) - 1));
      fail_disk_at(base + t, node, slot);
    }
  }

  // The monitor itself: one renewal process.
  if (std::isfinite(options.snmp_mtbf_seconds)) {
    double t = rng.exponential(1.0 / options.snmp_mtbf_seconds);
    while (t < horizon) {
      snmp_outage_at(base + t);
      const double repair =
          t + rng.exponential(1.0 / options.snmp_mttr_seconds);
      snmp_restore_at(base + repair);
      t = repair + rng.exponential(1.0 / options.snmp_mtbf_seconds);
    }
  }
}

std::size_t FaultInjector::count(FaultKind kind) const {
  std::size_t n = 0;
  for (const FaultRecord& record : trace_) {
    if (record.kind == kind) ++n;
  }
  return n;
}

void FaultInjector::schedule(SimTime at, FaultRecord record) {
  sim_.schedule_at(at, [this, record](SimTime) { apply(record); });
}

void FaultInjector::apply(const FaultRecord& record) {
  if (obs::TraceRecorder* tr = sim_.obs().trace()) {
    tr->instant(
        obs::Subsystem::kFault,
        std::string{"fault."} + to_string(record.kind),
        {{"target", obs::num(static_cast<std::uint64_t>(record.target))},
         {"detail", obs::num(static_cast<std::uint64_t>(record.detail))}});
  }
  // Destructive faults fire the black box (restores are recoveries, not
  // anomalies); the recorder's min_gap turns a storm into a few dumps.
  switch (record.kind) {
    case FaultKind::kLinkCut:
    case FaultKind::kServerCrash:
    case FaultKind::kDiskFailure:
    case FaultKind::kSnmpOutage:
      if (obs::FlightRecorder* fr = sim_.obs().flight()) {
        fr->trigger(std::string{"fault."} + to_string(record.kind));
      }
      break;
    default:
      break;
  }
  switch (record.kind) {
    case FaultKind::kLinkCut:
      service_.fail_link(LinkId{record.target});
      break;
    case FaultKind::kLinkRestore:
      service_.restore_link(LinkId{record.target});
      break;
    case FaultKind::kServerCrash:
      service_.crash_server(NodeId{record.target});
      break;
    case FaultKind::kServerRestore:
      service_.restore_server(NodeId{record.target});
      break;
    case FaultKind::kDiskFailure:
      (void)service_.fail_disk(NodeId{record.target}, record.detail);
      break;
    case FaultKind::kSnmpOutage:
      service_.snmp().stop();
      break;
    case FaultKind::kSnmpRestore:
      service_.snmp().start();
      break;
  }
  trace_.push_back(record);
}

}  // namespace vod::fault
