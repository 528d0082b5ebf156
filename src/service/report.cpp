#include "service/report.h"

#include <sstream>

#include "common/csv.h"
#include "common/table.h"

namespace vod::service {

namespace {

/// Every report percentile renders through here: SampleSet::quantile
/// delegates to vod::nearest_rank (common/stats.h), the same rank rule
/// obs::bucket_quantile uses for histogram/SLO percentiles — one
/// implementation, one precision.
std::string quantile_cell(const SampleSet& samples, double q) {
  return TextTable::num(samples.quantile(q), 2);
}

}  // namespace

ServiceReport build_report(const VodService& service, Mbps qos_floor) {
  ServiceReport report;
  report.qos_floor = qos_floor;
  // The cache counters come through the metrics registry (the collectors
  // mirror the VRA's stats into the snapshot), so the report and any other
  // metrics consumer read one source of truth.
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  report.vra_cache.graph_hits = snap.value_u64("vra.graph_hits");
  report.vra_cache.graph_incremental = snap.value_u64("vra.graph_incremental");
  report.vra_cache.graph_rebuilds = snap.value_u64("vra.graph_rebuilds");
  report.vra_cache.edges_rewritten = snap.value_u64("vra.edges_rewritten");
  report.vra_cache.spt_hits = snap.value_u64("vra.spt_hits");
  report.vra_cache.spt_misses = snap.value_u64("vra.spt_misses");
  for (const SessionId id : service.session_ids()) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    ++report.sessions;
    report.total_switches += m.server_switches;
    report.total_stall_retries += m.stall_retries;
    report.total_rebuffer_seconds += m.rebuffer_seconds;
    if (m.failed) {
      ++report.failed;
      continue;
    }
    if (!m.finished) {
      ++report.in_flight;
      continue;
    }
    ++report.finished;
    report.startup_seconds.add(m.startup_delay());
    report.download_seconds.add(*m.download_completed_at - m.requested_at);
    const Mbps floor = qos_floor.value() > 0.0
                           ? qos_floor
                           : service.session_video(id).bitrate;
    if (m.meets_qos_floor(floor)) ++report.qos_ok;
  }
  return report;
}

std::string format_report(const ServiceReport& report) {
  TextTable table{{"metric", "value"}};
  table.add_row({"sessions", std::to_string(report.sessions)});
  table.add_row({"finished", std::to_string(report.finished)});
  table.add_row({"failed", std::to_string(report.failed)});
  table.add_row({"in flight", std::to_string(report.in_flight)});
  if (report.finished > 0) {
    table.add_row({"startup median (s)",
                   TextTable::num(report.startup_seconds.median(), 1)});
    table.add_row({"startup p95 (s)",
                   TextTable::num(report.startup_seconds.quantile(0.95), 1)});
    table.add_row({"download median (s)",
                   TextTable::num(report.download_seconds.median(), 1)});
    table.add_row(
        {"download p95 (s)",
         TextTable::num(report.download_seconds.quantile(0.95), 1)});
  }
  table.add_row({"total rebuffer (s)",
                 TextTable::num(report.total_rebuffer_seconds, 1)});
  table.add_row({"server switches", std::to_string(report.total_switches)});
  table.add_row({"stall retries",
                 std::to_string(report.total_stall_retries)});
  std::ostringstream floor_label;
  if (report.qos_floor.value() > 0.0) {
    floor_label << "QoS-ok (floor " << report.qos_floor << ")";
  } else {
    floor_label << "QoS-ok (floor = title bitrate)";
  }
  table.add_row({floor_label.str(),
                 std::to_string(report.qos_ok) + " (" +
                     TextTable::num(100.0 * report.qos_ok_share(), 0) +
                     "%)"});
  table.add_row({"VRA graph hits",
                 std::to_string(report.vra_cache.graph_hits)});
  table.add_row({"VRA graph incremental",
                 std::to_string(report.vra_cache.graph_incremental)});
  table.add_row({"VRA graph rebuilds",
                 std::to_string(report.vra_cache.graph_rebuilds)});
  table.add_row({"VRA edges rewritten",
                 std::to_string(report.vra_cache.edges_rewritten)});
  table.add_row({"VRA SPT hits",
                 std::to_string(report.vra_cache.spt_hits)});
  table.add_row({"VRA SPT misses",
                 std::to_string(report.vra_cache.spt_misses)});
  return table.render();
}

ResilienceReport build_resilience_report(const VodService& service,
                                         Mbps qos_floor) {
  ResilienceReport report;
  report.qos_floor = qos_floor;
  report.service_retries = service.service_retry_count();
  report.degraded_selections = service.vra().degraded_selection_count();
  report.classed = service.options().qos.enabled;
  for (const SessionId id : service.session_ids()) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    ResilienceReport::ClassSla& sla =
        report.by_class[class_index(service.session_class(id))];
    ++report.sessions;
    report.proactive_failovers += m.proactive_failovers;
    report.stall_retries += m.stall_retries;
    for (const double latency : m.failover_latencies) {
      report.failover_latency_seconds.add(latency);
      sla.failover_latency_seconds.add(latency);
    }
    // Every sacrifice counts, retried-and-superseded attempts included.
    if (m.failed && m.failure_reason == VodService::kPreemptedReason) {
      ++sla.preempted;
    }
    if (service.session_superseded(id)) continue;  // outcome lives on
    ++report.requests;
    ++sla.requests;
    report.stall_seconds.add(m.rebuffer_seconds);
    sla.stall_seconds.add(m.rebuffer_seconds);
    const bool hit_by_fault =
        !m.failover_latencies.empty() || m.proactive_failovers > 0;
    if (hit_by_fault) ++report.sessions_with_failover;
    if (m.finished) {
      ++report.finished;
      ++sla.finished;
      if (hit_by_fault) ++report.survived_failover;
      const Mbps floor = qos_floor.value() > 0.0
                             ? qos_floor
                             : service.session_video(id).bitrate;
      if (m.meets_qos_floor(floor)) ++report.qos_ok;
    } else if (m.failed) {
      ++report.failed;
      ++sla.failed;
    } else {
      ++report.hung;
    }
  }
  // The front-door admission series exist only for classes that saw a
  // classed request (the instruments are created lazily).
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    const std::string prefix =
        std::string("qos.") + to_string(static_cast<UserClass>(c)) + ".";
    ResilienceReport::ClassSla& sla = report.by_class[c];
    const auto read = [&](const char* what) -> std::uint64_t {
      const std::string name = prefix + what;
      return snap.has(name) ? snap.value_u64(name) : 0;
    };
    sla.admission_requests = read("requests");
    sla.admitted = read("admitted");
    sla.rejected = read("rejected");
    sla.no_server = read("no_server");
  }
  return report;
}

std::string format_resilience_report(const ResilienceReport& report) {
  TextTable table{{"metric", "value"}};
  table.add_row({"sessions (incl. retries)", std::to_string(report.sessions)});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"finished", std::to_string(report.finished)});
  table.add_row({"failed", std::to_string(report.failed)});
  table.add_row({"hung", std::to_string(report.hung)});
  table.add_row({"availability",
                 TextTable::num(100.0 * report.availability(), 1) + "%"});
  table.add_row({"QoS-ok", std::to_string(report.qos_ok)});
  table.add_row({"requests hit by faults",
                 std::to_string(report.sessions_with_failover)});
  table.add_row({"...of which finished",
                 std::to_string(report.survived_failover)});
  if (report.failover_latency_seconds.count() > 0) {
    table.add_row({"failover latency p50 (s)",
                   quantile_cell(report.failover_latency_seconds, 0.5)});
    table.add_row({"failover latency p95 (s)",
                   quantile_cell(report.failover_latency_seconds, 0.95)});
  }
  if (report.stall_seconds.count() > 0) {
    table.add_row(
        {"stall time p50 (s)", quantile_cell(report.stall_seconds, 0.5)});
    table.add_row(
        {"stall time p99 (s)", quantile_cell(report.stall_seconds, 0.99)});
  }
  table.add_row({"proactive failovers",
                 std::to_string(report.proactive_failovers)});
  table.add_row({"stall retries", std::to_string(report.stall_retries)});
  table.add_row({"service retries", std::to_string(report.service_retries)});
  table.add_row({"degraded selections",
                 std::to_string(report.degraded_selections)});
  if (report.classed) {
    for (std::size_t c = 0; c < kUserClassCount; ++c) {
      const ResilienceReport::ClassSla& sla = report.by_class[c];
      if (sla.requests == 0 && sla.admission_requests == 0) continue;
      const std::string cls = to_string(static_cast<UserClass>(c));
      table.add_row({cls + " admit rate",
                     std::to_string(sla.admitted) + "/" +
                         std::to_string(sla.admission_requests) + " (" +
                         TextTable::num(100.0 * sla.admit_rate(), 1) + "%)"});
      table.add_row({cls + " availability",
                     TextTable::num(100.0 * sla.availability(), 1) + "%"});
      table.add_row({cls + " preempted", std::to_string(sla.preempted)});
      if (sla.stall_seconds.count() > 0) {
        table.add_row({cls + " stall p50/p99 (s)",
                       quantile_cell(sla.stall_seconds, 0.5) + " / " +
                           quantile_cell(sla.stall_seconds, 0.99)});
      }
      if (sla.failover_latency_seconds.count() > 0) {
        table.add_row({cls + " failover p95 (s)",
                       quantile_cell(sla.failover_latency_seconds, 0.95)});
      }
    }
  }
  return table.render();
}

std::string report_sessions_csv(const VodService& service) {
  CsvWriter csv{{"session", "home", "title", "outcome", "startup_s",
                 "download_s", "rebuffer_s", "switches", "stall_retries",
                 "mean_rate_mbps"}};
  for (const SessionId id : service.session_ids()) {
    const stream::SessionMetrics& m = service.session_metrics(id);
    const char* outcome =
        m.failed ? "failed" : (m.finished ? "finished" : "in-flight");
    csv.add_row({
        std::to_string(id.value()),
        service.topology().node_name(service.session_home(id)),
        service.session_video(id).title,
        outcome,
        TextTable::num(m.startup_delay(), 3),
        m.download_completed_at
            ? TextTable::num(*m.download_completed_at - m.requested_at, 3)
            : "",
        TextTable::num(m.rebuffer_seconds, 3),
        std::to_string(m.server_switches),
        std::to_string(m.stall_retries),
        TextTable::num(m.mean_delivered_rate.value(), 3),
    });
  }
  return csv.str();
}

}  // namespace vod::service
