// The SNMP statistics module.
//
// Reproduces the paper's monitoring component: every 1–2 minutes ("a
// reasonable interval compromising between the mutation rate of network
// characteristics and the imposed overhead") it samples the used bandwidth
// and utilization of every link and inserts them into the limited-access
// database sub-module, where the VRA reads them.
//
// Because updates are periodic, the VRA always works from slightly stale
// data — the fidelity-relevant property the real SNMP deployment had, and
// one of the knobs the ablation benches turn.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "common/sim_time.h"
#include "db/database.h"
#include "net/fluid.h"
#include "sim/simulation.h"

namespace vod::snmp {

/// Periodically copies link counters from the (simulated) network into the
/// database's limited-access view.
class SnmpModule {
 public:
  /// `interval` defaults to 90 s — the middle of the paper's
  /// "1–2 minutes".  References must outlive the module.  The network is
  /// taken mutably because each sample first advances its traffic clock to
  /// the poll instant (counters must reflect "now").
  SnmpModule(sim::Simulation& sim, net::FluidNetwork& network,
             db::LimitedAccessView view, Duration interval = Duration{90.0});

  /// When false, samples report only the background (non-VoD) traffic —
  /// modelling a deployment that accounts its own streams separately so
  /// the VRA does not penalize the very path it is using (see the
  /// route-flapping discussion in DESIGN.md).  Default true: the paper's
  /// SNMP counters measure everything.
  void set_count_vod_flows(bool count) { count_vod_flows_ = count; }
  [[nodiscard]] bool count_vod_flows() const { return count_vod_flows_; }

  /// Begins periodic polling (first sample lands one interval from now).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return task_ && task_->running(); }

  /// Takes one sample immediately (used during service initialization so
  /// the VRA never sees all-zero statistics).
  void poll_now(SimTime now);

  [[nodiscard]] std::size_t poll_count() const { return poll_count_; }
  [[nodiscard]] double interval_seconds() const { return interval_.seconds(); }

  /// When the last sample was taken (nullopt before the first); lets the
  /// fault tooling assert a monitor outage and the resumption after it.
  [[nodiscard]] std::optional<SimTime> last_poll_at() const {
    return last_poll_at_;
  }

 private:
  void sample(SimTime now);

  sim::Simulation& sim_;
  net::FluidNetwork& network_;
  db::LimitedAccessView view_;
  Duration interval_;
  bool count_vod_flows_ = true;
  std::size_t poll_count_ = 0;
  std::optional<SimTime> last_poll_at_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace vod::snmp
