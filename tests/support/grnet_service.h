// The paper's GRNET case study (Figure 6, Tables 2–5) as a running
// VodService: the one scenario fixture the service-level suites share.
//
// A fixture owns the whole stack — the case study, its background traffic,
// the simulation, the fluid network and the service — plus one title,
// "movie".  A suite states only what it varies through GrnetSetup; several
// fixtures may live in one process, since every run owns its state.
#pragma once

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "grnet/grnet.h"
#include "net/fluid.h"
#include "net/traffic.h"
#include "service/vod_service.h"
#include "sim/simulation.h"

namespace vod::test {

/// 10 MB clusters and a DMA admission threshold no test reaches, so
/// requests exercise the VRA instead of copying the title home.
inline service::ServiceOptions routing_only_options() {
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  return options;
}

/// The background traffic the service's flows share the links with.
enum class Background {
  kIdle,    // net::NoTraffic: every link's whole capacity is free
  kTable2,  // the paper's measured day (grnet::table2_trace)
};

/// What a suite varies; the defaults are the common case.
struct GrnetSetup {
  service::ServiceOptions options = routing_only_options();
  Background background = Background::kIdle;
  MegaBytes movie_size{40.0};
  Mbps movie_bitrate{2.0};
  /// Sites given an initial copy of the movie, as grnet::CaseStudy members.
  std::vector<NodeId grnet::CaseStudy::*> holders{
      &grnet::CaseStudy::thessaloniki};
  /// Start the service (its first SNMP poll and the polling schedule).
  bool start = true;
};

/// The stack, built in declaration order.  Client IPs resolve to Patra
/// (150.140.0.0/16) and Heraklio (147.52.0.0/16).
struct GrnetService {
  explicit GrnetService(const GrnetSetup& setup = {})
      : traffic(make_traffic(g, setup.background)),
        network(g.topology, *traffic),
        service(std::make_unique<service::VodService>(
            sim, g.topology, network, setup.options,
            db::AdminCredential{"secret"})),
        movie(service->add_video("movie", setup.movie_size,
                                 setup.movie_bitrate)) {
    for (NodeId grnet::CaseStudy::*holder : setup.holders) {
      service->place_initial_copy(g.*holder, movie);
    }
    service->ip_directory().add_subnet("150.140.0.0/16", g.patra);
    service->ip_directory().add_subnet("147.52.0.0/16", g.heraklio);
    if (setup.start) service->start();
  }

  grnet::CaseStudy g = grnet::build_case_study();
  std::unique_ptr<const net::TrafficModel> traffic;
  sim::Simulation sim;
  net::FluidNetwork network;
  std::unique_ptr<service::VodService> service;
  VideoId movie;

 private:
  static std::unique_ptr<const net::TrafficModel> make_traffic(
      const grnet::CaseStudy& g, Background background) {
    if (background == Background::kTable2) {
      return std::make_unique<net::TraceTraffic>(grnet::table2_trace(g));
    }
    return std::make_unique<net::NoTraffic>();
  }
};

}  // namespace vod::test
