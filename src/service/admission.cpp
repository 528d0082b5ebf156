#include "service/admission.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contract.h"

namespace vod::service {

AdmissionController::AdmissionController(db::LimitedAccessView view,
                                         AdmissionOptions options)
    : view_(view), options_(options) {
  require(valid_headroom(options.required_headroom),
      "AdmissionController: headroom must be finite and positive");
  for (const double h : options.class_headroom) {
    require(valid_headroom(h),
        "AdmissionController: class headroom must be finite and positive");
  }
}

Mbps AdmissionController::path_residual(const routing::Path& path,
                                        NodeId home) const {
  if (path.links.empty()) {
    return view_.server(home).config.access_bandwidth;
  }
  Mbps residual{std::numeric_limits<double>::infinity()};
  for (const LinkId link : path.links) {
    const db::LinkRecord& record = view_.link(link);
    if (!record.online) return Mbps{0.0};
    const Mbps free{std::max(
        0.0, (record.total_bandwidth - record.used_bandwidth).value())};
    residual = std::min(residual, free);
  }
  return residual;
}

bool AdmissionController::admit(const vra::Decision& decision, Mbps bitrate,
                                UserClass cls) const {
  require(!(bitrate.value() <= 0.0), "AdmissionController: bad bitrate");
  if (decision.served_locally) return true;
  const Mbps residual = path_residual(decision.path, decision.path.source());
  return residual.value() >= required_rate(bitrate, cls).value();
}

Mbps AdmissionController::required_rate(Mbps bitrate, UserClass cls) const {
  return Mbps{options_.required_headroom *
              options_.class_headroom[class_index(cls)] * bitrate.value()};
}

}  // namespace vod::service
