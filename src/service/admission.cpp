#include "service/admission.h"

#include <algorithm>
#include <limits>

namespace vod::service {

Mbps link_residual(const db::LinkRecord& record) {
  if (!record.online) return Mbps{0.0};
  return Mbps{std::max(
      0.0, (record.total_bandwidth - record.used_bandwidth).value())};
}

Mbps path_residual(const db::LimitedAccessView& view,
                   const routing::Path& path) {
  Mbps residual{std::numeric_limits<double>::infinity()};
  for (const LinkId link : path.links) {
    residual = std::min(residual, link_residual(view.link(link)));
  }
  return residual;
}

}  // namespace vod::service
