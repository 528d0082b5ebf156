// Admission control — the enforcement half of the paper's QoS goal.
//
// "What we want to achieve by enforcing our routing algorithm is to provide
//  a minimum QoS, which should be equal to the minimum video frame rate for
//  which a video can be considered decent."
//
// Routing alone cannot guarantee that: if every path to every holder is
// saturated, the stream will rebuffer no matter which one the VRA picks.
// Admission closes the loop by checking, against the same limited-access
// statistics the VRA uses, that the chosen path has enough residual
// bandwidth to sustain the title's bitrate before the session is allowed
// to start (VodService::request_classed).
#pragma once

#include <cmath>

#include "common/units.h"
#include "db/database.h"
#include "routing/path.h"

namespace vod::service {

/// A headroom multiplier must be finite and positive: NaN would reject
/// every request and +inf would make every deficit uncoverable.
[[nodiscard]] inline bool valid_headroom(double headroom) {
  return std::isfinite(headroom) && headroom > 0.0;
}

/// Free bandwidth of one link per the database's SNMP statistics: total
/// minus used, floored at 0, and 0 while the link is offline (a severed
/// link carries nothing, whatever its last counters said).
[[nodiscard]] Mbps link_residual(const db::LinkRecord& record);

/// Smallest link_residual along the path's links — the slightly stale
/// picture the VRA routes on.  A path with no links has no bottleneck:
/// the result is +infinity.
[[nodiscard]] Mbps path_residual(const db::LimitedAccessView& view,
                                 const routing::Path& path);

}  // namespace vod::service
