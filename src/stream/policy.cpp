#include "stream/policy.h"

#include <stdexcept>

#include "common/contract.h"

namespace vod::stream {

VraPolicy::VraPolicy(const vra::Vra& vra, double switch_hysteresis)
    : vra_(vra), hysteresis_(switch_hysteresis) {
  require(!(switch_hysteresis < 0.0 || switch_hysteresis >= 1.0),
      "VraPolicy: hysteresis outside [0, 1)");
}

std::optional<Selection> VraPolicy::select(NodeId home, VideoId video) {
  const auto decision = vra_.select_server(home, video);
  if (!decision) return std::nullopt;
  // With no hysteresis the sticky map is never read, so skip writing it.
  if (hysteresis_ == 0.0) return Selection{decision->server, decision->path};
  if (decision->served_locally) {
    last_choice_[{home, video}] = decision->server;
    return Selection{decision->server, decision->path};
  }

  // Sticky choice: switch away from the previous source only when the new
  // best is cheaper than staying by more than the hysteresis margin.
  const auto key = std::make_pair(home, video);
  const auto it = last_choice_.find(key);
  if (it != last_choice_.end() && it->second != decision->server) {
    for (const vra::Candidate& candidate : decision->candidates) {
      if (candidate.server != it->second) continue;
      const double stay_cost = candidate.path.cost;
      if (decision->path.cost >= (1.0 - hysteresis_) * stay_cost) {
        return Selection{candidate.server, candidate.path};
      }
      break;
    }
  }
  last_choice_[key] = decision->server;
  return Selection{decision->server, decision->path};
}

}  // namespace vod::stream
