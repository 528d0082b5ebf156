#include "support/holdings_audit.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/contract.h"

namespace vod::test {

namespace {

std::string where(NodeId node, VideoId video) {
  return "node " + std::to_string(node.value()) + " video " +
         std::to_string(video.value());
}

}  // namespace

void check_holdings(service::VodService& service) {
  const db::FullAccessView catalog = service.database().full_view();
  const std::vector<db::VideoInfo> titles = catalog.list_videos();
  for (std::size_t n = 0; n < service.topology().node_count(); ++n) {
    const NodeId node{static_cast<NodeId::underlying_type>(n)};
    const dma::DmaCache& cache = service.dma_cache(node);
    const storage::DiskArray& array = cache.disks();
    for (const db::VideoInfo& info : titles) {
      const std::vector<NodeId>& holders =
          catalog.servers_with_title(info.id);
      const bool listed =
          std::binary_search(holders.begin(), holders.end(), node);
      ensure(listed == cache.cached(info.id), [&] {
        return "holdings: catalog and DMA disagree at " +
               where(node, info.id);
      });
      ensure(cache.cached(info.id) == array.holds(info.id), [&] {
        return "holdings: DMA and disk array disagree at " +
               where(node, info.id);
      });
    }
    // Each disk is charged exactly its placements' shares.  The sums may
    // differ from used() by rounding, since usage was charged and freed
    // across titles in event order.
    std::vector<double> charged(array.disk_count(), 0.0);
    for (const VideoId video : array.stored_videos()) {
      const std::vector<MegaBytes> share =
          array.placement(video).per_disk_bytes(array.disk_count());
      for (std::size_t slot = 0; slot < share.size(); ++slot) {
        charged[slot] += share[slot].value();
      }
    }
    for (std::size_t slot = 0; slot < array.disk_count(); ++slot) {
      const double used = array.disk(slot).used().value();
      ensure(std::abs(used - charged[slot]) <= 1e-6 * (1.0 + charged[slot]),
             [&] {
               return "holdings: node " + std::to_string(n) + " disk " +
                      std::to_string(slot) + " uses " +
                      std::to_string(used) + " MB, its placements " +
                      std::to_string(charged[slot]) + " MB";
             });
    }
  }
}

}  // namespace vod::test
