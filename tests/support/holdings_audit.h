// A test-only audit of where each title is stored.
//
// The service keeps one record of holdings per layer: the database's holder
// list (what the VRA routes to), each server's DMA cache, and each disk
// array's placements (what the disks actually carry, and what each disk's
// usage is charged from).  check_holdings re-derives their agreement by a
// full scan and throws std::logic_error naming the first disagreement:
//  - for every server and title, servers_with_title lists the server
//    exactly when its DMA cache has the title cached, exactly when its
//    disk array holds a placement for it;
//  - every disk's used() equals the sum, over the placements on its array,
//    of that placement's per_disk_bytes share of the disk.
#pragma once

#include "service/vod_service.h"

namespace vod::test {

void check_holdings(service::VodService& service);

}  // namespace vod::test
