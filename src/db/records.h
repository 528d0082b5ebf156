// Record types stored in the service database.
//
// The paper's database holds one entry per title, per server and per link.
// Titles are the full-access part (what any user may see: the catalog);
// server and link entries are the limited-access part (network state only
// administrators and the VRA may read).  A server's entry is its online
// flag alone (Database keeps it); its name is the topology's node name and
// its hardware lives in its DiskArray.
#pragma once

#include <string>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"

namespace vod::db {

/// A video title in the catalog.
struct VideoInfo {
  VideoId id;
  std::string title;
  MegaBytes size;
  Mbps bitrate;  // encoding rate required for real-time playback
};

/// One link's database entry (its name is the topology's link name).
struct LinkRecord {
  Mbps total_bandwidth;          // limited-access, topology capacity (eq. 2 LBW)
  Mbps used_bandwidth;           // limited-access, SNMP-entered (eq. 2 UBW)
  double utilization = 0.0;      // limited-access, SNMP-entered (eq. 3 LT)
  bool online = true;            // limited-access: false after a link failure
  SimTime last_snmp_update{0.0};
};

}  // namespace vod::db
