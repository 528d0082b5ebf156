// Record types stored in the service database.
//
// The paper's database holds one entry per title, per server and per link.
// Titles are the full-access part (what any user may see: the catalog);
// server and link entries are the limited-access part (network and
// configuration state only administrators and the VRA may read).
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

/// Limited-access configuration of a video server (entered by the
/// administrators during service initialization).
struct ServerConfig {
  int disk_count = 0;
  MegaBytes disk_capacity;   // per disk
  Mbps access_bandwidth;     // the server's connection to the network
};

/// One server's database entry.
struct ServerRecord {
  std::string name;
  ServerConfig config;  // limited-access
  bool online = true;   // limited-access: can it serve right now?
};

/// One link's database entry.
struct LinkRecord {
  std::string name;
  Mbps total_bandwidth;          // limited-access, admin-entered (eq. 2 LBW)
  Mbps used_bandwidth;           // limited-access, SNMP-entered (eq. 2 UBW)
  double utilization = 0.0;      // limited-access, SNMP-entered (eq. 3 LT)
  bool online = true;            // limited-access: false after a link failure
  SimTime last_snmp_update{0.0};
  /// Database::change_epoch() value of the last write that actually changed
  /// this link's VRA-relevant state (used/utilization/online).  Lets the
  /// VRA's incremental engine find the dirty links since its cached build.
  std::uint64_t last_changed_epoch = 0;
};

}  // namespace vod::db
