// The service database module.
//
// One in-process store with the paper's two conceptual sub-modules:
//   * FullAccessView   — what the user-facing web module may read: the video
//                        catalog and which servers offer which title.
//   * LimitedAccessView — what administrators, the SNMP module and the VRA
//                        may read and write: link bandwidth statistics and
//                        server configuration.
// A LimitedAccessView can only be obtained with the AdminCredential the
// database was created with, mirroring the paper's access restriction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/id_vector.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "db/records.h"

namespace vod::db {

/// Opaque administrator credential.
struct AdminCredential {
  std::string secret;

  friend bool operator==(const AdminCredential&,
                         const AdminCredential&) = default;
};

class FullAccessView;
class LimitedAccessView;

/// The shared data store.  Single-writer discrete-event use; not
/// thread-safe by design (the simulator is single-threaded and
/// deterministic).
class Database {
 public:
  explicit Database(AdminCredential admin);

  /// Registers a title in the global catalog.
  VideoId register_video(std::string title, MegaBytes size, Mbps bitrate);

  /// Registers a server entry (one per network node hosting a video
  /// server).  Duplicate ids throw.
  void register_server(NodeId node, std::string name, ServerConfig config);

  /// Registers a link entry with its admin-provided total bandwidth.
  void register_link(LinkId link, std::string name, Mbps total_bandwidth);

  /// Read-only catalog access for the user-facing web module.
  [[nodiscard]] FullAccessView full_view() const;

  /// Privileged access; throws std::invalid_argument on credential
  /// mismatch.
  LimitedAccessView limited_view(const AdminCredential& credential);

  // --- change epochs (the incremental VRA's invalidation signal) ---
  //
  // Every limited-access mutation advances change_epoch(); mutations that
  // change a link's VRA-relevant state (statistics or online flag) also
  // advance links_changed_epoch() and stamp the link's record.  A reader
  // that cached derived state at epoch E knows:
  //   * links_changed_epoch() <= E  -> its weighted graph is still valid;
  //   * otherwise the dirty links are exactly those with
  //     last_changed_epoch > E.
  // Writes that do not change any stored value (e.g. SNMP re-reporting
  // identical counters) bump nothing, so "dirty" means "actually changed".

  /// Monotonic counter of effective limited-access writes.
  [[nodiscard]] std::uint64_t change_epoch() const { return change_epoch_; }

  /// change_epoch() value of the last effective link-state write.
  [[nodiscard]] std::uint64_t links_changed_epoch() const {
    return links_changed_epoch_;
  }

 private:
  friend class FullAccessView;
  friend class LimitedAccessView;

  /// Bumps and returns the global epoch (an effective non-link write).
  std::uint64_t bump_epoch() { return ++change_epoch_; }
  /// Bumps the global epoch and marks it as a link-state change.
  std::uint64_t bump_link_epoch() {
    return links_changed_epoch_ = ++change_epoch_;
  }

  /// A title and its holders in ascending node order: the one record of
  /// which servers hold it.
  struct Title {
    VideoInfo info;
    std::vector<NodeId> holders;
  };

  AdminCredential admin_;
  /// Slot v is video v (ids are issued 0, 1, 2, ...).  `holders` is
  /// written only by add_title and remove_title, in the branch that bumps
  /// the epoch.
  std::vector<Title> titles_;
  /// What servers_with_title returns for an id the catalog never issued.
  std::vector<NodeId> no_holders_;
  IdVector<NodeId, ServerRecord> servers_;
  IdVector<LinkId, LinkRecord> links_;
  std::uint64_t change_epoch_ = 0;
  std::uint64_t links_changed_epoch_ = 0;
};

/// User-level read access: catalog browsing and title lookup.
class FullAccessView {
 public:
  [[nodiscard]] std::vector<VideoInfo> list_videos() const;
  [[nodiscard]] std::optional<VideoInfo> video(VideoId id) const;
  /// True when `id` is in the catalog (no VideoInfo copy).
  [[nodiscard]] bool has_video(VideoId id) const {
    return id.value() < db_->titles_.size();
  }
  [[nodiscard]] std::optional<VideoInfo> find_by_title(
      const std::string& title) const;

  /// Servers whose full-access entry lists `video` (candidate sources),
  /// in ascending node order; empty for an unknown video.  The reference
  /// is valid until the next add_title / remove_title / register_video.
  [[nodiscard]] const std::vector<NodeId>& servers_with_title(
      VideoId video) const;

  /// Case-sensitive substring search over titles.
  [[nodiscard]] std::vector<VideoInfo> search(
      const std::string& needle) const;

  [[nodiscard]] std::size_t video_count() const {
    return db_->titles_.size();
  }

 private:
  friend class Database;
  explicit FullAccessView(const Database* db) : db_(db) {}
  const Database* db_;
};

/// Administrator/VRA/SNMP access: network statistics and configuration.
class LimitedAccessView {
 public:
  // --- link statistics (written by the SNMP module, read by the VRA) ---
  void update_link_stats(LinkId link, Mbps used, double utilization,
                         SimTime when);
  /// Marks a link reachable/unreachable (written by the SNMP module when a
  /// poll detects a failure, or by an administrator).
  void set_link_online(LinkId link, bool online);
  [[nodiscard]] const LinkRecord& link(LinkId link) const;

  // --- server configuration and placement ---
  [[nodiscard]] const ServerRecord& server(NodeId node) const;
  void set_server_online(NodeId node, bool online);
  /// Records that `node` now holds (or no longer holds) a copy of `video`;
  /// these are the writes the DMA performs when it caches or evicts.
  void add_title(NodeId node, VideoId video);
  void remove_title(NodeId node, VideoId video);

  /// Staleness of a link's statistics relative to `now`.
  [[nodiscard]] double stats_age(LinkId link, SimTime now) const;

  // --- change epochs (see Database) ---
  [[nodiscard]] std::uint64_t change_epoch() const {
    return db_->change_epoch();
  }
  [[nodiscard]] std::uint64_t links_changed_epoch() const {
    return db_->links_changed_epoch();
  }

 private:
  friend class Database;
  explicit LimitedAccessView(Database* db) : db_(db) {}
  Database* db_;
};

}  // namespace vod::db
