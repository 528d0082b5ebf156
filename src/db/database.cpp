#include "db/database.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::db {

Database::Database(AdminCredential admin, const net::Topology& topology)
    : admin_(std::move(admin)), servers_online_(topology.node_count(), true) {
  require(!admin_.secret.empty(), "Database: admin secret must be non-empty");
  links_.reserve(topology.link_count());
  for (const net::LinkInfo& info : topology.links()) {
    LinkRecord record;
    record.total_bandwidth = info.capacity;
    links_.push_back(record);
  }
}

VideoId Database::register_video(std::string title, MegaBytes size,
                                 Mbps bitrate) {
  require(!title.empty(), "register_video: empty title");
  require(!(size.value() <= 0.0), "register_video: size must be positive");
  require(!(bitrate.value() <= 0.0),
      "register_video: bitrate must be positive");
  const VideoId id{static_cast<VideoId::underlying_type>(titles_.size())};
  titles_.push_back({VideoInfo{id, std::move(title), size, bitrate}, {}});
  return id;
}

FullAccessView Database::full_view() const { return FullAccessView{this}; }

LimitedAccessView Database::limited_view(const AdminCredential& credential) {
  require(credential == admin_, "limited_view: bad admin credential");
  return LimitedAccessView{this};
}

// --- FullAccessView ---

std::vector<VideoInfo> FullAccessView::list_videos() const {
  std::vector<VideoInfo> out;
  out.reserve(db_->titles_.size());
  for (const Database::Title& entry : db_->titles_) out.push_back(entry.info);
  return out;
}

std::optional<VideoInfo> FullAccessView::video(VideoId id) const {
  if (!has_video(id)) return std::nullopt;
  return db_->titles_[id.value()].info;
}

std::optional<VideoInfo> FullAccessView::find_by_title(
    const std::string& title) const {
  for (const Database::Title& entry : db_->titles_) {
    if (entry.info.title == title) return entry.info;
  }
  return std::nullopt;
}

const std::vector<NodeId>& FullAccessView::servers_with_title(
    VideoId video) const {
  return has_video(video) ? db_->titles_[video.value()].holders
                          : db_->no_holders_;
}

std::vector<VideoInfo> FullAccessView::search(
    const std::string& needle) const {
  std::vector<VideoInfo> out;
  for (const Database::Title& entry : db_->titles_) {
    if (entry.info.title.find(needle) != std::string::npos) {
      out.push_back(entry.info);
    }
  }
  return out;
}

// --- LimitedAccessView ---

LinkRecord& LimitedAccessView::entry(LinkId link, const char* what) const {
  require_found(link.value() < db_->links_.size(), what);
  return db_->links_[link.value()];
}

void LimitedAccessView::check_server(NodeId node, const char* what) const {
  require_found(node.value() < db_->servers_online_.size(), what);
}

void LimitedAccessView::update_link_stats(LinkId link, Mbps used,
                                          double utilization, SimTime when) {
  require(!(used.value() < 0.0 || utilization < 0.0 || utilization > 1.0),
      "update_link_stats: bad statistics");
  LinkRecord& record = entry(link, "update_link_stats: unknown link");
  // SNMP re-reporting identical counters refreshes the staleness clock but
  // is not a change: the epoch moves only when a VRA-relevant value
  // actually differs.
  if (record.used_bandwidth.value() != used.value() ||
      record.utilization != utilization) {
    record.used_bandwidth = used;
    record.utilization = utilization;
    ++db_->links_changed_epoch_;
  }
  record.last_snmp_update = when;
}

void LimitedAccessView::set_link_online(LinkId link, bool online) {
  LinkRecord& record = entry(link, "set_link_online: unknown link");
  if (record.online == online) return;
  record.online = online;
  ++db_->links_changed_epoch_;
}

const LinkRecord& LimitedAccessView::link(LinkId link) const {
  return entry(link, "link: unknown link");
}

bool LimitedAccessView::server_online(NodeId node) const {
  check_server(node, "server_online: unknown server");
  return db_->servers_online_[node.value()];
}

void LimitedAccessView::set_server_online(NodeId node, bool online) {
  check_server(node, "set_server_online: unknown server");
  db_->servers_online_[node.value()] = online;
}

void LimitedAccessView::add_title(NodeId node, VideoId video) {
  require(db_->full_view().has_video(video), "add_title: unknown video");
  check_server(node, "add_title: unknown server");
  std::vector<NodeId>& holders = db_->titles_[video.value()].holders;
  const auto pos = std::lower_bound(holders.begin(), holders.end(), node);
  if (pos != holders.end() && *pos == node) return;  // already held
  holders.insert(pos, node);
}

void LimitedAccessView::remove_title(NodeId node, VideoId video) {
  check_server(node, "remove_title: unknown server");
  if (!db_->full_view().has_video(video)) return;
  std::vector<NodeId>& holders = db_->titles_[video.value()].holders;
  const auto pos = std::lower_bound(holders.begin(), holders.end(), node);
  if (pos == holders.end() || *pos != node) return;  // not held
  holders.erase(pos);
}

double LimitedAccessView::stats_age(LinkId link, SimTime now) const {
  return now - entry(link, "stats_age: unknown link").last_snmp_update;
}

}  // namespace vod::db
