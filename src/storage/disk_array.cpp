#include "storage/disk_array.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/contract.h"

namespace vod::storage {

DiskArray::DiskArray(std::size_t disk_count, DiskProfile profile,
                     MegaBytes cluster, StripingMode mode)
    : mode_(mode), failed_(disk_count, false), cluster_(cluster) {
  require(disk_count != 0, "DiskArray: need at least one disk");
  require(!(mode == StripingMode::kParity && disk_count < 2),
      "DiskArray: parity needs >= 2 disks");
  require(!(cluster.value() <= 0.0), "DiskArray: cluster must be positive");
  disks_.assign(disk_count, Disk{profile});
}

bool DiskArray::disk_failed(std::size_t slot) const {
  require_found(!(slot >= disks_.size()), "DiskArray::disk_failed: bad slot");
  return failed_[slot];
}

std::size_t DiskArray::healthy_disk_count() const {
  return static_cast<std::size_t>(
      std::count(failed_.begin(), failed_.end(), false));
}

bool DiskArray::recoverable(const StripePlacement& placement) const {
  if (!placement.has_parity()) {
    // Plain layout: any part on a failed disk is fatal.
    for (const std::size_t slot : placement.part_to_disk) {
      if (failed_[slot]) return false;
    }
    return true;
  }
  // Parity layout: a row survives while it misses at most one member
  // (data or parity).
  for (std::size_t row = 0; row < placement.row_count(); ++row) {
    int missing = failed_[placement.parity_to_disk[row]] ? 1 : 0;
    for (std::size_t j = 0; j < placement.row_width; ++j) {
      const std::size_t part = row * placement.row_width + j;
      if (part >= placement.part_count()) break;
      if (failed_[placement.part_to_disk[part]]) ++missing;
    }
    if (missing > 1) return false;
  }
  return true;
}

std::vector<VideoId> DiskArray::fail_disk(std::size_t slot) {
  require_found(!(slot >= disks_.size()), "DiskArray::fail_disk: bad slot");
  if (failed_[slot]) return {};
  failed_[slot] = true;
  std::vector<VideoId> lost;
  for (const auto& [video, placement] : placements_) {
    if (!recoverable(placement)) lost.push_back(video);
  }
  for (const VideoId video : lost) remove(video);
  return lost;
}

bool DiskArray::readable(VideoId video) const {
  const auto it = placements_.find(video);
  return it != placements_.end() && recoverable(it->second);
}

void DiskArray::repair_disk(std::size_t slot) {
  require_found(!(slot >= disks_.size()), "DiskArray::repair_disk: bad slot");
  failed_[slot] = false;
}

const Disk& DiskArray::disk(std::size_t slot) const {
  require_found(!(slot >= disks_.size()), "DiskArray::disk: bad slot");
  return disks_[slot];
}

bool DiskArray::can_tolerate(MegaBytes size) const {
  const std::size_t healthy = healthy_disk_count();
  const bool parity = mode_ == StripingMode::kParity;
  if (size.value() <= 0.0 || healthy < (parity ? 2u : 1u)) return false;
  // Bytes per surviving disk, by logical slot, in per_disk_bytes' order.
  fit_bytes_.assign(healthy, MegaBytes{0.0});
  for_each_part(size, cluster_, [&](std::size_t part, MegaBytes bytes) {
    fit_bytes_[parity ? parity_data_slot(part, healthy) : part % healthy] +=
        bytes;
  });
  if (parity) {
    // Each row's parity is as large as its largest data cluster.
    const std::size_t parts = part_count(size, cluster_);
    const std::size_t row_width = healthy - 1;
    MegaBytes largest{0.0};
    for_each_part(size, cluster_, [&](std::size_t part, MegaBytes bytes) {
      largest = std::max(largest, bytes);
      if ((part + 1) % row_width == 0 || part + 1 == parts) {
        fit_bytes_[parity_slot(part / row_width, healthy)] += largest;
        largest = MegaBytes{0.0};
      }
    });
  }
  std::size_t logical = 0;
  for (std::size_t slot = 0; slot < disks_.size(); ++slot) {
    if (failed_[slot]) continue;
    if (!disks_[slot].can_fit(fit_bytes_[logical++])) return false;
  }
  return true;
}

std::optional<StripePlacement> DiskArray::store(VideoId video,
                                                MegaBytes size) {
  require(!holds(video), "DiskArray::store: video already stored");
  if (!can_tolerate(size)) return std::nullopt;
  // Plan the layout over the surviving disks, then persist physical slots.
  const std::size_t healthy = healthy_disk_count();
  StripePlacement placement =
      mode_ == StripingMode::kParity
          ? plan_parity_striping(video, size, cluster_, healthy)
          : plan_striping(video, size, cluster_, healthy);
  if (healthy < disks_.size()) {
    std::vector<std::size_t> physical;
    for (std::size_t slot = 0; slot < disks_.size(); ++slot) {
      if (!failed_[slot]) physical.push_back(slot);
    }
    for (std::size_t& slot : placement.part_to_disk) slot = physical[slot];
    for (std::size_t& slot : placement.parity_to_disk) slot = physical[slot];
  }
  for (std::size_t part = 0; part < placement.part_count(); ++part) {
    disks_[placement.part_to_disk[part]].reserve(placement.part_sizes[part]);
  }
  for (std::size_t row = 0; row < placement.row_count(); ++row) {
    disks_[placement.parity_to_disk[row]].reserve(placement.parity_sizes[row]);
  }
  return placements_.emplace(video, std::move(placement)).first->second;
}

MegaBytes DiskArray::remove(VideoId video) {
  const auto it = placements_.find(video);
  if (it == placements_.end()) return MegaBytes{0.0};
  // Each disk frees its parts' sum, added in part order and then parity
  // rows: the order the bytes were charged in.
  const std::vector<MegaBytes> per_disk =
      it->second.per_disk_bytes(disks_.size());
  placements_.erase(it);
  MegaBytes freed{0.0};
  for (std::size_t slot = 0; slot < disks_.size(); ++slot) {
    disks_[slot].release(per_disk[slot]);
    freed += per_disk[slot];
  }
  return freed;
}

const StripePlacement& DiskArray::placement(VideoId video) const {
  const auto it = placements_.find(video);
  require_found(it != placements_.end(),
      "DiskArray::placement: video not stored");
  return it->second;
}

std::vector<VideoId> DiskArray::stored_videos() const {
  std::vector<VideoId> out;
  out.reserve(placements_.size());
  for (const auto& [video, placement] : placements_) out.push_back(video);
  return out;
}

MegaBytes DiskArray::total_capacity() const {
  MegaBytes total{0.0};
  for (const Disk& disk : disks_) total += disk.capacity();
  return total;
}

MegaBytes DiskArray::total_used() const {
  MegaBytes total{0.0};
  for (const Disk& disk : disks_) total += disk.used();
  return total;
}

double DiskArray::cluster_read_seconds(VideoId video,
                                       std::size_t part_index) const {
  const StripePlacement& placement = this->placement(video);
  require_found(!(part_index >= placement.part_count()),
      "DiskArray::cluster_read_seconds: bad part");
  const std::size_t slot = placement.part_to_disk[part_index];
  if (!failed_[slot]) {
    return disks_[slot].read_seconds(placement.part_sizes[part_index]);
  }
  ensure(!(!placement.has_parity() || !recoverable(placement)),
      "DiskArray::cluster_read_seconds: cluster unreadable");
  // Degraded read: reconstruct from the row's survivors, which sit on
  // distinct disks and read in parallel — latency is the slowest member.
  const std::size_t row = part_index / placement.row_width;
  double slowest = disks_[placement.parity_to_disk[row]].read_seconds(
      placement.parity_sizes[row]);
  for (std::size_t j = 0; j < placement.row_width; ++j) {
    const std::size_t part = row * placement.row_width + j;
    if (part >= placement.part_count()) break;
    if (part == part_index) continue;
    slowest = std::max(slowest,
                       disks_[placement.part_to_disk[part]].read_seconds(
                           placement.part_sizes[part]));
  }
  return slowest;
}

}  // namespace vod::storage
