#include "storage/striping.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contract.h"

namespace vod::storage {

MegaBytes StripePlacement::total_size() const {
  MegaBytes total{0.0};
  for (const MegaBytes size : part_sizes) total += size;
  return total;
}

std::vector<MegaBytes> StripePlacement::per_disk_bytes(
    std::size_t disk_count) const {
  std::vector<MegaBytes> out(disk_count, MegaBytes{0.0});
  for (std::size_t part = 0; part < part_to_disk.size(); ++part) {
    const std::size_t slot = part_to_disk[part];
    require(!(slot >= disk_count),
        "StripePlacement::per_disk_bytes: placement uses more disks");
    out[slot] += part_sizes[part];
  }
  for (std::size_t row = 0; row < parity_to_disk.size(); ++row) {
    const std::size_t slot = parity_to_disk[row];
    require(!(slot >= disk_count),
        "StripePlacement::per_disk_bytes: parity uses more disks");
    out[slot] += parity_sizes[row];
  }
  return out;
}

std::size_t part_count(MegaBytes video_size, MegaBytes cluster) {
  require(!(video_size.value() <= 0.0), "part_count: size must be positive");
  require(!(cluster.value() <= 0.0), "part_count: cluster must be positive");
  return static_cast<std::size_t>(
      std::ceil(video_size.value() / cluster.value() - 1e-12));
}

std::vector<MegaBytes> part_sizes(MegaBytes video_size, MegaBytes cluster) {
  std::vector<MegaBytes> sizes(part_count(video_size, cluster));
  for_each_part(video_size, cluster, [&](std::size_t part, MegaBytes bytes) {
    sizes[part] = bytes;
  });
  return sizes;
}

StripePlacement plan_striping(VideoId video, MegaBytes video_size,
                              MegaBytes cluster, std::size_t disk_count) {
  require(video.valid(), "plan_striping: invalid video");
  StripePlacement placement;
  placement.part_sizes = part_sizes(video_size, cluster);
  require(disk_count != 0, "plan_striping: need at least one disk");
  placement.video = video;
  placement.cluster_size = cluster;
  placement.part_to_disk.resize(placement.part_sizes.size());
  for (std::size_t part = 0; part < placement.part_sizes.size(); ++part) {
    placement.part_to_disk[part] = part % disk_count;
  }
  return placement;
}

std::size_t parity_slot(std::size_t row, std::size_t disk_count) {
  return disk_count - 1 - (row % disk_count);
}

std::size_t parity_data_slot(std::size_t part, std::size_t disk_count) {
  const std::size_t row_width = disk_count - 1;
  const std::size_t position = part % row_width;
  return position < parity_slot(part / row_width, disk_count) ? position
                                                             : position + 1;
}

StripePlacement plan_parity_striping(VideoId video, MegaBytes video_size,
                                     MegaBytes cluster,
                                     std::size_t disk_count) {
  require(!(disk_count < 2),
      "plan_parity_striping: parity needs at least two disks");
  // Start from the plain plan for sizes/validation, then redo placement
  // row by row around the rotating parity slot.
  StripePlacement placement =
      plan_striping(video, video_size, cluster, disk_count);
  const std::size_t row_width = disk_count - 1;
  placement.row_width = row_width;
  const std::size_t rows =
      (placement.part_count() + row_width - 1) / row_width;

  for (std::size_t part = 0; part < placement.part_count(); ++part) {
    placement.part_to_disk[part] = parity_data_slot(part, disk_count);
  }
  placement.parity_to_disk.reserve(rows);
  placement.parity_sizes.reserve(rows);
  for (std::size_t row = 0; row < rows; ++row) {
    placement.parity_to_disk.push_back(parity_slot(row, disk_count));
    // Parity is as large as the row's largest data cluster.
    MegaBytes largest{0.0};
    for (std::size_t j = 0; j < row_width; ++j) {
      const std::size_t part = row * row_width + j;
      if (part >= placement.part_count()) break;
      largest = std::max(largest, placement.part_sizes[part]);
    }
    placement.parity_sizes.push_back(largest);
  }
  return placement;
}

}  // namespace vod::storage
