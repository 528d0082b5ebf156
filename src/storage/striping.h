// Capacity-oriented data striping (the paper's DMA storage scheme,
// Figure 3).
//
// A fixed, array-wide cluster size `c` splits each video into
// p = ceil(size / c) parts distributed cyclically over the n disks:
//   * n > p : one part on each of the first p disks
//   * n <= p: parts wrap around, part i landing on disk (i mod n)
// Both cases are the single rule "part i -> disk (i mod n)"; the paper
// spells them out separately and so do our tests.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace vod::storage {

/// The planned layout of one video across a disk array.
struct StripePlacement {
  VideoId video;
  MegaBytes cluster_size;
  /// part index -> disk slot (0-based position within the array).
  std::vector<std::size_t> part_to_disk;
  /// Size of each part: cluster_size except possibly the last.
  std::vector<MegaBytes> part_sizes;
  /// Parity clusters (RAID-5-style layout only): parity_to_disk[r] is the
  /// disk slot holding row r's parity; empty for the paper's plain layout.
  std::vector<std::size_t> parity_to_disk;
  /// Size of each parity cluster (the row's largest data part).
  std::vector<MegaBytes> parity_sizes;
  /// Data clusters per parity row (disk_count - 1); 0 for plain layouts.
  std::size_t row_width = 0;

  [[nodiscard]] std::size_t part_count() const {
    return part_to_disk.size();
  }
  [[nodiscard]] std::size_t row_count() const {
    return parity_to_disk.size();
  }
  [[nodiscard]] bool has_parity() const { return !parity_to_disk.empty(); }

  /// Total bytes across all parts (== the video size; parity excluded).
  [[nodiscard]] MegaBytes total_size() const;

  /// Bytes assigned to each disk slot, parity included (length =
  /// disk_count given to plan()).
  [[nodiscard]] std::vector<MegaBytes> per_disk_bytes(
      std::size_t disk_count) const;
};

/// Calls `visit(part, bytes)` for each of the p = ceil(size / c) parts of a
/// `video_size` video cut at `cluster`, in order: cluster-sized except
/// possibly the last.  The one rule for the cluster boundaries: the plans,
/// the disk array's fit check and the streaming session all cut with it.
/// Both sizes must be positive (checked by part_count()).
template <typename Visit>
void for_each_part(MegaBytes video_size, MegaBytes cluster, Visit&& visit);

/// p = ceil(size / c); the paper's p = size/c with the remainder forming a
/// short final part.  Throws std::invalid_argument unless both are positive.
[[nodiscard]] std::size_t part_count(MegaBytes video_size, MegaBytes cluster);

/// The sizes for_each_part() visits, in part order.
[[nodiscard]] std::vector<MegaBytes> part_sizes(MegaBytes video_size,
                                                MegaBytes cluster);

/// Computes the cyclic layout for a video of `video_size` on `disk_count`
/// disks with cluster size `cluster`.  All arguments must be positive.
StripePlacement plan_striping(VideoId video, MegaBytes video_size,
                              MegaBytes cluster, std::size_t disk_count);

/// The RAID-5-style layout's slots on `disk_count` disks: the slot holding
/// row `row`'s parity, and the slot of data part `part` (every slot except
/// its row's parity one, ascending).
[[nodiscard]] std::size_t parity_slot(std::size_t row, std::size_t disk_count);
[[nodiscard]] std::size_t parity_data_slot(std::size_t part,
                                           std::size_t disk_count);

/// RAID-5-style layout: data parts fill rows of (disk_count - 1) clusters;
/// each row gets one parity cluster on a rotating disk (row r's parity on
/// slot (disk_count - 1 - r % disk_count) so parity doesn't pile onto one
/// spindle).  Needs >= 2 disks.  Survives any single-disk failure at a
/// capacity overhead of 1/(disk_count-1) and a reconstruction read cost.
/// This is the reliability extension the paper leaves to future work
/// (cf. its refs [3], [4]).
StripePlacement plan_parity_striping(VideoId video, MegaBytes video_size,
                                     MegaBytes cluster,
                                     std::size_t disk_count);

template <typename Visit>
void for_each_part(MegaBytes video_size, MegaBytes cluster, Visit&& visit) {
  const std::size_t parts = part_count(video_size, cluster);
  MegaBytes left = video_size;
  for (std::size_t part = 0; part < parts; ++part) {
    const MegaBytes bytes = left.value() >= cluster.value() ? cluster : left;
    visit(part, bytes);
    left -= bytes;
  }
}

}  // namespace vod::storage
