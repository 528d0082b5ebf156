// A server's disk array: n homogeneous disks plus the striping bookkeeping.
//
// The DMA asks it two questions — "can the disks tolerate this video?" and
// "write / delete this video" — and the streaming layer asks for per-cluster
// read times.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "storage/disk.h"
#include "storage/striping.h"

namespace vod::storage {

/// How videos are laid out on the array.
enum class StripingMode {
  /// The paper's Figure 3: cyclic, no redundancy.  A disk failure loses
  /// every title with a part on the failed disk.
  kPlain,
  /// RAID-5-style rotated parity (the reliability extension the paper
  /// defers to future work; cf. refs [3], [4]).  Any single disk failure
  /// is survivable — reads reconstruct from the row's survivors — at a
  /// 1/(n-1) capacity overhead.  A second overlapping failure loses the
  /// titles whose rows miss two clusters.
  kParity,
};

/// A fixed-size array of disks sharing one cluster size, as in Figure 3.
class DiskArray {
 public:
  /// `disk_count` >= 1 disks with identical `profile` (>= 2 for kParity);
  /// `cluster` is the array-wide striping unit (the paper's c).
  DiskArray(std::size_t disk_count, DiskProfile profile, MegaBytes cluster,
            StripingMode mode = StripingMode::kPlain);

  [[nodiscard]] StripingMode mode() const { return mode_; }

  [[nodiscard]] std::size_t disk_count() const { return disks_.size(); }
  [[nodiscard]] MegaBytes cluster_size() const { return cluster_; }
  [[nodiscard]] const Disk& disk(std::size_t slot) const;

  /// Fails a disk: every video striped onto it is lost (removed from all
  /// disks) and returned.  Failing a failed disk returns empty.
  std::vector<VideoId> fail_disk(std::size_t slot);

  /// Brings a failed disk back.  In plain mode it returns empty (its
  /// contents died with it); in parity mode the surviving rows rebuild
  /// onto it, so previously-degraded titles read directly again.  No-op
  /// if it was healthy.
  void repair_disk(std::size_t slot);

  [[nodiscard]] bool disk_failed(std::size_t slot) const;
  [[nodiscard]] std::size_t healthy_disk_count() const;

  /// True if the cyclic layout of a `size` video over the surviving disks
  /// fits in the current free space of every disk it would touch (Figure
  /// 2's "Disks can tolerate"); store() asks the same.  It sums each disk's
  /// bytes as StripePlacement::per_disk_bytes does (data parts in part
  /// order, then parity rows) without building the layout.
  [[nodiscard]] bool can_tolerate(MegaBytes size) const;

  /// Stores `video`, returning its placement; std::nullopt if it does not
  /// fit.  Storing an already-present video throws.
  std::optional<StripePlacement> store(VideoId video, MegaBytes size);

  /// Deletes `video` from every disk; returns bytes freed (0 if absent).
  MegaBytes remove(VideoId video);

  [[nodiscard]] bool holds(VideoId video) const {
    return placements_.contains(video);
  }
  [[nodiscard]] const StripePlacement& placement(VideoId video) const;
  [[nodiscard]] std::vector<VideoId> stored_videos() const;

  [[nodiscard]] MegaBytes total_capacity() const;
  [[nodiscard]] MegaBytes total_used() const;

  /// Seconds to read cluster `part_index` of `video`.  In parity mode a
  /// cluster whose disk failed is reconstructed from its row's survivors
  /// (they read in parallel on distinct disks, so latency is the slowest
  /// surviving member's read).
  [[nodiscard]] double cluster_read_seconds(VideoId video,
                                            std::size_t part_index) const;

  /// True when `video` is stored and every cluster is currently readable
  /// (directly or via parity reconstruction).
  [[nodiscard]] bool readable(VideoId video) const;

 private:
  /// Whether the placement survives the current failure set.
  [[nodiscard]] bool recoverable(const StripePlacement& placement) const;

  StripingMode mode_;
  std::vector<Disk> disks_;
  std::vector<bool> failed_;
  MegaBytes cluster_;
  std::map<VideoId, StripePlacement> placements_;
  /// can_tolerate()'s per-surviving-disk byte sums, kept to reuse storage.
  mutable std::vector<MegaBytes> fit_bytes_;
};

}  // namespace vod::storage
