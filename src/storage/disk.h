// A single simulated disk.
//
// Tracks capacity and models read latency as seek + transfer — enough to
// study the layout and load-balance properties of the paper's striping
// scheme (Figure 3).  What is stored where is the array's placement
// record (DiskArray), not the disk's.
#pragma once

#include "common/units.h"

namespace vod::storage {

/// Throughput/latency parameters of a disk.
struct DiskProfile {
  MegaBytes capacity{9000.0};       // ~9 GB, a period-correct SCSI disk
  Mbps transfer_rate{80.0};         // sustained read rate (10 MB/s)
  double seek_seconds = 0.009;      // average seek + rotational delay
};

/// One disk: capacity bookkeeping and read timing.
class Disk {
 public:
  explicit Disk(DiskProfile profile);

  [[nodiscard]] MegaBytes capacity() const { return profile_.capacity; }
  [[nodiscard]] MegaBytes used() const { return used_; }
  [[nodiscard]] MegaBytes free() const { return capacity() - used_; }

  [[nodiscard]] bool can_fit(MegaBytes size) const {
    return size.value() <= free().value() + 1e-9;
  }

  /// Charges `size` (> 0) to the disk; throws if it does not fit.
  void reserve(MegaBytes size);

  /// Frees `size` charged earlier.
  void release(MegaBytes size) { used_ -= size; }

  /// Time to read `amount` from this disk: one seek plus transfer.
  [[nodiscard]] double read_seconds(MegaBytes amount) const;

 private:
  DiskProfile profile_;
  MegaBytes used_{0.0};
};

}  // namespace vod::storage
