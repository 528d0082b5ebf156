#include "storage/disk.h"

#include <stdexcept>

#include "common/contract.h"

namespace vod::storage {

Disk::Disk(DiskProfile profile) : profile_(profile) {
  require(
      !(profile.capacity.value() <= 0.0 || profile.transfer_rate.value() <= 0.0 || profile.seek_seconds < 0.0),
      "Disk: bad profile");
}

void Disk::reserve(MegaBytes size) {
  require(!(size.value() <= 0.0), "Disk::reserve: size must be positive");
  require(can_fit(size), "Disk::reserve: does not fit");
  used_ += size;
}

double Disk::read_seconds(MegaBytes amount) const {
  require(!(amount.value() < 0.0), "Disk::read_seconds: negative amount");
  return profile_.seek_seconds +
         amount.megabits() / profile_.transfer_rate.value();
}

}  // namespace vod::storage
