// The DMA in action on one server: cyclic striping over the disk array
// (Figure 3) plus the popularity cache of Figure 2.
//
// Build & run:  ./build/examples/striping_demo
#include <iostream>
#include <vector>

#include "dma/dma_cache.h"
#include "storage/disk_array.h"

using namespace vod;

namespace {

void show_array(const storage::DiskArray& array) {
  // Strips per disk, counted from the array's placements (data and parity
  // clusters alike).
  std::vector<std::size_t> strips(array.disk_count(), 0);
  for (const VideoId video : array.stored_videos()) {
    const storage::StripePlacement& placement = array.placement(video);
    for (const std::size_t slot : placement.part_to_disk) ++strips[slot];
    for (const std::size_t slot : placement.parity_to_disk) ++strips[slot];
  }
  for (std::size_t slot = 0; slot < array.disk_count(); ++slot) {
    const storage::Disk& disk = array.disk(slot);
    std::cout << "  disk " << (slot + 1) << ": " << disk.used().value()
              << "/" << disk.capacity().value() << " MB used ("
              << strips[slot] << " strips)\n";
  }
}

}  // namespace

int main() {
  // 4 disks x 2 GB, cluster size c = 100 MB.
  storage::DiskArray array{
      4,
      storage::DiskProfile{.capacity = MegaBytes{2048.0},
                           .transfer_rate = Mbps{80.0},
                           .seek_seconds = 0.009},
      MegaBytes{100.0}};
  dma::DmaCallbacks callbacks;
  callbacks.on_admit = [](VideoId video) {
    std::cout << "  [cache] admitted video " << video << "\n";
  };
  callbacks.on_evict = [](VideoId video) {
    std::cout << "  [cache] evicted video " << video << "\n";
  };
  dma::DmaCache cache{array, {}, callbacks};

  std::cout << "== Storing a 750 MB title stripes it cyclically ==\n";
  cache.on_request(VideoId{1}, MegaBytes{750.0});
  const storage::StripePlacement& placement = array.placement(VideoId{1});
  std::cout << "  " << placement.part_count() << " parts of up to "
            << placement.cluster_size.value() << " MB:\n   ";
  for (std::size_t part = 0; part < placement.part_count(); ++part) {
    std::cout << " p" << part << "->d" << (placement.part_to_disk[part] + 1);
  }
  std::cout << "\n";
  show_array(array);

  std::cout << "\n== Filling the cache with more titles ==\n";
  for (VideoId::underlying_type v = 2; v <= 12; ++v) {
    cache.on_request(VideoId{v}, MegaBytes{750.0});
  }
  std::cout << "cached now: ";
  for (const VideoId video : array.stored_videos()) {
    std::cout << video << " ";
  }
  std::cout << "\n";
  show_array(array);

  std::cout << "\n== Popularity contest: many requests for video 20 ==\n";
  for (int i = 0; i < 3; ++i) {
    cache.on_request(VideoId{20}, MegaBytes{750.0});
  }
  std::cout << "video 20 points: " << cache.points(VideoId{20})
            << ", cached: " << std::boolalpha << cache.cached(VideoId{20})
            << "\n";
  std::cout << "requests=" << cache.request_count()
            << " hits=" << cache.hit_count()
            << " stores=" << cache.store_count()
            << " evictions=" << cache.eviction_count() << "\n";

  std::cout << "\n== Reading a cluster back ==\n";
  std::cout << "cluster 0 of video 20 reads in "
            << array.cluster_read_seconds(VideoId{20}, 0) << " s\n";
  return 0;
}
