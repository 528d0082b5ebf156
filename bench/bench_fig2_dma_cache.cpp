// Behavioural reproduction of Figure 2 — the DMA pseudocode.
//
// The paper gives no measurements for the DMA, only the algorithm; this
// bench characterizes it the way its evaluation section would have: hit
// rate under a Zipf request mix versus cache size, admission threshold,
// and against the classic LRU / LFU / no-cache baselines.
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/cache_baselines.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "dma/dma_cache.h"
#include "workload/zipf.h"

using namespace vod;

namespace {

constexpr std::size_t kTitles = 200;
constexpr int kRequests = 20000;
constexpr double kTitleSizeMb = 900.0;

/// Hit rate of `cache` on a fresh Zipf(skew) request stream.
double run_stream(baselines::TitleCache& cache, double skew,
                  std::uint64_t seed) {
  const workload::ZipfDistribution zipf{kTitles, skew};
  Rng rng{seed};
  int hits = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto rank = zipf.sample(rng);
    if (cache.on_request(VideoId{static_cast<VideoId::underlying_type>(rank)},
                         MegaBytes{kTitleSizeMb})) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / kRequests;
}

storage::DiskProfile disk_profile(double capacity_mb) {
  return storage::DiskProfile{.capacity = MegaBytes{capacity_mb},
                              .transfer_rate = Mbps{80.0},
                              .seek_seconds = 0.009};
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsScope obs{argc, argv};
  bench::heading("Figure 2 behaviour: DMA cache hit rate (Zipf workload)");
  std::cout << kTitles << " titles x " << kTitleSizeMb << " MB, "
            << kRequests << " requests per cell, cluster 50 MB, 8 disks\n\n";

  // --- DMA vs baselines across cache sizes (skew 1.0) ---
  TextTable byside{{"Cache capacity", "DMA", "LRU", "LFU", "none"}};
  for (const double titles_worth : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    const double total_mb = titles_worth * kTitleSizeMb;
    storage::DiskArray disks{8, disk_profile(total_mb / 8.0),
                             MegaBytes{50.0}};
    dma::DmaCache dma_cache{disks};
    dma_cache.set_obs(&obs.context(), 0);
    baselines::DmaTitleCache dma{dma_cache};
    baselines::LruTitleCache lru{MegaBytes{total_mb}};
    baselines::LfuTitleCache lfu{MegaBytes{total_mb}};
    baselines::NoTitleCache none;
    byside.add_row({TextTable::num(titles_worth, 0) + " titles",
                    TextTable::num(run_stream(dma, 1.0, 1), 3),
                    TextTable::num(run_stream(lru, 1.0, 1), 3),
                    TextTable::num(run_stream(lfu, 1.0, 1), 3),
                    TextTable::num(run_stream(none, 1.0, 1), 3)});
  }
  std::cout << "hit rate vs cache size (Zipf skew 1.0):\n"
            << byside.render() << "\n";

  // --- Sensitivity to popularity skew (cache = 20 titles) ---
  TextTable byskew{{"Zipf skew", "DMA hit rate", "evictions", "stores"}};
  for (const double skew : {0.0, 0.5, 0.8, 1.0, 1.2, 1.5}) {
    storage::DiskArray disks{8, disk_profile(20.0 * kTitleSizeMb / 8.0),
                             MegaBytes{50.0}};
    dma::DmaCache dma_cache{disks};
    dma_cache.set_obs(&obs.context(), 0);
    baselines::DmaTitleCache dma{dma_cache};
    const double rate = run_stream(dma, skew, 2);
    byskew.add_row({TextTable::num(skew, 1), TextTable::num(rate, 3),
                    std::to_string(dma_cache.eviction_count()),
                    std::to_string(dma_cache.store_count())});
  }
  std::cout << "DMA sensitivity to popularity skew (cache = 20 titles):\n"
            << byskew.render() << "\n";

  // --- Admission threshold: Figure 2 (0) vs the body text (>0) ---
  TextTable bythreshold{
      {"Admission threshold", "hit rate", "stores", "evictions"}};
  for (const std::uint64_t threshold : {0ull, 1ull, 2ull, 5ull, 10ull}) {
    storage::DiskArray disks{8, disk_profile(20.0 * kTitleSizeMb / 8.0),
                             MegaBytes{50.0}};
    dma::DmaCache dma_cache{
        disks, dma::DmaOptions{.admission_threshold = threshold}};
    dma_cache.set_obs(&obs.context(), 0);
    baselines::DmaTitleCache dma{dma_cache};
    const double rate = run_stream(dma, 1.0, 3);
    bythreshold.add_row({std::to_string(threshold),
                         TextTable::num(rate, 3),
                         std::to_string(dma_cache.store_count()),
                         std::to_string(dma_cache.eviction_count())});
  }
  std::cout << "DMA admission threshold (0 = Figure 2 pseudocode, >0 = the "
               "body text's\n\"requested for over a certain number of "
               "times\"):\n"
            << bythreshold.render();
  return 0;
}
