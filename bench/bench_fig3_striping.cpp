// Regenerates Figure 3 — the disk storage architecture.
//
// Prints the cyclic strip layout for both of the paper's cases (n > p and
// n < p) and measures the per-disk balance and the parallel-read speedup
// the layout buys over storing the whole title on one disk.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "storage/disk_array.h"
#include "storage/striping.h"

using namespace vod;

namespace {

void show_layout(const char* title, double video_mb, double cluster_mb,
                 std::size_t disks) {
  const auto plan = storage::plan_striping(VideoId{1}, MegaBytes{video_mb},
                                           MegaBytes{cluster_mb}, disks);
  std::cout << title << ": video " << video_mb << " MB, cluster "
            << cluster_mb << " MB, " << disks << " disks -> p = "
            << plan.part_count() << " parts\n";
  TextTable table{{"Part", "Disk", "Size (MB)"}};
  for (std::size_t part = 0; part < plan.part_count(); ++part) {
    table.add_row({std::to_string(part + 1),
                   std::to_string(plan.part_to_disk[part] + 1),
                   TextTable::num(plan.part_sizes[part].value(), 1)});
  }
  std::cout << table.render();

  const auto per_disk = plan.per_disk_bytes(disks);
  std::cout << "per-disk bytes:";
  for (std::size_t d = 0; d < disks; ++d) {
    std::cout << "  d" << (d + 1) << "="
              << TextTable::num(per_disk[d].value(), 0);
  }
  std::cout << "\n\n";
}

}  // namespace

int main() {
  bench::heading("Figure 3: capacity-oriented data striping");

  // The paper's two cases.
  show_layout("Case n > p (one part per disk)", 100.0, 30.0, 8);
  show_layout("Case n < p (cyclic wrap)", 100.0, 20.0, 3);

  // Balance + aggregate throughput across realistic title sizes.
  bench::heading("Striping balance and parallel-read speedup");
  TextTable table{{"Video (MB)", "Disks", "Parts", "Max-min skew (MB)",
                   "1-disk read (s)", "striped read (s)", "speedup"}};
  const storage::DiskProfile profile{};  // 9 GB, 80 Mbps, 9 ms seek
  for (const double video_mb : {700.0, 1400.0, 4000.0}) {
    for (const std::size_t disks : {2u, 4u, 8u, 16u}) {
      const auto plan = storage::plan_striping(
          VideoId{1}, MegaBytes{video_mb}, MegaBytes{50.0}, disks);
      const auto per_disk = plan.per_disk_bytes(disks);
      double lo = 1e18, hi = 0.0, busiest = 0.0;
      for (const MegaBytes b : per_disk) {
        lo = std::min(lo, b.value());
        hi = std::max(hi, b.value());
        busiest = std::max(busiest, b.value());
      }
      // Sequential read of the whole title from one disk vs all disks
      // reading their strips in parallel (seek per strip).
      const storage::Disk one{profile};
      const double single = one.read_seconds(MegaBytes{video_mb});
      double striped = 0.0;
      for (std::size_t d = 0; d < disks; ++d) {
        double strips_on_d = 0.0;
        for (std::size_t part = 0; part < plan.part_count(); ++part) {
          if (plan.part_to_disk[part] == d) strips_on_d += 1.0;
        }
        striped = std::max(
            striped, one.read_seconds(per_disk[d]) +
                         profile.seek_seconds * std::max(0.0, strips_on_d - 1));
      }
      table.add_row({TextTable::num(video_mb, 0), std::to_string(disks),
                     std::to_string(plan.part_count()),
                     TextTable::num(hi - lo, 1), TextTable::num(single, 1),
                     TextTable::num(striped, 1),
                     TextTable::num(single / striped, 2) + "x"});
    }
  }
  std::cout << table.render();
  std::cout << "\nThe cyclic layout keeps per-disk load within one cluster "
               "of even and the\nparallel-read speedup tracks the disk "
               "count — the paper's motivation for\n\"as many disks as "
               "possible\".\n";
  return 0;
}
