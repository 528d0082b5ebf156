// The Disk storage and Manipulation Algorithm (DMA) — Figure 2 of the
// paper, implemented faithfully.
//
// Per request for a video at this server:
//   * already cached           -> give it a point (popularity credit)
//   * not cached, disks fit it -> write it (striped) immediately
//   * not cached, disks full   -> give it a point; if its points now exceed
//     the least-popular cached title's points, delete that title and write
//     the newcomer if it now fits.
//
// As in the figure, a request deletes at most one victim, so a large
// newcomer can fail to fit even when several unpopular titles could go.
//
// One documented extension beyond the figure (defaulting to the paper's
// behaviour): admission_threshold — the body text says a title is cached
// only after "over a certain number of requests"; the figure stores on
// first request when space is free.  Threshold 0 reproduces the figure;
// higher values reproduce the text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "obs/context.h"
#include "storage/disk_array.h"

namespace vod::dma {

/// Tuning knobs; defaults reproduce Figure 2 exactly.
struct DmaOptions {
  std::uint64_t admission_threshold = 0;
};

/// What the algorithm did with one request.
enum class DmaOutcome {
  kHit,                // already cached; granted a point
  kStored,             // written to the disks (possibly after eviction)
  kPointedOnly,        // not cached, not (yet) admitted; granted a point
};

/// Events for wiring the cache to the database (the service mirrors cache
/// contents into each server's full-access title list).
struct DmaCallbacks {
  std::function<void(VideoId)> on_admit;  // video became locally available
  std::function<void(VideoId)> on_evict;  // video was deleted from disks
};

/// The per-server popularity cache over a striped disk array.
class DmaCache {
 public:
  /// `disks` must outlive the cache, and from here on only the cache may
  /// store or remove titles on it: cached() answers from the cache's own
  /// index.  Titles already there enter with 0 points.
  DmaCache(storage::DiskArray& disks, DmaOptions options = {},
           DmaCallbacks callbacks = {});

  /// Runs Figure 2 for one request of `video` (`size` from the catalog).
  DmaOutcome on_request(VideoId video, MegaBytes size);

  /// Writes `video` to the disks outside Figure 2 (an administrator's
  /// initial placement): no point, no store count, no callbacks.  Returns
  /// false when the disks cannot tolerate it; throws if already cached.
  [[nodiscard]] bool place(VideoId video, MegaBytes size);

  [[nodiscard]] std::uint64_t points(VideoId video) const;
  /// Whether `video` is on the disks.
  [[nodiscard]] bool cached(VideoId video) const {
    return video.value() < heap_pos_.size() &&
           heap_pos_[video.value()] != kAbsent;
  }

  /// The cached title with the fewest points (ties broken toward the
  /// lowest video id, deterministically); nullopt when nothing is cached.
  [[nodiscard]] std::optional<VideoId> least_popular_cached() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().video;
  }

  /// The cached titles as (points, id), sorted in eviction order: the
  /// first entry is least_popular_cached().  A copy, for tests.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, VideoId>> ranked()
      const;

  /// Propagates a disk failure: titles lost from the array are reported
  /// through on_evict (so the database stops advertising them) and
  /// returned.  Their popularity points survive, so they re-enter the
  /// cache quickly once demand recurs.
  std::vector<VideoId> handle_disk_failure(std::size_t slot);

  [[nodiscard]] const DmaOptions& options() const { return options_; }
  [[nodiscard]] const storage::DiskArray& disks() const { return disks_; }

  /// The run whose trace receives this cache's `dma.*` churn events,
  /// labelled with `node` (caches have no inherent node identity; the
  /// service wires each one with its server).  nullptr traces nothing.
  void set_obs(const obs::Context* context, std::uint32_t node) {
    obs_ = context;
    trace_node_ = node;
  }

  // Counters for the benches.
  [[nodiscard]] std::uint64_t hit_count() const { return hits_; }
  [[nodiscard]] std::uint64_t store_count() const { return stores_; }
  [[nodiscard]] std::uint64_t eviction_count() const { return evictions_; }
  [[nodiscard]] std::uint64_t request_count() const { return requests_; }

 private:
  /// A heap entry: the key itself, so a comparison reads no other table.
  struct Entry {
    std::uint64_t points;
    VideoId video;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();
  /// The eviction order: fewest points first, ties to the lowest id.
  static constexpr auto fewer = [](const Entry& a, const Entry& b) {
    if (a.points != b.points) return a.points < b.points;
    return a.video < b.video;
  };
  /// The heap's `moved` callback: keeps each title's heap_pos_ current.
  auto track() {
    return [this](const Entry& entry, std::size_t pos) {
      heap_pos_[entry.video.value()] = static_cast<std::uint32_t>(pos);
    };
  }

  /// One cache-churn instant on the attached run's trace, if any.
  void trace(const char* name, VideoId video, std::uint64_t points) const;
  bool try_store(VideoId video, MegaBytes size);
  void evict(VideoId victim);
  /// Puts a title just stored on the disks into the heap.
  void enter(VideoId video);
  /// Takes a title that left the disks out of the heap.
  void forget(VideoId video);
  /// Grants `video` one point and returns its new count.
  std::uint64_t add_point(VideoId video);

  storage::DiskArray& disks_;
  DmaOptions options_;
  DmaCallbacks callbacks_;
  const obs::Context* obs_ = nullptr;
  std::uint32_t trace_node_ = 0;
  /// Popularity points, indexed by video id (grown on the first point).
  std::vector<std::uint64_t> points_;
  /// Each title's position in heap_, indexed by video id (grown on the
  /// first store); kAbsent when the title is not on the disks.
  std::vector<std::uint32_t> heap_pos_;
  /// A 4-ary indexed min-heap (common/indexed_heap.h) of (points, id) over
  /// the titles on the disks, in `fewer` order: the front is the old
  /// ascending-id scan's answer.  Kept in step by add_point, enter and
  /// forget, the only paths that change points or contents.
  std::vector<Entry> heap_;
  std::uint64_t hits_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace vod::dma
