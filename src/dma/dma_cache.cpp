#include "dma/dma_cache.h"

#include <stdexcept>

#include "common/contract.h"
#include "obs/trace.h"

namespace vod::dma {

namespace {

/// One DMA cache-churn instant; `node` labels whose cache this is.
void trace_dma(const char* name, std::uint32_t node, VideoId video,
               std::uint64_t points) {
  obs::TraceRecorder* tr = obs::trace_sink();
  if (tr == nullptr) return;
  tr->instant(obs::Subsystem::kDma, name,
              {{"node", obs::num(static_cast<std::uint64_t>(node))},
               {"video", obs::num(static_cast<std::uint64_t>(video.value()))},
               {"points", obs::num(points)}});
}

}  // namespace

DmaCache::DmaCache(storage::DiskArray& disks, DmaOptions options,
                   DmaCallbacks callbacks)
    : disks_(disks), options_(options), callbacks_(std::move(callbacks)) {}

std::uint64_t DmaCache::points(VideoId video) const {
  const auto it = points_.find(video);
  return it == points_.end() ? 0 : it->second;
}

std::optional<VideoId> DmaCache::least_popular_cached() const {
  const std::vector<VideoId> stored = disks_.stored_videos();
  if (stored.empty()) return std::nullopt;
  // stored is ascending by video id and only a strictly smaller count
  // replaces the best, so ties resolve toward the lowest id.
  VideoId best = stored.front();
  std::uint64_t best_points = points(best);
  for (std::size_t i = 1; i < stored.size(); ++i) {
    const std::uint64_t p = points(stored[i]);
    if (p < best_points) {
      best = stored[i];
      best_points = p;
    }
  }
  return best;
}

bool DmaCache::try_store(VideoId video, MegaBytes size) {
  const auto placement = disks_.store(video, size);
  if (!placement) return false;
  ++stores_;
  trace_dma("dma.admit", trace_node_, video, points(video));
  if (callbacks_.on_admit) callbacks_.on_admit(video);
  return true;
}

void DmaCache::evict(VideoId victim) {
  disks_.remove(victim);
  ++evictions_;
  trace_dma("dma.evict", trace_node_, victim, points(victim));
  if (callbacks_.on_evict) callbacks_.on_evict(victim);
}

std::vector<VideoId> DmaCache::handle_disk_failure(std::size_t slot) {
  std::vector<VideoId> lost = disks_.fail_disk(slot);
  for (const VideoId video : lost) {
    ++evictions_;
    trace_dma("dma.lost", trace_node_, video, points(video));
    if (callbacks_.on_evict) callbacks_.on_evict(video);
  }
  return lost;
}

DmaOutcome DmaCache::on_request(VideoId video, MegaBytes size) {
  require(video.valid(), "DmaCache::on_request: invalid video");
  require(!(size.value() <= 0.0), "DmaCache::on_request: size must be > 0");
  ++requests_;

  // "IF (Video is already on disk) THEN give a point"
  if (cached(video)) {
    ++points_[video];
    ++hits_;
    trace_dma("dma.hit", trace_node_, video, points_[video]);
    return DmaOutcome::kHit;
  }

  // Admission gate (text variant); with threshold 0 this is Figure 2: an
  // uncached title may be written on its very first request.
  if (options_.admission_threshold > 0) {
    ++points_[video];
    if (points_[video] <= options_.admission_threshold) {
      trace_dma("dma.point", trace_node_, video, points_[video]);
      return DmaOutcome::kPointedOnly;
    }
    if (disks_.can_tolerate(size) && try_store(video, size)) {
      return DmaOutcome::kStored;
    }
  } else {
    // "IF (Disks can tolerate the Video) THEN write Video to Disks"
    if (disks_.can_tolerate(size) && try_store(video, size)) {
      return DmaOutcome::kStored;
    }
    // "ELSE give a point to video"
    ++points_[video];
  }

  // "IF (Video's points > Least popular on disk Video's points) THEN
  //  delete Least Popular Video; IF tolerable THEN write"
  for (;;) {
    const auto victim = least_popular_cached();
    if (!victim || points(video) <= points(*victim)) break;
    evict(*victim);
    if (disks_.can_tolerate(size) && try_store(video, size)) {
      return DmaOutcome::kStored;
    }
    if (!options_.multi_evict) break;  // Figure 2: one victim per request
  }
  trace_dma("dma.point", trace_node_, video, points(video));
  return DmaOutcome::kPointedOnly;
}

}  // namespace vod::dma
