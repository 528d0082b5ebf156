#include "dma/dma_cache.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "obs/trace.h"

namespace vod::dma {

DmaCache::DmaCache(storage::DiskArray& disks, DmaOptions options,
                   DmaCallbacks callbacks)
    : disks_(disks), options_(options), callbacks_(std::move(callbacks)) {
  for (const VideoId video : disks_.stored_videos()) {
    ranked_.emplace(0, video);
  }
}

void DmaCache::trace(const char* name, VideoId video,
                     std::uint64_t points) const {
  obs::TraceRecorder* tr = obs_ != nullptr ? obs_->trace() : nullptr;
  if (tr == nullptr) return;
  tr->instant(obs::Subsystem::kDma, name,
              {{"node", obs::num(static_cast<std::uint64_t>(trace_node_))},
               {"video", obs::num(static_cast<std::uint64_t>(video.value()))},
               {"points", obs::num(points)}});
}

std::uint64_t DmaCache::points(VideoId video) const {
  return video.value() < points_.size() ? points_[video.value()] : 0;
}

std::uint64_t DmaCache::add_point(VideoId video) {
  if (video.value() >= points_.size()) points_.resize(video.value() + 1, 0);
  std::uint64_t& count = points_[video.value()];
  // A cached title's node is re-keyed in place: no allocation.
  auto node = ranked_.extract({count, video});
  ++count;
  if (node) {
    node.value().first = count;
    ranked_.insert(std::move(node));
  }
  return count;
}

bool DmaCache::place(VideoId video, MegaBytes size) {
  if (!disks_.store(video, size)) return false;
  ranked_.emplace(points(video), video);
  return true;
}

bool DmaCache::try_store(VideoId video, MegaBytes size) {
  if (!place(video, size)) return false;
  ++stores_;
  trace("dma.admit", video, points(video));
  if (callbacks_.on_admit) callbacks_.on_admit(video);
  return true;
}

void DmaCache::evict(VideoId victim) {
  disks_.remove(victim);
  ranked_.erase({points(victim), victim});
  ++evictions_;
  trace("dma.evict", victim, points(victim));
  if (callbacks_.on_evict) callbacks_.on_evict(victim);
}

std::vector<VideoId> DmaCache::handle_disk_failure(std::size_t slot) {
  std::vector<VideoId> lost = disks_.fail_disk(slot);
  for (const VideoId video : lost) {
    ranked_.erase({points(video), video});
    ++evictions_;
    trace("dma.lost", video, points(video));
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
    const std::uint64_t count = add_point(video);
    ++hits_;
    trace("dma.hit", video, count);
    return DmaOutcome::kHit;
  }

  // Admission gate (text variant); with threshold 0 this is Figure 2: an
  // uncached title may be written on its very first request.
  if (options_.admission_threshold > 0) {
    const std::uint64_t count = add_point(video);
    if (count <= options_.admission_threshold) {
      trace("dma.point", video, count);
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
    add_point(video);
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
  trace("dma.point", video, points(video));
  return DmaOutcome::kPointedOnly;
}

}  // namespace vod::dma
