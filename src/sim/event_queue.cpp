#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "common/indexed_heap.h"
#include "obs/profile.h"

namespace vod::sim {

EventHandle EventQueue::schedule(SimTime when, std::uint64_t sequence,
                                 Callback callback) {
  require(!(when < now_), "EventQueue::schedule: time is in the past");
  require(callback, "EventQueue::schedule: empty callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].callback = std::move(callback);
  indexed_heap::push<kArity>(heap_, Entry{when, sequence, slot}, earlier,
                            track());
  return EventHandle{slot, slots_[slot].generation};
}

bool EventQueue::cancel(EventHandle handle) {
  // Only events still waiting may be cancelled; a handle whose event
  // already fired (or was cancelled before) has a stale generation and is
  // rejected, leaving the counters untouched.
  Slot* slot = live_slot(handle);
  if (slot == nullptr) return false;
  indexed_heap::erase<kArity>(heap_, slot->heap_pos, earlier, track());
  slot->callback = nullptr;
  release(handle.slot_);
  return true;
}

bool EventQueue::rekey(EventHandle handle, SimTime when,
                       std::uint64_t sequence) {
  require(!(when < now_), "EventQueue::rekey: time is in the past");
  Slot* slot = live_slot(handle);
  if (slot == nullptr) return false;
  const std::uint32_t pos = slot->heap_pos;
  heap_[pos].when = when;
  heap_[pos].sequence = sequence;
  indexed_heap::sift<kArity>(heap_, pos, earlier, track());
  return true;
}

std::optional<SimTime> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().when;
}

std::optional<SimTime> EventQueue::scheduled_time(EventHandle handle) const {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return std::nullopt;
  const Slot& slot = slots_[handle.slot_];
  if (slot.generation != handle.generation_) return std::nullopt;
  return heap_[slot.heap_pos].when;
}

bool EventQueue::run_next() {
  VOD_PROFILE_SCOPE("sim.run_next");
  run_deferred();
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  indexed_heap::erase<kArity>(heap_, 0, earlier, track());
  // Move the callback out and free the slot first: the callback may
  // schedule (reallocating slots_), and its own handle is already stale.
  Callback callback = std::move(slots_[top.slot].callback);
  release(top.slot);
  now_ = top.when;
  callback(now_);
  run_deferred();
  return true;
}

void EventQueue::drain_deferred() {
  // An action may defer more (growing deferred_), so each one is moved out
  // before it runs and the list is walked by index.  If one throws, the
  // ones already run stay behind empty and the next drain skips them.
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const Action action = std::move(deferred_[i]);
    if (action) action();
  }
  deferred_.clear();
}

EventQueue::Slot* EventQueue::live_slot(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return nullptr;
  Slot& slot = slots_[handle.slot_];
  return slot.generation == handle.generation_ ? &slot : nullptr;
}

void EventQueue::release(std::uint32_t slot) {
  // Generation 0 marks the default (invalid) handle; skip it on wrap.
  if (++slots_[slot].generation == 0) slots_[slot].generation = 1;
  free_slots_.push_back(slot);
}

}  // namespace vod::sim
