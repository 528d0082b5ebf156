#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

#include "common/contract.h"
#include "obs/profile.h"

namespace vod::sim {

EventHandle EventQueue::schedule(SimTime when, Callback callback) {
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
  heap_.push_back(Entry{when, next_sequence_++, slot});
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  return EventHandle{slot, slots_[slot].generation};
}

bool EventQueue::cancel(EventHandle handle) {
  // Only events still waiting may be cancelled; a handle whose event
  // already fired (or was cancelled before) has a stale generation and is
  // rejected, leaving the counters untouched.
  Slot* slot = live_slot(handle);
  if (slot == nullptr) return false;
  remove_at(slot->heap_pos);
  slot->callback = nullptr;
  release(handle.slot_);
  return true;
}

bool EventQueue::reschedule(EventHandle handle, SimTime when) {
  require(!(when < now_), "EventQueue::reschedule: time is in the past");
  Slot* slot = live_slot(handle);
  if (slot == nullptr) return false;
  const std::uint32_t pos = slot->heap_pos;
  heap_[pos].when = when;
  heap_[pos].sequence = next_sequence_++;
  sift(pos);
  return true;
}

std::optional<SimTime> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().when;
}

bool EventQueue::run_next() {
  VOD_PROFILE_SCOPE("sim.run_next");
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  remove_at(0);
  // Move the callback out and free the slot first: the callback may
  // schedule (reallocating slots_), and its own handle is already stale.
  Callback callback = std::move(slots_[top.slot].callback);
  release(top.slot);
  now_ = top.when;
  callback(now_);
  return true;
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

void EventQueue::place(std::uint32_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

void EventQueue::sift_up(std::uint32_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::uint32_t pos) {
  const Entry entry = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= size) break;
    const std::uint32_t last = first + 4 < size ? first + 4 : size;
    std::uint32_t least = first;
    for (std::uint32_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[least])) least = child;
    }
    if (!earlier(heap_[least], entry)) break;
    place(pos, heap_[least]);
    pos = least;
  }
  place(pos, entry);
}

void EventQueue::sift(std::uint32_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::remove_at(std::uint32_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  sift(pos);
}

}  // namespace vod::sim
