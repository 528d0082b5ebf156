#include "sim/timer_lane.h"

#include "common/contract.h"

namespace vod::sim {

void TimerLane::arm(Hook& hook) {
  ensure(!hook.armed(), "TimerLane::arm: timer already armed");
  // now() never decreases, so the tail is the latest (when, sequence).
  hook.when_ = queue_.now() + delay_;
  hook.sequence_ = queue_.reserve_sequence();
  hook.prev_ = tail_;
  hook.next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->next_ = &hook;
    tail_ = &hook;
    return;
  }
  head_ = tail_ = &hook;
  schedule_head();
}

void TimerLane::disarm(Hook& hook) {
  if (!hook.armed()) return;
  const bool was_head = &hook == head_;
  unlink(hook);
  if (!was_head) return;
  if (head_ == nullptr) {
    queue_.cancel(event_);
    event_ = EventHandle{};
  } else {
    queue_.rekey(event_, head_->when_, head_->sequence_);
  }
}

void TimerLane::unlink(Hook& hook) {
  (hook.prev_ != nullptr ? hook.prev_->next_ : head_) = hook.next_;
  (hook.next_ != nullptr ? hook.next_->prev_ : tail_) = hook.prev_;
  hook.prev_ = hook.next_ = nullptr;
  hook.sequence_ = 0;
}

void TimerLane::schedule_head() {
  event_ = queue_.schedule(head_->when_, head_->sequence_,
                           [this](SimTime now) { on_event(now); });
}

void TimerLane::on_event(SimTime now) {
  // The event that fired is gone: key a new one at the next timer before
  // the callback runs, so a re-arm from inside it lands behind that timer.
  Hook& hook = *head_;
  unlink(hook);
  event_ = EventHandle{};
  if (head_ != nullptr) schedule_head();
  fire_(hook, now);
}

}  // namespace vod::sim
