#include "sim/event_queue.h"

#include "sim/timer_lane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace vod::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime{3.0}, [&](SimTime) { fired.push_back(3); });
  queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(1); });
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(2); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(SimTime{1.0}, [&, i](SimTime) { fired.push_back(i); });
  }
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression (determinism audit): cancelling some of a same-time batch must
// not disturb the schedule order of the survivors — the sequence tiebreak
// is assigned at schedule time and cancellation only removes entries.
TEST(EventQueue, SameTimeOrderSurvivesInterleavedCancels) {
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(
        queue.schedule(SimTime{1.0}, [&, i](SimTime) { fired.push_back(i); }));
  }
  EXPECT_TRUE(queue.cancel(handles[1]));
  EXPECT_TRUE(queue.cancel(handles[4]));
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

// An event scheduled *during* a same-time batch (for the same instant) fires
// after the whole batch: its sequence number is necessarily larger.
TEST(EventQueue, SameTimeEventScheduledMidBatchFiresLast) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime{1.0}, [&](SimTime) {
    fired.push_back(0);
    queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(9); });
  });
  queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(1); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, CallbackReceivesEventTime) {
  EventQueue queue;
  SimTime seen{0.0};
  queue.schedule(SimTime{7.5}, [&](SimTime t) { seen = t; });
  queue.run_next();
  EXPECT_EQ(seen, SimTime{7.5});
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue queue;
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  EXPECT_EQ(queue.now(), SimTime{0.0});
  queue.run_next();
  EXPECT_EQ(queue.now(), SimTime{2.0});
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue queue;
  queue.schedule(SimTime{5.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_THROW(queue.schedule(SimTime{4.0}, [](SimTime) {}),
               std::invalid_argument);
}

TEST(EventQueue, SchedulingAtNowIsAllowed) {
  EventQueue queue;
  queue.schedule(SimTime{5.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_NO_THROW(queue.schedule(SimTime{5.0}, [](SimTime) {}));
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(SimTime{1.0}, EventQueue::Callback{}),
               std::invalid_argument);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle =
      queue.schedule(SimTime{1.0}, [&](SimTime) { fired = true; });
  EXPECT_TRUE(queue.cancel(handle));
  while (queue.run_next()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime{1.0}, [](SimTime) {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelAfterFiringFails) {
  EventQueue queue;
  const EventHandle handle = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_FALSE(queue.cancel(handle));
}

// Regression: the seed accepted cancels of already-fired handles whenever
// any other event was live, decrementing the live count and leaking the
// sequence into the cancelled set forever.
TEST(EventQueue, CancelOfFiredHandleWithOthersPendingIsRejected) {
  EventQueue queue;
  bool survivor_fired = false;
  const EventHandle first = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [&](SimTime) { survivor_fired = true; });
  queue.run_next();  // fires `first`
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_EQ(queue.pending_count(), 1u);
  EXPECT_FALSE(queue.empty());
  EXPECT_TRUE(queue.run_next());
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RepeatedStaleCancelsNeverCorruptCounts) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(queue.schedule(SimTime{1.0 + i}, [](SimTime) {}));
  }
  queue.run_next();
  queue.run_next();
  // Both fired handles must be rejected, twice, without touching the count.
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(queue.cancel(handles[0]));
    EXPECT_FALSE(queue.cancel(handles[1]));
  }
  EXPECT_EQ(queue.pending_count(), 2u);
  EXPECT_TRUE(queue.cancel(handles[2]));
  EXPECT_EQ(queue.pending_count(), 1u);
  while (queue.run_next()) {
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending_count(), 0u);
}

TEST(EventQueue, NextTimeOnConstQueueSkipsCancelled) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  queue.cancel(a);
  const EventQueue& view = queue;
  ASSERT_TRUE(view.next_time().has_value());
  EXPECT_EQ(*view.next_time(), SimTime{2.0});
  EXPECT_EQ(view.pending_count(), 1u);
}

TEST(EventQueue, CancelInvalidHandleFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(EventHandle{}));
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue queue;
  EXPECT_EQ(queue.pending_count(), 0u);
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  EXPECT_EQ(queue.pending_count(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.pending_count(), 1u);
  queue.run_next();
  EXPECT_EQ(queue.pending_count(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventHandle a = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.schedule(SimTime{2.0}, [](SimTime) {});
  queue.cancel(a);
  ASSERT_TRUE(queue.next_time().has_value());
  EXPECT_EQ(*queue.next_time(), SimTime{2.0});
}

TEST(EventQueue, NextTimeEmptyWhenDrained) {
  EventQueue queue;
  EXPECT_FALSE(queue.next_time().has_value());
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue queue;
  std::vector<double> fired;
  queue.schedule(SimTime{1.0}, [&](SimTime t) {
    fired.push_back(t.seconds());
    queue.schedule(SimTime{2.0},
                   [&](SimTime t2) { fired.push_back(t2.seconds()); });
  });
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
}

// A re-keyed event takes a fresh sequence number: moved onto an instant that
// already has events, it fires after them, exactly as a cancel plus a new
// schedule would.
TEST(EventQueue, RescheduleToEqualTimeFiresAfterEarlierScheduled) {
  EventQueue queue;
  std::vector<int> fired;
  const EventHandle moved =
      queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(0); });
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(1); });
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(2); });
  EXPECT_TRUE(queue.reschedule(moved, SimTime{2.0}));
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(3); });
  EXPECT_EQ(queue.pending_count(), 4u);
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 0, 3}));
}

TEST(EventQueue, RescheduleToSameTimeStillMovesBehindPeers) {
  EventQueue queue;
  std::vector<int> fired;
  const EventHandle first =
      queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(0); });
  queue.schedule(SimTime{1.0}, [&](SimTime) { fired.push_back(1); });
  EXPECT_TRUE(queue.reschedule(first, SimTime{1.0}));
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 0}));
}

TEST(EventQueue, RescheduleEarlierFiresFirst) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(SimTime{2.0}, [&](SimTime) { fired.push_back(0); });
  const EventHandle late =
      queue.schedule(SimTime{5.0}, [&](SimTime t) {
        fired.push_back(1);
        EXPECT_EQ(t, SimTime{1.0});
      });
  EXPECT_TRUE(queue.reschedule(late, SimTime{1.0}));
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 0}));
}

TEST(EventQueue, RescheduleIntoThePastThrows) {
  EventQueue queue;
  queue.schedule(SimTime{5.0}, [](SimTime) {});
  const EventHandle handle = queue.schedule(SimTime{8.0}, [](SimTime) {});
  queue.run_next();
  EXPECT_THROW(queue.reschedule(handle, SimTime{4.0}), std::invalid_argument);
  // The failed call left the event where it was.
  ASSERT_TRUE(queue.next_time().has_value());
  EXPECT_EQ(*queue.next_time(), SimTime{8.0});
  EXPECT_TRUE(queue.reschedule(handle, SimTime{5.0}));
  EXPECT_EQ(*queue.next_time(), SimTime{5.0});
}

// The generation check: a handle whose event fired or was cancelled stays
// stale even once its slot holds a new event, so neither cancel nor
// reschedule can reach that new event through it.
TEST(EventQueue, StaleHandlesAreRejectedByCancelAndReschedule) {
  EventQueue queue;
  const EventHandle fired = queue.schedule(SimTime{1.0}, [](SimTime) {});
  queue.run_next();
  const EventHandle cancelled = queue.schedule(SimTime{2.0}, [](SimTime) {});
  EXPECT_TRUE(queue.cancel(cancelled));
  // Reuses the freed slot of one of the handles above.
  bool reused_fired = false;
  queue.schedule(SimTime{3.0}, [&](SimTime) { reused_fired = true; });
  EXPECT_EQ(queue.pending_count(), 1u);

  for (const EventHandle stale : {fired, cancelled, EventHandle{}}) {
    EXPECT_FALSE(queue.reschedule(stale, SimTime{4.0}));
    EXPECT_FALSE(queue.cancel(stale));
    EXPECT_EQ(queue.pending_count(), 1u);
  }
  ASSERT_TRUE(queue.next_time().has_value());
  EXPECT_EQ(*queue.next_time(), SimTime{3.0});
  EXPECT_TRUE(queue.run_next());
  EXPECT_TRUE(reused_fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ScheduledTimeFollowsRescheduleUntilFiredOrCancelled) {
  EventQueue queue;
  const EventHandle first = queue.schedule(SimTime{2.0}, [](SimTime) {});
  const EventHandle second = queue.schedule(SimTime{5.0}, [](SimTime) {});
  EXPECT_EQ(queue.scheduled_time(first), SimTime{2.0});
  EXPECT_TRUE(queue.reschedule(second, SimTime{1.0}));
  EXPECT_EQ(queue.scheduled_time(second), SimTime{1.0});
  EXPECT_EQ(queue.scheduled_time(first), SimTime{2.0});
  queue.run_next();
  EXPECT_FALSE(queue.scheduled_time(second).has_value());
  EXPECT_TRUE(queue.cancel(first));
  EXPECT_FALSE(queue.scheduled_time(first).has_value());
  EXPECT_FALSE(queue.scheduled_time(EventHandle{}).has_value());
}

TEST(EventQueue, HandleOfRunningEventIsStale) {
  EventQueue queue;
  EventHandle self;
  bool rescheduled = true;
  bool cancelled = true;
  self = queue.schedule(SimTime{1.0}, [&](SimTime) {
    rescheduled = queue.reschedule(self, SimTime{2.0});
    cancelled = queue.cancel(self);
  });
  queue.run_next();
  EXPECT_FALSE(rescheduled);
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(queue.empty());
}

// Differential check against a naive model: a flat list of live events
// ordered by (when, sequence), where a re-key is a removal plus an append
// with the next sequence number.  Times come from a handful of values near
// `now`, so most orderings are decided by the sequence tiebreak.
TEST(EventQueue, MatchesSortedModelUnderMixedOperations) {
  struct ModelEvent {
    double when;
    std::uint64_t sequence;
    int id;
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng{seed};
    EventQueue queue;
    std::vector<ModelEvent> model;
    std::uint64_t model_sequence = 1;
    std::vector<EventHandle> handles;  // by id, fired and cancelled included
    std::vector<int> fired;
    std::vector<int> expected;

    const auto model_find = [&](int id) {
      return std::find_if(model.begin(), model.end(),
                          [id](const ModelEvent& e) { return e.id == id; });
    };
    const auto some_time = [&] {
      return queue.now().seconds() +
             static_cast<double>(rng.uniform_int(0, 3));
    };
    for (int op = 0; op < 5000; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind <= 3 || handles.empty()) {
        const int id = static_cast<int>(handles.size());
        const double when = some_time();
        handles.push_back(queue.schedule(
            SimTime{when}, [&fired, id](SimTime) { fired.push_back(id); }));
        model.push_back({when, model_sequence++, id});
      } else if (kind <= 6) {
        const int id = static_cast<int>(rng.uniform_int(
            0, static_cast<std::int64_t>(handles.size()) - 1));
        const auto it = model_find(id);
        if (kind == 4) {
          EXPECT_EQ(queue.cancel(handles[static_cast<std::size_t>(id)]),
                    it != model.end());
          if (it != model.end()) model.erase(it);
        } else {
          const double when = some_time();
          EXPECT_EQ(queue.reschedule(handles[static_cast<std::size_t>(id)],
                                     SimTime{when}),
                    it != model.end());
          if (it != model.end()) {
            it->when = when;
            it->sequence = model_sequence++;
          }
        }
      } else {
        const auto next = std::min_element(
            model.begin(), model.end(),
            [](const ModelEvent& a, const ModelEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.sequence < b.sequence;
            });
        EXPECT_EQ(queue.run_next(), next != model.end());
        if (next != model.end()) {
          expected.push_back(next->id);
          EXPECT_EQ(queue.now(), SimTime{next->when});
          model.erase(next);
        }
      }
      ASSERT_EQ(queue.pending_count(), model.size())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(queue.heap_size(), model.size());
      ASSERT_EQ(fired, expected) << "seed " << seed << " op " << op;
    }
  }
}

TEST(EventQueue, HeavyCancellationCompactsHeap) {
  // Fault storms cancel whole batches of watchdogs; once cancelled entries
  // outnumber live ones the heap is compacted so memory stays bounded at
  // ~2x the live events instead of growing with cancellation history.
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        queue.schedule(SimTime{static_cast<double>(i + 1)}, [](SimTime) {}));
  }
  for (int i = 0; i < 999; ++i) queue.cancel(handles[i]);
  EXPECT_EQ(queue.pending_count(), 1u);
  EXPECT_LE(queue.heap_size(), 2u);
}

TEST(EventQueue, CompactionPreservesSameTimeScheduleOrder) {
  // Regression: compaction rebuilds the heap; same-time events must still
  // fire in their original scheduling order afterwards.
  EventQueue queue;
  std::vector<int> fired;
  // Ten same-time survivors interleaved with enough doomed events that
  // cancelling them triggers (several) compactions.
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(SimTime{5.0}, [&fired, i](SimTime) { fired.push_back(i); });
    for (int j = 0; j < 4; ++j) {
      doomed.push_back(queue.schedule(SimTime{3.0}, [](SimTime) {}));
    }
  }
  for (const EventHandle handle : doomed) queue.cancel(handle);
  EXPECT_LE(queue.heap_size(), 20u);  // compaction actually happened
  while (queue.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}


// A timer owned by a test script: the lane's fire callback logs its id and
// may run a follow-up (arming from inside a firing callback).
struct ScriptTimer : TimerLane::Hook {
  int id = 0;
  std::vector<int>* log = nullptr;
  std::function<void()> on_fire;
};

void fire_script_timer(TimerLane::Hook& hook, SimTime) {
  auto& timer = static_cast<ScriptTimer&>(hook);
  timer.log->push_back(timer.id);
  if (timer.on_fire) timer.on_fire();
}

// The lane must fire in exactly the order one event per timer would: the
// same random script (plain events plus lane timers on three delays, with
// cancels, reschedules, disarms and re-arms from inside a firing timer)
// runs once with lanes and once with plain schedule/cancel.
TEST(TimerLane, FiresInTheOrderOfOneEventPerTimer) {
  constexpr int kTimers = 40;
  const double delays[] = {0.0, 1.0, 2.0};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const auto run_script = [&](bool use_lanes) {
      Rng rng{seed};
      EventQueue queue;
      std::vector<int> log;
      std::vector<EventHandle> events;
      std::vector<std::unique_ptr<TimerLane>> lanes;
      for (const double delay : delays) {
        lanes.push_back(std::make_unique<TimerLane>(
            queue, Duration{delay}, &fire_script_timer));
      }
      std::vector<ScriptTimer> timers(kTimers);
      std::vector<EventHandle> plain(kTimers);  // the plain-event twin
      const auto lane_of = [&](int t) { return t % 3; };
      std::function<void(int)> arm = [&](int t) {
        ScriptTimer& timer = timers[static_cast<std::size_t>(t)];
        if (use_lanes) {
          if (!timer.armed()) lanes[lane_of(t)]->arm(timer);
          return;
        }
        if (queue.scheduled_time(plain[t])) return;
        plain[t] = queue.schedule(
            queue.now() + Duration{delays[lane_of(t)]},
            [&, t](SimTime now) {
              fire_script_timer(timers[static_cast<std::size_t>(t)], now);
            });
      };
      const auto disarm = [&](int t) {
        if (use_lanes) {
          lanes[lane_of(t)]->disarm(timers[static_cast<std::size_t>(t)]);
        } else {
          queue.cancel(plain[t]);
        }
      };
      for (int t = 0; t < kTimers; ++t) {
        timers[static_cast<std::size_t>(t)].id = 1000 + t;
        timers[static_cast<std::size_t>(t)].log = &log;
        // Every fifth timer re-arms the next timer when it fires.
        if (t % 5 == 0) {
          timers[static_cast<std::size_t>(t)].on_fire = [&, t] {
            arm((t + 1) % kTimers);
          };
        }
      }
      for (int op = 0; op < 3000; ++op) {
        const std::int64_t kind = rng.uniform_int(0, 9);
        const int t = static_cast<int>(rng.uniform_int(0, kTimers - 1));
        if (kind <= 1) {
          const int id = static_cast<int>(events.size());
          events.push_back(queue.schedule(
              queue.now() + Duration{static_cast<double>(
                                rng.uniform_int(0, 2))},
              [&log, id](SimTime) { log.push_back(id); }));
        } else if (kind == 2 && !events.empty()) {
          queue.cancel(events[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(events.size()) - 1))]);
        } else if (kind == 3 && !events.empty()) {
          queue.reschedule(
              events[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(events.size()) - 1))],
              queue.now() + Duration{1.0});
        } else if (kind <= 5) {
          arm(t);
        } else if (kind == 6) {
          disarm(t);
        } else {
          queue.run_next();
        }
      }
      while (queue.run_next()) {
      }
      return log;
    };
    const std::vector<int> with_lanes = run_script(true);
    EXPECT_FALSE(with_lanes.empty());
    EXPECT_EQ(with_lanes, run_script(false)) << "seed " << seed;
  }
}

TEST(TimerLane, HoldsOneHeapEntryPerLane) {
  EventQueue queue;
  TimerLane lane{queue, Duration{5.0}, &fire_script_timer};
  std::vector<int> log;
  std::vector<ScriptTimer> timers(100);
  for (std::size_t i = 0; i < timers.size(); ++i) {
    timers[i].id = static_cast<int>(i);
    timers[i].log = &log;
    lane.arm(timers[i]);
  }
  EXPECT_EQ(queue.pending_count(), 1u);
  lane.disarm(timers[0]);  // the head: the event moves to the next timer
  EXPECT_EQ(queue.next_time(), SimTime{5.0});
  for (std::size_t i = 1; i < timers.size(); ++i) lane.disarm(timers[i]);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(log.empty());
}

TEST(EventQueue, DeferredActionRunsBeforeTheNextSameInstantEvent) {
  EventQueue queue;
  std::vector<std::string> log;
  queue.schedule(SimTime{1.0}, [&](SimTime) {
    queue.defer([&] { log.push_back("deferred"); });
    log.push_back("first");
  });
  queue.schedule(SimTime{1.0}, [&](SimTime) { log.push_back("second"); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(log, (std::vector<std::string>{"first", "deferred", "second"}));
}

TEST(EventQueue, DeferredOutsideAnEventRunsOnTheNextRun) {
  Simulation sim;
  int ran = 0;
  sim.queue().defer([&] { ++ran; });
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.run(), 0u);  // the queue is empty, the action still runs
  EXPECT_EQ(ran, 1);
  sim.queue().defer([&] { ++ran; });
  sim.run_until(sim.now());
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, DeferredActionsAfterAThrowRunOnTheNextDrain) {
  EventQueue queue;
  int ran = 0;
  queue.defer([] { throw std::runtime_error("boom"); });
  queue.defer([&] { ++ran; });
  EXPECT_THROW(queue.run_next(), std::runtime_error);
  EXPECT_EQ(ran, 0);
  EXPECT_FALSE(queue.run_next());
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace vod::sim
