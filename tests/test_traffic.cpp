#include "net/traffic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace vod::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NoTraffic, AlwaysZero) {
  NoTraffic model;
  EXPECT_EQ(model.background_load(LinkId{0}, SimTime{100.0}), Mbps{0.0});
  EXPECT_EQ(model.next_change_after(SimTime{0.0}).seconds(), kInf);
}

TEST(ConstantTraffic, ReturnsConfiguredLoad) {
  ConstantTraffic model;
  model.set_load(LinkId{0}, Mbps{1.5});
  EXPECT_EQ(model.background_load(LinkId{0}, SimTime{0.0}), Mbps{1.5});
  EXPECT_EQ(model.background_load(LinkId{0}, SimTime{1e6}), Mbps{1.5});
}

TEST(ConstantTraffic, UnconfiguredLinkIsZero) {
  ConstantTraffic model;
  EXPECT_EQ(model.background_load(LinkId{3}, SimTime{0.0}), Mbps{0.0});
}

TEST(ConstantTraffic, RejectsBadInput) {
  ConstantTraffic model;
  EXPECT_THROW(model.set_load(LinkId{}, Mbps{1.0}), std::invalid_argument);
  EXPECT_THROW(model.set_load(LinkId{0}, Mbps{-1.0}), std::invalid_argument);
}

TEST(TraceTraffic, StepInterpolationHoldsValue) {
  TraceTraffic trace;
  trace.add_sample(LinkId{0}, SimTime{10.0}, Mbps{1.0});
  trace.add_sample(LinkId{0}, SimTime{20.0}, Mbps{2.0});
  EXPECT_EQ(trace.background_load(LinkId{0}, SimTime{10.0}), Mbps{1.0});
  EXPECT_EQ(trace.background_load(LinkId{0}, SimTime{15.0}), Mbps{1.0});
  EXPECT_EQ(trace.background_load(LinkId{0}, SimTime{20.0}), Mbps{2.0});
  EXPECT_EQ(trace.background_load(LinkId{0}, SimTime{1e6}), Mbps{2.0});
}

TEST(TraceTraffic, BeforeFirstSampleUsesFirstValue) {
  TraceTraffic trace;
  trace.add_sample(LinkId{0}, SimTime{10.0}, Mbps{1.0});
  EXPECT_EQ(trace.background_load(LinkId{0}, SimTime{0.0}), Mbps{1.0});
}

TEST(TraceTraffic, UnknownLinkIsZero) {
  TraceTraffic trace;
  EXPECT_EQ(trace.background_load(LinkId{7}, SimTime{0.0}), Mbps{0.0});
}

TEST(TraceTraffic, SamplesMustIncreaseInTime) {
  TraceTraffic trace;
  trace.add_sample(LinkId{0}, SimTime{10.0}, Mbps{1.0});
  EXPECT_THROW(trace.add_sample(LinkId{0}, SimTime{10.0}, Mbps{2.0}),
               std::invalid_argument);
  EXPECT_THROW(trace.add_sample(LinkId{0}, SimTime{5.0}, Mbps{2.0}),
               std::invalid_argument);
}

TEST(TraceTraffic, RejectsNegativeLoad) {
  TraceTraffic trace;
  EXPECT_THROW(trace.add_sample(LinkId{0}, SimTime{0.0}, Mbps{-1.0}),
               std::invalid_argument);
}

TEST(TraceTraffic, NextChangeFindsEarliestUpcomingSample) {
  TraceTraffic trace;
  trace.add_sample(LinkId{0}, SimTime{10.0}, Mbps{1.0});
  trace.add_sample(LinkId{1}, SimTime{5.0}, Mbps{1.0});
  EXPECT_DOUBLE_EQ(trace.next_change_after(SimTime{0.0}).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(trace.next_change_after(SimTime{5.0}).seconds(), 10.0);
  EXPECT_EQ(trace.next_change_after(SimTime{10.0}).seconds(), kInf);
}

TEST(PeriodicTraffic, WrapsInnerModel) {
  TraceTraffic day;
  day.add_sample(LinkId{0}, SimTime{0.0}, Mbps{1.0});
  day.add_sample(LinkId{0}, SimTime{50.0}, Mbps{2.0});
  const PeriodicTraffic repeating{day, Duration{100.0}};
  EXPECT_EQ(repeating.background_load(LinkId{0}, SimTime{10.0}), Mbps{1.0});
  EXPECT_EQ(repeating.background_load(LinkId{0}, SimTime{60.0}), Mbps{2.0});
  // Second cycle mirrors the first.
  EXPECT_EQ(repeating.background_load(LinkId{0}, SimTime{110.0}),
            Mbps{1.0});
  EXPECT_EQ(repeating.background_load(LinkId{0}, SimTime{160.0}),
            Mbps{2.0});
  EXPECT_EQ(repeating.background_load(LinkId{0}, SimTime{1000.0}),
            Mbps{1.0});
}

TEST(PeriodicTraffic, NextChangeWithinCycle) {
  TraceTraffic day;
  day.add_sample(LinkId{0}, SimTime{0.0}, Mbps{1.0});
  day.add_sample(LinkId{0}, SimTime{50.0}, Mbps{2.0});
  const PeriodicTraffic repeating{day, Duration{100.0}};
  EXPECT_DOUBLE_EQ(repeating.next_change_after(SimTime{10.0}).seconds(),
                   50.0);
  EXPECT_DOUBLE_EQ(repeating.next_change_after(SimTime{110.0}).seconds(),
                   150.0);
}

TEST(PeriodicTraffic, NextChangeCrossesTheWrap) {
  TraceTraffic day;
  day.add_sample(LinkId{0}, SimTime{0.0}, Mbps{1.0});
  day.add_sample(LinkId{0}, SimTime{50.0}, Mbps{2.0});
  const PeriodicTraffic repeating{day, Duration{100.0}};
  // After the last in-cycle change, the next event is the wrap (t=100,
  // where the value snaps back to the cycle-start sample).
  EXPECT_DOUBLE_EQ(repeating.next_change_after(SimTime{60.0}).seconds(),
                   100.0);
  EXPECT_DOUBLE_EQ(repeating.next_change_after(SimTime{160.0}).seconds(),
                   200.0);
}

TEST(PeriodicTraffic, WrapIsAChangeWhenFirstSampleIsLate) {
  TraceTraffic day;
  day.add_sample(LinkId{0}, SimTime{30.0}, Mbps{1.0});
  day.add_sample(LinkId{0}, SimTime{60.0}, Mbps{2.0});
  const PeriodicTraffic repeating{day, Duration{100.0}};
  // At the wrap the load snaps back to the inner value at 0 (the first
  // sample's, held from the cycle start) — a change at 100, not at 130.
  EXPECT_DOUBLE_EQ(repeating.next_change_after(SimTime{70.0}).seconds(),
                   100.0);
  EXPECT_NE(repeating.background_load(LinkId{0}, SimTime{99.0}),
            repeating.background_load(LinkId{0}, SimTime{100.0}));
}

TEST(PeriodicTraffic, RejectsNonPositivePeriod) {
  NoTraffic none;
  EXPECT_THROW(PeriodicTraffic(none, Duration{0.0}), std::invalid_argument);
}

TEST(DiurnalTraffic, PeaksAtPeakHour) {
  DiurnalTraffic model{14.0};
  model.set_shape(LinkId{0},
                  {.capacity = Mbps{10.0},
                   .base_fraction = 0.1,
                   .peak_fraction = 0.9});
  const Mbps at_peak = model.background_load(LinkId{0}, from_hours(14.0));
  const Mbps at_trough = model.background_load(LinkId{0}, from_hours(2.0));
  EXPECT_NEAR(at_peak.value(), 9.0, 1e-9);
  EXPECT_NEAR(at_trough.value(), 1.0, 1e-9);
}

TEST(DiurnalTraffic, LoadStaysWithinConfiguredBand) {
  DiurnalTraffic model{14.0};
  model.set_shape(LinkId{0},
                  {.capacity = Mbps{10.0},
                   .base_fraction = 0.2,
                   .peak_fraction = 0.8});
  for (double h = 0.0; h < 48.0; h += 0.5) {
    const double load =
        model.background_load(LinkId{0}, from_hours(h)).value();
    EXPECT_GE(load, 2.0 - 1e-9);
    EXPECT_LE(load, 8.0 + 1e-9);
  }
}

TEST(DiurnalTraffic, PeriodicOverDays) {
  DiurnalTraffic model{14.0};
  model.set_shape(LinkId{0},
                  {.capacity = Mbps{10.0},
                   .base_fraction = 0.0,
                   .peak_fraction = 1.0});
  EXPECT_NEAR(model.background_load(LinkId{0}, from_hours(9.0)).value(),
              model.background_load(LinkId{0}, from_hours(33.0)).value(),
              1e-9);
}

TEST(DiurnalTraffic, UnconfiguredLinkIsZero) {
  DiurnalTraffic model{14.0};
  EXPECT_EQ(model.background_load(LinkId{0}, SimTime{0.0}), Mbps{0.0});
}

TEST(DiurnalTraffic, RejectsBadArguments) {
  EXPECT_THROW(DiurnalTraffic{24.0}, std::invalid_argument);
  EXPECT_THROW(DiurnalTraffic{-1.0}, std::invalid_argument);
  DiurnalTraffic model{14.0};
  EXPECT_THROW(model.set_shape(LinkId{0}, {.capacity = Mbps{0.0},
                                           .base_fraction = 0.1,
                                           .peak_fraction = 0.9}),
               std::invalid_argument);
  EXPECT_THROW(model.set_shape(LinkId{0}, {.capacity = Mbps{10.0},
                                           .base_fraction = 0.9,
                                           .peak_fraction = 0.1}),
               std::invalid_argument);
}

TEST(DiurnalTraffic, NextChangeQuantizedToMinute) {
  DiurnalTraffic model{14.0};
  model.set_shape(LinkId{0},
                  {.capacity = Mbps{10.0},
                   .base_fraction = 0.1,
                   .peak_fraction = 0.9});
  EXPECT_DOUBLE_EQ(model.next_change_after(SimTime{0.0}).seconds(), 60.0);
  EXPECT_DOUBLE_EQ(model.next_change_after(SimTime{61.0}).seconds(), 120.0);
}

TEST(DiurnalTraffic, NoShapesMeansNoChanges) {
  DiurnalTraffic model{14.0};
  EXPECT_EQ(model.next_change_after(SimTime{0.0}).seconds(), kInf);
}

// The contract every model keeps: a link's load is bit-for-bit constant on
// [t, next_change_after(t)).  Probes seeded random t, several instants
// inside each window (including the last representable one), every link.
void expect_step_contract(const TrafficModel& model,
                          const std::vector<LinkId>& links, double horizon,
                          std::uint64_t seed) {
  Rng rng{seed};
  for (int i = 0; i < 1500; ++i) {
    const SimTime t{rng.uniform(0.0, horizon)};
    const double next = model.next_change_after(t).seconds();
    ASSERT_GT(next, t.seconds()) << "next change not after t=" << t.seconds();
    // An unbounded window is probed up to a day past t.
    const double end = std::isinf(next) ? t.seconds() + 86400.0 : next;
    std::vector<double> probes{std::nextafter(end, t.seconds())};
    for (int k = 0; k < 4; ++k) {
      probes.push_back(t.seconds() + rng.uniform() * (end - t.seconds()));
    }
    for (const LinkId link : links) {
      const Mbps at_t = model.background_load(link, t);
      for (const double probe : probes) {
        ASSERT_EQ(model.background_load(link, SimTime{probe}).value(),
                  at_t.value())
            << "link " << link.value() << " changed between t="
            << t.seconds() << " and " << probe << " before next change "
            << next;
      }
    }
  }
}

TEST(TrafficContract, NoTrafficIsConstant) {
  expect_step_contract(NoTraffic{}, {LinkId{0}, LinkId{1}}, 1e6, 1);
}

TEST(TrafficContract, ConstantTrafficIsConstant) {
  ConstantTraffic model;
  model.set_load(LinkId{0}, Mbps{1.5});
  model.set_load(LinkId{2}, Mbps{7.25});
  expect_step_contract(model, {LinkId{0}, LinkId{1}, LinkId{2}}, 1e6, 2);
}

TEST(TrafficContract, TraceTrafficHoldsBetweenSamples) {
  TraceTraffic model;
  Rng rng{33};
  for (std::uint32_t l = 0; l < 3; ++l) {
    double t = rng.uniform(0.0, 50.0);
    for (int k = 0; k < 40; ++k) {
      model.add_sample(LinkId{l}, SimTime{t}, Mbps{rng.uniform(0.0, 10.0)});
      t += rng.uniform(1.0, 200.0);
    }
  }
  expect_step_contract(model, {LinkId{0}, LinkId{1}, LinkId{2}}, 9000.0, 3);
}

TEST(TrafficContract, PeriodicTrafficHoldsAcrossTheWrap) {
  // The inner trace's first sample is after 0, so the wrap is a change of
  // its own.
  TraceTraffic day;
  day.add_sample(LinkId{0}, SimTime{30.0}, Mbps{1.0});
  day.add_sample(LinkId{0}, SimTime{60.0}, Mbps{2.0});
  day.add_sample(LinkId{1}, SimTime{45.0}, Mbps{4.0});
  day.add_sample(LinkId{1}, SimTime{80.0}, Mbps{3.0});
  const PeriodicTraffic model{day, Duration{100.0}};
  expect_step_contract(model, {LinkId{0}, LinkId{1}}, 1000.0, 4);
}

TEST(TrafficContract, DiurnalTrafficHoldsEachMinute) {
  DiurnalTraffic model{14.0};
  model.set_shape(LinkId{0}, {.capacity = Mbps{10.0},
                              .base_fraction = 0.1,
                              .peak_fraction = 0.9});
  model.set_shape(LinkId{1}, {.capacity = Mbps{155.0},
                              .base_fraction = 0.3,
                              .peak_fraction = 0.6});
  expect_step_contract(model, {LinkId{0}, LinkId{1}}, 3.0 * 86400.0, 5);
}

}  // namespace
}  // namespace vod::net
