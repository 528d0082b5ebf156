// The observability layer: trace recorder exports, the metrics registry,
// the profiler gate, and an end-to-end check that a traced service run is
// behaviourally identical to an untraced one.  Telemetry v2 (DESIGN.md
// §16) rides the same contract: bucketed percentiles share the repo's one
// nearest-rank rule, sim-time series and SLO burn-rate monitors sample
// deterministically, and the flight recorder's black boxes are
// byte-identical across double runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "fault/fault_injector.h"
#include "grnet/grnet.h"
#include "obs/context.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "service/report.h"
#include "service/vod_service.h"

namespace vod::obs {
namespace {

// ---- TraceRecorder ----

TEST(TraceRecorder, TextDumpIsGolden) {
  TraceRecorder recorder;
  double now = 0.0;
  Context context{[&now] { return SimTime{now}; }};
  context.set_trace(&recorder);

  recorder.instant(Subsystem::kService, "service.request",
                   {{"home", "patra"}, {"video", "0"}});
  now = 1.5;
  recorder.async_begin(Subsystem::kSession, "session", 7, {{"video", "0"}});
  recorder.begin(Subsystem::kSnmp, "snmp.sweep", {{"links", "7"}});
  recorder.end(Subsystem::kSnmp, "snmp.sweep");
  now = 2.0;
  recorder.counter(Subsystem::kFluid, "fluid.active_flows", 3.0);
  recorder.async_end(Subsystem::kSession, "session", 7);

  EXPECT_EQ(recorder.to_text(),
            "t=0 service i service.request home=patra video=0\n"
            "t=1.5 session b session id=7 video=0\n"
            "t=1.5 snmp B snmp.sweep links=7\n"
            "t=1.5 snmp E snmp.sweep\n"
            "t=2 fluid C fluid.active_flows value=3\n"
            "t=2 session e session id=7\n");
  EXPECT_EQ(recorder.subsystem_count(), 4u);
}

TEST(TraceRecorder, ChromeJsonCarriesPhaseSpecificFields) {
  TraceRecorder recorder;
  Context context{[] { return SimTime{2.5}; }};
  context.set_trace(&recorder);
  recorder.instant(Subsystem::kVra, "vra.select", {{"server", "U4"}});
  recorder.counter(Subsystem::kFluid, "fluid.active_flows", 2.0);
  recorder.async_begin(Subsystem::kSession, "session", 42);

  const std::string json = recorder.to_chrome_json();
  // Timestamps are simulated microseconds.
  EXPECT_NE(json.find("\"ts\":2500000"), std::string::npos);
  // Instants carry the scope marker; counters a numeric value; async a
  // pair id.  Thread-name metadata names each active subsystem track.
  EXPECT_NE(json.find("\"ph\":\"i\",\"pid\":1,\"tid\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"vra\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"session\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"server\":\"U4\"}"), std::string::npos);
}

TEST(TraceRecorder, JsonEscapesControlAndQuoteCharacters) {
  TraceRecorder recorder;
  recorder.instant(Subsystem::kSim, "weird \"name\"\n", {{"k", "a\\b"}});
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("weird \\\"name\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
}

TEST(TraceRecorder, CapacityCapCountsDrops) {
  TraceRecorder recorder{2};
  recorder.instant(Subsystem::kSim, "one");
  recorder.instant(Subsystem::kSim, "two");
  recorder.instant(Subsystem::kSim, "three");
  EXPECT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.dropped_count(), 1u);
  EXPECT_NE(recorder.to_chrome_json().find("\"vodDroppedEvents\":1"),
            std::string::npos);
  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.dropped_count(), 0u);
}

TEST(TraceSink, DefaultsToNullAndRoundTrips) {
  TraceRecorder recorder;
  Context context;
  EXPECT_EQ(context.trace(), nullptr);
  context.set_trace(&recorder);
  EXPECT_EQ(context.trace(), &recorder);
  context.set_trace(nullptr);
  EXPECT_EQ(context.trace(), nullptr);
}

TEST(Context, SimulationStampsAttachedRecordersWithItsClock) {
  TraceRecorder recorder;
  sim::Simulation sim;
  sim.obs().set_trace(&recorder);
  sim.schedule_at(SimTime{7.5}, [&sim](SimTime) {
    sim.obs().trace()->instant(Subsystem::kSim, "tick");
  });
  sim.run();
  EXPECT_EQ(recorder.to_text(), "t=7.5 sim i tick\n");
  EXPECT_EQ(recorder.now().seconds(), 7.5);
}

TEST(Context, DyingContextReleasesClockAndMirror) {
  TraceRecorder recorder;
  FlightRecorder flight;
  {
    Context context{[] { return SimTime{3.0}; }};
    context.set_trace(&recorder);
    context.set_flight(&flight);
    recorder.instant(Subsystem::kSim, "inside");
    EXPECT_EQ(flight.ring().events().size(), 1u);
  }
  // The context that wired the clock and the mirror is gone: the recorder
  // stamps t=0 and no longer feeds the flight ring.
  recorder.instant(Subsystem::kSim, "after");
  EXPECT_EQ(recorder.to_text(), "t=3 sim i inside\nt=0 sim i after\n");
  EXPECT_EQ(flight.ring().events().size(), 1u);
}

// ---- MetricsRegistry ----

TEST(Metrics, CounterGaugeRoundTripThroughSnapshot) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("cache.hits");
  hits.inc(3);
  ++hits;
  registry.gauge("queue.depth").set(17.5);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_u64("cache.hits"), 4u);
  EXPECT_DOUBLE_EQ(snap.value("queue.depth"), 17.5);
  EXPECT_TRUE(snap.has("cache.hits"));
  EXPECT_FALSE(snap.has("no.such"));
  EXPECT_THROW((void)snap.value("no.such"), std::out_of_range);
}

TEST(Metrics, RegistryIsGetOrCreate) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  // A name registered as one kind cannot come back as another.
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("x", {1.0}), std::logic_error);
}

TEST(Metrics, HistogramBucketsObservations) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("delay", {1.0, 5.0, 10.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (inclusive upper bound)
  h.observe(3.0);   // <= 5
  h.observe(100.0); // +inf
  const MetricsSnapshot snap = registry.snapshot();
  const auto& data = snap.histograms().at("delay");
  ASSERT_EQ(data.bucket_counts.size(), 4u);
  EXPECT_EQ(data.bucket_counts[0], 2u);
  EXPECT_EQ(data.bucket_counts[1], 1u);
  EXPECT_EQ(data.bucket_counts[2], 0u);
  EXPECT_EQ(data.bucket_counts[3], 1u);
  EXPECT_EQ(data.count, 4u);
  EXPECT_DOUBLE_EQ(data.sum, 104.5);
}

TEST(Metrics, HistogramBoundsMustAscend) {
  MetricsRegistry registry;
  EXPECT_ANY_THROW((void)registry.histogram("bad", {5.0, 1.0}));
}

TEST(Metrics, CollectorsContributeAtSnapshotTime) {
  MetricsRegistry registry;
  std::uint64_t external = 0;
  registry.add_collector([&external](MetricsSnapshot& snap) {
    snap.set_counter("external.count", external);
  });
  external = 9;
  EXPECT_EQ(registry.snapshot().value_u64("external.count"), 9u);
  external = 12;
  EXPECT_EQ(registry.snapshot().value_u64("external.count"), 12u);
}

TEST(Metrics, CsvAndJsonAreDeterministicallyOrdered) {
  MetricsRegistry registry;
  registry.counter("b.count").inc(2);
  registry.gauge("a.level").set(1.0);
  registry.histogram("c.delay", {1.0}).observe(0.5);
  const MetricsSnapshot snap = registry.snapshot();

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv.find("name,kind,value\n"), 0u);
  EXPECT_NE(csv.find("a.level,gauge,1"), std::string::npos);
  EXPECT_LT(csv.find("a.level"), csv.find("b.count"));
  EXPECT_NE(csv.find("b.count,counter,2"), std::string::npos);
  EXPECT_NE(csv.find("c.delay[le=1]"), std::string::npos);
  EXPECT_NE(csv.find("c.delay[le=+inf]"), std::string::npos);
  EXPECT_NE(csv.find("c.delay[count]"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
}

// ---- Bucketed percentiles (the repo's one quantile rule) ----

TEST(BucketQuantile, MatchesSampleSetNearestRankConvention) {
  // 100 samples 1..100 against decade buckets: the bucket-interpolated
  // quantile must land exactly where SampleSet's nearest-rank pick does,
  // because both sides share vod::nearest_rank and the samples are
  // uniform within every bucket.
  SampleSet samples;
  MetricsRegistry registry;
  Histogram& h = registry.histogram(
      "v", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) {
    samples.add(i);
    h.observe(i);
  }
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), samples.quantile(q)) << "q=" << q;
  }
}

TEST(BucketQuantile, InterpolatesWithinABucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("v", {10.0});
  for (int i = 0; i < 4; ++i) h.observe(1.0);
  // rank ceil(0.5*4)=2 of 4 in the [0,10] bucket -> 10 * 2/4.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(BucketQuantile, OverflowBucketClampsToLastBound) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("v", {1.0, 5.0});
  h.observe(100.0);  // +inf bucket only
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

TEST(BucketQuantile, EmptyHistogramThrows) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("v", {1.0});
  EXPECT_THROW((void)h.quantile(0.5), std::invalid_argument);
  h.observe(0.5);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

// ---- TimeSeriesRecorder ----

TEST(Series, GoldenCsvAndJsonExports) {
  MetricsRegistry registry;
  Counter& requests = registry.counter("svc.requests");
  TimeSeriesRecorder recorder;
  recorder.bind_registry(&registry);

  recorder.sample(SimTime{0.0});
  requests.inc(30);
  recorder.sample(SimTime{30.0});
  requests.inc(15);
  recorder.sample(SimTime{60.0});

  EXPECT_EQ(recorder.to_csv(),
            "series,t,value,rate\n"
            "svc.requests,0,0,0\n"
            "svc.requests,30,30,1\n"
            "svc.requests,60,45,0.5\n");
  EXPECT_EQ(recorder.to_json(),
            "{\"cadence_s\":30,\"samples\":3,\"series\":{"
            "\"svc.requests\":{\"evicted\":0,\"points\":["
            "{\"t\":0,\"v\":0,\"rate\":0},"
            "{\"t\":30,\"v\":30,\"rate\":1},"
            "{\"t\":60,\"v\":45,\"rate\":0.5}]}}}\n");
}

TEST(Series, HistogramsContributeCountAndSumSeries) {
  MetricsRegistry registry;
  registry.histogram("d", {1.0}).observe(0.5);
  TimeSeriesRecorder recorder;
  recorder.bind_registry(&registry);
  recorder.sample(SimTime{0.0});
  EXPECT_EQ(recorder.series().count("d[count]"), 1u);
  EXPECT_EQ(recorder.series().count("d[sum]"), 1u);
  EXPECT_EQ(recorder.series().count("d"), 0u);
}

TEST(Series, IncludePrefixesFilterMetrics) {
  MetricsRegistry registry;
  registry.counter("keep.a").inc();
  registry.counter("drop.b").inc();
  SeriesOptions options;
  options.include = {"keep."};
  TimeSeriesRecorder recorder{options};
  recorder.bind_registry(&registry);
  recorder.sample(SimTime{0.0});
  EXPECT_EQ(recorder.series().count("keep.a"), 1u);
  EXPECT_EQ(recorder.series().count("drop.b"), 0u);
}

TEST(Series, BoundedRingEvictsOldestPoints) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  SeriesOptions options;
  options.capacity = 2;
  TimeSeriesRecorder recorder{options};
  recorder.bind_registry(&registry);
  for (int t = 0; t < 3; ++t) {
    c.inc();
    recorder.sample(SimTime{30.0 * t});
  }
  const Series& series = recorder.series().at("c");
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.evicted(), 1u);
  std::vector<double> kept;
  series.for_each_point(
      [&kept](const SeriesPoint& p) { kept.push_back(p.at.seconds()); });
  EXPECT_EQ(kept, (std::vector<double>{30.0, 60.0}));
}

TEST(Series, PumpFiresEveryTickUpToTheInstant) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  TimeSeriesRecorder recorder;  // cadence 30, first tick at 0
  recorder.bind_registry(&registry);

  c.inc();
  recorder.on_instant(SimTime{65.0});  // takes ticks 0, 30, 60
  EXPECT_EQ(recorder.sample_count(), 3u);
  EXPECT_EQ(recorder.next_tick().seconds(), 90.0);
  recorder.on_instant(SimTime{70.0});  // no tick in (65, 70]
  EXPECT_EQ(recorder.sample_count(), 3u);

  recorder.restart();
  EXPECT_EQ(recorder.sample_count(), 0u);
  EXPECT_TRUE(recorder.series().empty());
  EXPECT_EQ(recorder.next_tick().seconds(), 0.0);
}

TEST(Series, SimulationPumpSamplesStateStrictlyBeforeEachTick) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  TimeSeriesRecorder recorder;
  recorder.bind_registry(&registry);
  sim::Simulation sim;
  sim.obs().set_series(&recorder);

  sim.schedule_at(SimTime{10.0}, [&c](SimTime) { c.inc(); });
  sim.schedule_at(SimTime{40.0}, [&c](SimTime) { c.inc(); });
  sim.run_until(SimTime{60.0});

  // Tick 0 precedes both events, tick 30 sits between them, and the
  // run_until boundary flushes tick 60 after the t=40 event.
  std::vector<double> values;
  recorder.series().at("c").for_each_point(
      [&values](const SeriesPoint& p) { values.push_back(p.value); });
  EXPECT_EQ(values, (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(SeriesSink, DefaultsToNullAndRoundTrips) {
  TimeSeriesRecorder recorder;
  Context context;
  EXPECT_EQ(context.series(), nullptr);
  context.set_series(&recorder);
  EXPECT_EQ(context.series(), &recorder);
  context.set_series(nullptr);
  EXPECT_EQ(context.series(), nullptr);
}

// ---- SloMonitor ----

TEST(Slo, AvailabilityBreachAndRecoverAreEdgeTriggered) {
  MetricsRegistry registry;
  Counter& good = registry.counter("good");
  Counter& bad = registry.counter("bad");
  TraceRecorder trace;
  double now = 0.0;
  Context context{[&now] { return SimTime{now}; }};
  context.set_trace(&trace);
  SloMonitor slo{&registry, &context};
  SloSpec spec;
  spec.name = "avail";
  spec.kind = SloSpec::Kind::kAvailabilityFloor;
  spec.good_metric = "good";
  spec.total_metrics = {"good", "bad"};
  spec.threshold = 0.9;
  spec.windows = {{Duration{60.0}, 1.0}, {Duration{20.0}, 1.0}};
  slo.add(std::move(spec));
  // The breach counter exists from registration, not first breach.
  EXPECT_EQ(registry.snapshot().value_u64("slo.avail.breaches"), 0u);

  good.inc(10);
  now = 10.0;
  slo.evaluate(SimTime{10.0});
  EXPECT_FALSE(slo.states()[0].breached);

  bad.inc(5);  // 5 of the window's 15 fail: burn 3.33x in both windows
  now = 20.0;
  slo.evaluate(SimTime{20.0});
  EXPECT_TRUE(slo.states()[0].breached);
  EXPECT_EQ(slo.states()[0].breaches, 1u);
  EXPECT_EQ(registry.snapshot().value_u64("slo.avail.breaches"), 1u);

  // Still burning: no second edge.
  now = 30.0;
  slo.evaluate(SimTime{30.0});
  EXPECT_EQ(slo.states()[0].breaches, 1u);

  // A clean stretch slides the bad era out of every window.
  good.inc(100);
  now = 100.0;
  slo.evaluate(SimTime{100.0});
  EXPECT_FALSE(slo.states()[0].breached);
  EXPECT_EQ(slo.states()[0].recoveries, 1u);

  const std::string text = trace.to_text();
  EXPECT_NE(text.find("t=20 slo i slo.breach slo=avail"),
            std::string::npos);
  EXPECT_NE(text.find("t=100 slo i slo.recover slo=avail"),
            std::string::npos);
}

TEST(Slo, BreachNeedsEveryWindowBurning) {
  MetricsRegistry registry;
  Counter& good = registry.counter("good");
  Counter& bad = registry.counter("bad");
  SloMonitor slo{&registry};
  SloSpec spec;
  spec.name = "avail";
  spec.kind = SloSpec::Kind::kAvailabilityFloor;
  spec.good_metric = "good";
  spec.total_metrics = {"good", "bad"};
  spec.threshold = 0.9;
  spec.windows = {{Duration{1000.0}, 1.0}, {Duration{10.0}, 1.0}};
  slo.add(std::move(spec));

  good.inc(190);
  slo.evaluate(SimTime{10.0});
  bad.inc(10);  // the short window burns 10x, the long one only 0.5x
  slo.evaluate(SimTime{20.0});
  EXPECT_FALSE(slo.states()[0].breached);
  ASSERT_EQ(slo.states()[0].last_burn.size(), 2u);
  EXPECT_LT(slo.states()[0].last_burn[0], 1.0);
  EXPECT_GE(slo.states()[0].last_burn[1], 1.0);
}

TEST(Slo, RatioCeilingBurnsOnWindowedDeltas) {
  MetricsRegistry registry;
  Counter& rejected = registry.counter("rejected");
  Counter& requests = registry.counter("requests");
  SloMonitor slo{&registry};
  SloSpec spec;
  spec.name = "rejects";
  spec.kind = SloSpec::Kind::kRatioCeiling;
  spec.bad_metric = "rejected";
  spec.total_metrics = {"requests"};
  spec.threshold = 0.25;
  spec.windows = {{Duration{30.0}, 1.0}};
  slo.add(std::move(spec));

  requests.inc(100);
  rejected.inc(10);  // 10% < 25%: burn 0.4
  slo.evaluate(SimTime{10.0});
  EXPECT_FALSE(slo.states()[0].breached);

  requests.inc(10);
  rejected.inc(10);  // windowed delta 10/10 = 100%: burn 4
  slo.evaluate(SimTime{50.0});
  EXPECT_TRUE(slo.states()[0].breached);
}

TEST(Slo, QuantileCeilingReadsWindowedBucketDeltas) {
  MetricsRegistry registry;
  Histogram& stalls = registry.histogram("stall", {1.0, 5.0, 10.0});
  SloMonitor slo{&registry};
  SloSpec spec;
  spec.name = "stall-p99";
  spec.kind = SloSpec::Kind::kQuantileCeiling;
  spec.histogram_metric = "stall";
  spec.quantile = 0.99;
  spec.threshold = 2.0;
  spec.windows = {{Duration{15.0}, 1.0}};
  slo.add(std::move(spec));

  for (int i = 0; i < 10; ++i) stalls.observe(0.5);
  slo.evaluate(SimTime{10.0});  // p99 of the sub-second era: 1.0 -> 0.5x
  EXPECT_FALSE(slo.states()[0].breached);

  for (int i = 0; i < 10; ++i) stalls.observe(8.0);
  slo.evaluate(SimTime{20.0});  // p99 jumps into the 5..10 bucket
  EXPECT_TRUE(slo.states()[0].breached);
  EXPECT_GE(slo.states()[0].last_burn[0], 1.0);
}

TEST(Slo, StatusJsonIsDeterministic) {
  MetricsRegistry registry;
  registry.counter("good").inc(1);
  SloMonitor slo{&registry};
  SloSpec spec;
  spec.name = "avail";
  spec.kind = SloSpec::Kind::kAvailabilityFloor;
  spec.good_metric = "good";
  spec.total_metrics = {"good"};
  spec.threshold = 0.5;
  spec.windows = {{Duration{60.0}, 1.0}};
  slo.add(std::move(spec));
  slo.evaluate(SimTime{10.0});
  EXPECT_EQ(slo.status_json(),
            "{\"slos\":[{\"name\":\"avail\",\"breached\":false,"
            "\"breaches\":0,\"recoveries\":0,\"burn\":[0]}]}\n");
}

TEST(Slo, SpecValidationRejectsNonsense) {
  MetricsRegistry registry;
  SloMonitor slo{&registry};
  SloSpec spec;
  spec.name = "bad";
  spec.kind = SloSpec::Kind::kAvailabilityFloor;
  spec.good_metric = "g";
  spec.total_metrics = {"g"};
  spec.threshold = 1.0;  // a 100% floor leaves no budget to burn
  spec.windows = {{Duration{60.0}, 1.0}};
  EXPECT_THROW(slo.add(spec), std::invalid_argument);
  spec.threshold = 0.9;
  spec.windows.clear();
  EXPECT_THROW(slo.add(spec), std::invalid_argument);
}

// ---- FlightRecorder ----

TEST(TraceRecorder, RingModeOverwritesOldestEvents) {
  TraceRecorder ring{3, OverflowPolicy::kRing};
  for (int i = 0; i < 5; ++i) {
    ring.instant(Subsystem::kSim, "e" + std::to_string(i));
  }
  EXPECT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(ring.overwritten_count(), 2u);
  EXPECT_EQ(ring.dropped_count(), 0u);
  std::vector<std::string> names;
  ring.for_each_event(
      [&names](const TraceEvent& e) { names.push_back(e.name); });
  EXPECT_EQ(names, (std::vector<std::string>{"e2", "e3", "e4"}));
  EXPECT_NE(ring.to_text().find("# ring overwrote 2 older event(s)"),
            std::string::npos);
  ring.clear();
  EXPECT_EQ(ring.overwritten_count(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(FlightSink, InstallWiresRingAsEffectiveTraceSink) {
  FlightOptions options;
  options.ring_capacity = 4;
  FlightRecorder flight{options};
  TraceRecorder capped{1};
  Context context;
  context.set_flight(&flight);
  // With no user recorder the ring IS the sink...
  ASSERT_EQ(context.trace(), &flight.ring());
  context.trace()->instant(Subsystem::kService, "one");
  EXPECT_EQ(flight.ring().events().size(), 1u);

  // ...and a user recorder takes over the slot but mirrors into the ring,
  // even past its own capacity cap.
  context.set_trace(&capped);
  ASSERT_EQ(context.trace(), &capped);
  context.trace()->instant(Subsystem::kService, "two");
  context.trace()->instant(Subsystem::kService, "three");
  EXPECT_EQ(capped.events().size(), 1u);
  EXPECT_EQ(capped.dropped_count(), 1u);
  EXPECT_EQ(flight.ring().events().size(), 3u);

  // Detaching the user recorder cuts its mirror and hands the slot back
  // to the ring; detaching the flight recorder empties it.
  context.set_trace(nullptr);
  capped.instant(Subsystem::kService, "four");
  EXPECT_EQ(flight.ring().events().size(), 3u);
  EXPECT_EQ(context.trace(), &flight.ring());
  context.set_flight(nullptr);
  EXPECT_EQ(context.trace(), nullptr);
  EXPECT_EQ(context.flight(), nullptr);
}

TEST(Flight, TriggerDumpsDeterministicBlackBoxes) {
  FlightOptions options;
  options.ring_capacity = 8;
  options.max_dumps = 2;
  options.min_gap = Duration{60.0};  // memory-only: no dump_path_prefix
  FlightRecorder flight{options};
  MetricsRegistry registry;
  registry.counter("x").inc(3);
  flight.bind_registry(&registry);
  double now = 0.0;
  Context context{[&now] { return SimTime{now}; }};
  flight.set_config("threads", "2");
  flight.set_config("seed", "4242");
  context.set_flight(&flight);

  context.trace()->instant(Subsystem::kService, "service.request");
  now = 10.0;
  EXPECT_TRUE(flight.trigger("fault.link-cut"));
  now = 30.0;
  EXPECT_FALSE(flight.trigger("too-soon"));  // inside min_gap
  now = 100.0;
  EXPECT_TRUE(flight.trigger("preemption"));
  now = 200.0;
  EXPECT_FALSE(flight.trigger("over-budget"));  // max_dumps reached

  EXPECT_EQ(flight.dump_count(), 2u);
  EXPECT_EQ(flight.suppressed_count(), 2u);
  ASSERT_EQ(flight.dumps().size(), 2u);
  EXPECT_EQ(flight.dumps()[0].first, "fault.link-cut");
  EXPECT_EQ(flight.dumps()[1].first, "preemption");

  const std::string& dump = flight.dumps()[0].second;
  EXPECT_NE(dump.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"fault.link-cut\""), std::string::npos);
  EXPECT_NE(dump.find("\"sim_time_s\":10"), std::string::npos);
  // Config renders key-sorted; the metrics snapshot and the ring's events
  // are embedded in full.
  EXPECT_LT(dump.find("\"seed\":\"4242\""), dump.find("\"threads\":\"2\""));
  EXPECT_NE(dump.find("\"x\":3"), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"service.request\""), std::string::npos);
  EXPECT_NE(flight.dumps()[1].second.find("\"seq\":1"), std::string::npos);
}

// ---- Profiler ----

TEST(Profiler, DisabledByDefaultAndScopesNoOpWhenOff) {
  Profiler& profiler = Profiler::instance();
  profiler.reset();
  profiler.set_enabled(false);
  {
    VOD_PROFILE_SCOPE("test.site");
  }
  EXPECT_TRUE(profiler.sites().empty());
}

TEST(Profiler, EnabledScopesAggregatePerSite) {
  Profiler& profiler = Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    VOD_PROFILE_SCOPE("test.loop");
  }
  profiler.set_enabled(false);
  ASSERT_EQ(profiler.sites().count("test.loop"), 1u);
  EXPECT_EQ(profiler.sites().at("test.loop").calls, 3u);
  const std::string csv = profiler.report_csv();
  EXPECT_NE(csv.find("site,calls,total_ns,mean_ns"), std::string::npos);
  EXPECT_NE(csv.find("test.loop,3,"), std::string::npos);
  profiler.reset();
}

// ---- End to end: a traced run equals an untraced run ----

struct RunOutput {
  std::string sessions_csv;
  std::string report;
  std::string metrics_csv;
};

/// The GRNET storyline the end-to-end tests share: one title at
/// Thessaloniki, four requests from the replica-less west a minute apart,
/// and a Patra-Ioannina fiber cut from 300 s to 700 s.  The constructor
/// only wires the service, so observers attach before start() places the
/// title and schedules the story; `offset` shifts the story so two runs
/// write distinguishable traces.
struct GrnetRun {
  GrnetRun()
      : service{sim, g.topology, network, options(),
                db::AdminCredential{"obs-admin"}} {}

  void start(double offset = 0.0) {
    const VideoId movie =
        service.add_video("movie", MegaBytes{40.0}, Mbps{1.5});
    service.place_initial_copy(g.thessaloniki, movie);
    service.start();
    for (int i = 0; i < 4; ++i) {
      const NodeId home = i % 2 == 0 ? g.patra : g.athens;
      sim.schedule_at(SimTime{offset + 60.0 * (i + 1)},
                      [this, home, movie](SimTime) {
                        (void)service.request_at(home, movie);
                      });
    }
    injector.cut_link_at(SimTime{offset + 300.0}, g.patra_ioannina);
    injector.restore_link_at(SimTime{offset + 700.0}, g.patra_ioannina);
  }

  [[nodiscard]] RunOutput output() const {
    return RunOutput{
        .sessions_csv = service::report_sessions_csv(service),
        .report = service::format_report(
            service::build_report(service, Mbps{0.0})),
        .metrics_csv = service.metrics_snapshot().to_csv(),
    };
  }

  static service::ServiceOptions options() {
    service::ServiceOptions o;
    o.cluster_size = MegaBytes{10.0};
    o.snmp_interval_seconds = 120.0;
    o.dma.admission_threshold = 1;
    return o;
  }

  grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  service::VodService service;
  fault::FaultInjector injector{sim, service};
};

RunOutput run_grnet_scenario(TraceRecorder* recorder) {
  GrnetRun run;
  run.sim.obs().set_trace(recorder);
  run.start();
  run.sim.run_until(from_hours(3.0));
  return run.output();
}

TEST(ObsIntegration, TracedRunCoversSubsystemsAndChangesNothing) {
  const RunOutput plain = run_grnet_scenario(nullptr);
  TraceRecorder recorder;
  const RunOutput traced = run_grnet_scenario(&recorder);

  // Tracing is observe-only: every externalized artefact is byte-identical.
  EXPECT_EQ(plain.sessions_csv, traced.sessions_csv);
  EXPECT_EQ(plain.report, traced.report);
  EXPECT_EQ(plain.metrics_csv, traced.metrics_csv);

  // The scenario exercises requests, routing, caching, allocation, polling
  // and faults — at least five subsystem tracks carry events.
  EXPECT_GE(recorder.subsystem_count(), 5u);
  EXPECT_FALSE(recorder.events().empty());

  // And a second traced run replays the identical event stream.
  TraceRecorder again;
  (void)run_grnet_scenario(&again);
  EXPECT_EQ(recorder.to_text(), again.to_text());
  EXPECT_EQ(recorder.to_chrome_json(), again.to_chrome_json());
}

TEST(ObsIntegration, ServiceMetricsSnapshotMirrorsComponents) {
  const grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  sim::Simulation sim;
  net::FluidNetwork network{g.topology, traffic};
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  service::VodService service{sim, g.topology, network, options,
                              db::AdminCredential{"obs-admin"}};
  const VideoId movie =
      service.add_video("movie", MegaBytes{20.0}, Mbps{1.5});
  service.place_initial_copy(g.thessaloniki, movie);
  service.start();
  (void)service.request_at(g.patra, movie);
  sim.run_until(from_hours(1.0));

  const MetricsSnapshot snap = service.metrics_snapshot();
  // Registry-backed service counters...
  EXPECT_EQ(snap.value_u64("service.admitted"), service.admitted_count());
  EXPECT_EQ(snap.value_u64("service.sessions_finished"), 1u);
  // ...collector-mirrored component counters...
  EXPECT_EQ(snap.value_u64("snmp.polls"), service.snmp().poll_count());
  EXPECT_EQ(snap.value_u64("fluid.reallocations"),
            network.reallocation_count());
  EXPECT_TRUE(snap.has("vra.graph_hits"));
  EXPECT_TRUE(snap.has("dma.hits"));
  // ...and the session histograms saw the one finished download.
  EXPECT_EQ(snap.histograms().at("session.download_seconds").count, 1u);
}

TEST(ObsIntegration, TraceDropCounterSurfacesInRegistry) {
  const grnet::CaseStudy g = grnet::build_case_study();
  net::NoTraffic traffic;
  TraceRecorder capped{2};  // tiny cap: a service run overflows instantly
  sim::Simulation sim;
  sim.obs().set_trace(&capped);
  net::FluidNetwork network{g.topology, traffic};
  service::ServiceOptions options;
  options.cluster_size = MegaBytes{10.0};
  options.dma.admission_threshold = 1'000'000;
  service::VodService service{sim, g.topology, network, options,
                              db::AdminCredential{"obs-admin"}};
  const VideoId movie =
      service.add_video("movie", MegaBytes{20.0}, Mbps{1.5});
  service.place_initial_copy(g.thessaloniki, movie);
  service.start();
  (void)service.request_at(g.patra, movie);
  sim.run_until(from_hours(1.0));

  const MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_GT(capped.dropped_count(), 0u);
  EXPECT_EQ(snap.value_u64("trace.dropped_events"), capped.dropped_count());
  sim.obs().set_trace(nullptr);
  // With no sink attached the metric still exists and reads zero.
  EXPECT_EQ(service.metrics_snapshot().value_u64("trace.dropped_events"),
            0u);
}

// ---- End to end: telemetry v2 observes without perturbing ----

struct V2Output {
  RunOutput base;
  std::string series_csv;
  std::string series_json;
  std::string slo_json;
  std::vector<std::pair<std::string, std::string>> flight_dumps;
};

/// The GrnetRun storyline with the full v2 stack attached when `observe`
/// is set: series sampler on the service registry, an availability SLO
/// riding the sampling ticks, and a memory-only flight recorder (the link
/// cut triggers a black box).
V2Output run_grnet_v2(bool observe) {
  TimeSeriesRecorder series;
  FlightOptions flight_options;
  flight_options.min_gap = Duration{0.0};
  FlightRecorder flight{flight_options};
  GrnetRun run;

  std::unique_ptr<SloMonitor> slo;
  if (observe) {
    MetricsRegistry& registry = run.service.metrics();
    series.bind_registry(&registry);
    slo = std::make_unique<SloMonitor>(&registry, &run.sim.obs());
    SloSpec spec;
    spec.name = "finish";
    spec.kind = SloSpec::Kind::kAvailabilityFloor;
    spec.good_metric = "service.sessions_finished";
    spec.total_metrics = {"service.sessions_finished",
                          "service.sessions_failed"};
    spec.threshold = 0.99;
    spec.windows = {{Duration{600.0}, 1.0}, {Duration{120.0}, 1.0}};
    slo->add(std::move(spec));
    series.set_on_sample([&slo](SimTime at, const MetricsSnapshot& snap) {
      slo->evaluate(at, snap);
    });
    run.sim.obs().set_series(&series);
    flight.bind_registry(&registry);
    flight.set_config("scenario", "grnet-v2");
    run.sim.obs().set_flight(&flight);
  }
  run.start();
  run.sim.run_until(from_hours(3.0));

  V2Output out;
  out.base = run.output();
  if (observe) {
    out.series_csv = series.to_csv();
    out.series_json = series.to_json();
    out.slo_json = slo->status_json();
    out.flight_dumps = flight.dumps();
  }
  return out;
}

TEST(ObsIntegration, TelemetryV2ObservesWithoutPerturbing) {
  const V2Output plain = run_grnet_v2(false);
  const V2Output observed = run_grnet_v2(true);

  // Observe-only: everything the run externalizes about the simulated
  // world is byte-identical.  (The metrics CSV legitimately gains the
  // slo.finish.breaches counter, so it is compared between v2 runs below,
  // not across the on/off pair.)
  EXPECT_EQ(plain.base.sessions_csv, observed.base.sessions_csv);
  EXPECT_EQ(plain.base.report, observed.base.report);

  // The sampler covered the three-hour run on the 30 s cadence and the
  // link cut left a black box.
  EXPECT_NE(observed.series_csv.find("service.active_sessions"),
            std::string::npos);
  ASSERT_GE(observed.flight_dumps.size(), 1u);
  EXPECT_EQ(observed.flight_dumps[0].first, "fault.link-cut");

  // Determinism: a double run reproduces every v2 artefact byte for byte.
  const V2Output again = run_grnet_v2(true);
  EXPECT_EQ(observed.base.metrics_csv, again.base.metrics_csv);
  EXPECT_EQ(observed.series_csv, again.series_csv);
  EXPECT_EQ(observed.series_json, again.series_json);
  EXPECT_EQ(observed.slo_json, again.slo_json);
  ASSERT_EQ(observed.flight_dumps.size(), again.flight_dumps.size());
  for (std::size_t i = 0; i < observed.flight_dumps.size(); ++i) {
    EXPECT_EQ(observed.flight_dumps[i].first, again.flight_dumps[i].first);
    EXPECT_EQ(observed.flight_dumps[i].second,
              again.flight_dumps[i].second);
  }
}

// ---- Run isolation: two services in one process ----

/// Everything A's run is observed with.  Declared before the runs it
/// watches, so it outlives their contexts.
struct Observers {
  TraceRecorder trace;
  TimeSeriesRecorder series;
  FlightRecorder flight{
      FlightOptions{.min_gap = Duration{0.0}, .dump_path_prefix = {}}};

  void attach(GrnetRun& run) {
    series.bind_registry(&run.service.metrics());
    flight.bind_registry(&run.service.metrics());
    run.sim.obs().set_trace(&trace);
    run.sim.obs().set_series(&series);
    run.sim.obs().set_flight(&flight);
  }
  [[nodiscard]] std::string dumps() const {
    std::string all;
    for (const auto& [reason, json] : flight.dumps()) all += reason + json;
    return all;
  }
};

constexpr double kIsolationStep = 90.0;
constexpr double kIsolationHorizon = 3.0 * 3600.0;

/// Steps `run` alone to the horizon on the interleaved test's grid.
void step_alone(GrnetRun& run) {
  for (double t = kIsolationStep; t <= kIsolationHorizon;
       t += kIsolationStep) {
    run.sim.run_until(SimTime{t});
  }
}

TEST(ObsIsolation, InterleavedRunsNeverSeeEachOther) {
  // References: A alone with the full stack, B alone with a trace.
  Observers alone_a;
  TraceRecorder alone_b;
  {
    GrnetRun a;
    alone_a.attach(a);
    a.start();
    step_alone(a);
  }
  {
    GrnetRun b;
    b.sim.obs().set_trace(&alone_b);
    b.start(45.0);
    step_alone(b);
  }
  ASSERT_GE(alone_a.flight.dump_count(), 1u);  // the link cut fired it
  ASSERT_NE(alone_a.trace.to_text(), alone_b.to_text());

  // Interleaved, either run stepping first: A observed by the full stack,
  // B by its own recorder.
  for (const bool b_first : {false, true}) {
    SCOPED_TRACE(b_first ? "B steps first" : "A steps first");
    Observers observed_a;
    TraceRecorder b_trace;
    GrnetRun a;
    GrnetRun b;
    observed_a.attach(a);
    b.sim.obs().set_trace(&b_trace);
    a.start();
    b.start(45.0);
    for (double t = kIsolationStep; t <= kIsolationHorizon;
         t += kIsolationStep) {
      if (!b_first) a.sim.run_until(SimTime{t});
      const std::size_t events = observed_a.trace.events().size();
      const std::size_t samples = observed_a.series.sample_count();
      const std::size_t ring = observed_a.flight.ring().events().size() +
                               observed_a.flight.ring().overwritten_count();
      const std::size_t dumps = observed_a.flight.dump_count();
      b.sim.run_until(SimTime{t});
      // B's events, clock and instants leave every A sink untouched.
      EXPECT_EQ(observed_a.trace.events().size(), events) << "t=" << t;
      EXPECT_EQ(observed_a.series.sample_count(), samples) << "t=" << t;
      EXPECT_EQ(observed_a.flight.ring().events().size() +
                    observed_a.flight.ring().overwritten_count(),
                ring)
          << "t=" << t;
      EXPECT_EQ(observed_a.flight.dump_count(), dumps) << "t=" << t;
      if (b_first) a.sim.run_until(SimTime{t});
    }

    EXPECT_EQ(observed_a.trace.to_text(), alone_a.trace.to_text());
    EXPECT_EQ(observed_a.series.to_csv(), alone_a.series.to_csv());
    EXPECT_EQ(observed_a.dumps(), alone_a.dumps());
    EXPECT_EQ(b_trace.to_text(), alone_b.to_text());
  }
}

}  // namespace
}  // namespace vod::obs
