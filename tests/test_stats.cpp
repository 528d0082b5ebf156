#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace vod {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  const OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats stats;
  stats.add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic textbook set
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStats, NegativeValues) {
  OnlineStats stats;
  stats.add(-3.0);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
}

TEST(OnlineStats, MatchesDirectComputationOnRandomData) {
  Rng rng{5};
  OnlineStats stats;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    values.push_back(v);
    stats.add(v);
  }
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / values.size();
  double m2 = 0.0;
  for (const double v : values) m2 += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), m2 / values.size(), 1e-6);
}

TEST(SampleSet, QuantilesNearestRank) {
  SampleSet samples;
  for (int i = 1; i <= 10; ++i) samples.add(i);
  EXPECT_DOUBLE_EQ(samples.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(samples.median(), 5.0);
  EXPECT_DOUBLE_EQ(samples.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(samples.quantile(1.0), 10.0);
}

TEST(SampleSet, UnsortedInsertOrderIrrelevant) {
  SampleSet samples;
  for (const double v : {9.0, 1.0, 5.0, 3.0, 7.0}) samples.add(v);
  EXPECT_DOUBLE_EQ(samples.median(), 5.0);
  samples.add(0.5);  // adding after a quantile query works
  EXPECT_DOUBLE_EQ(samples.quantile(0.0), 0.5);
}

TEST(SampleSet, MeanAndCount) {
  SampleSet samples;
  samples.add(2.0);
  samples.add(4.0);
  EXPECT_EQ(samples.count(), 2u);
  EXPECT_DOUBLE_EQ(samples.mean(), 3.0);
}

TEST(SampleSet, Validation) {
  SampleSet samples;
  EXPECT_THROW((void)samples.quantile(0.5), std::logic_error);
  samples.add(1.0);
  EXPECT_THROW((void)samples.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)samples.quantile(1.1), std::invalid_argument);
}

}  // namespace
}  // namespace vod
