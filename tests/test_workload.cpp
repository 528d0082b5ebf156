#include "workload/catalog_gen.h"
#include "workload/request_gen.h"
#include "workload/zipf.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

namespace vod::workload {
namespace {

TEST(Zipf, ValidatesArguments) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(5, -0.1), std::invalid_argument);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  const ZipfDistribution zipf{50, 1.0};
  double sum = 0.0;
  for (std::size_t k = 0; k < 50; ++k) sum += zipf.probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, ProbabilitiesDecreaseWithRank) {
  const ZipfDistribution zipf{20, 1.0};
  for (std::size_t k = 1; k < 20; ++k) {
    EXPECT_GT(zipf.probability(k - 1), zipf.probability(k));
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  const ZipfDistribution zipf{10, 0.0};
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.probability(k), 0.1, 1e-12);
  }
}

TEST(Zipf, ClassicRatioAtSkewOne) {
  const ZipfDistribution zipf{100, 1.0};
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(9), 10.0, 1e-9);
}

TEST(Zipf, SamplesMatchDistribution) {
  const ZipfDistribution zipf{10, 1.0};
  Rng rng{42};
  std::map<std::size_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.probability(0),
              0.01);
  EXPECT_NEAR(static_cast<double>(counts[4]) / n, zipf.probability(4),
              0.01);
}

TEST(Zipf, SampleAlwaysInRange) {
  const ZipfDistribution zipf{5, 2.0};
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.sample(rng), 5u);
  }
}

TEST(Zipf, ProbabilityOutOfRangeThrows) {
  const ZipfDistribution zipf{5, 1.0};
  EXPECT_THROW((void)zipf.probability(5), std::out_of_range);
}

TEST(CatalogGen, RegistersRequestedCount) {
  db::Database db{db::AdminCredential{"s"}};
  Rng rng{1};
  const auto ids = populate_catalog(db, CatalogSpec{.title_count = 25}, rng);
  EXPECT_EQ(ids.size(), 25u);
  EXPECT_EQ(db.full_view().video_count(), 25u);
}

TEST(CatalogGen, RespectsRanges) {
  db::Database db{db::AdminCredential{"s"}};
  Rng rng{1};
  CatalogSpec spec;
  spec.title_count = 50;
  spec.min_size = MegaBytes{100.0};
  spec.max_size = MegaBytes{200.0};
  spec.min_bitrate = Mbps{2.0};
  spec.max_bitrate = Mbps{4.0};
  for (const VideoId id : populate_catalog(db, spec, rng)) {
    const auto info = db.full_view().video(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_GE(info->size.value(), 100.0);
    EXPECT_LE(info->size.value(), 200.0);
    EXPECT_GE(info->bitrate.value(), 2.0);
    EXPECT_LE(info->bitrate.value(), 4.0);
  }
}

TEST(CatalogGen, DegenerateRangesAllowed) {
  db::Database db{db::AdminCredential{"s"}};
  Rng rng{1};
  CatalogSpec spec;
  spec.title_count = 3;
  spec.min_size = spec.max_size = MegaBytes{700.0};
  spec.min_bitrate = spec.max_bitrate = Mbps{1.5};
  for (const VideoId id : populate_catalog(db, spec, rng)) {
    EXPECT_EQ(db.full_view().video(id)->size, MegaBytes{700.0});
  }
}

TEST(CatalogGen, Validation) {
  db::Database db{db::AdminCredential{"s"}};
  Rng rng{1};
  EXPECT_THROW(populate_catalog(db, CatalogSpec{.title_count = 0}, rng),
               std::invalid_argument);
  CatalogSpec inverted;
  inverted.min_size = MegaBytes{200.0};
  inverted.max_size = MegaBytes{100.0};
  EXPECT_THROW(populate_catalog(db, inverted, rng), std::invalid_argument);
}

TEST(RequestGen, ValidatesConstruction) {
  EXPECT_THROW(RequestGenerator({}, 1.0, {NodeId{0}}),
               std::invalid_argument);
  EXPECT_THROW(RequestGenerator({VideoId{0}}, 1.0, {}),
               std::invalid_argument);
  EXPECT_THROW(
      RequestGenerator({VideoId{0}}, 1.0, {NodeId{0}}, {1.0, 2.0}),
      std::invalid_argument);
}

TEST(RequestGen, PoissonRateApproximatelyHonored) {
  RequestGenerator gen{{VideoId{0}, VideoId{1}}, 1.0,
                       {NodeId{0}, NodeId{1}}};
  Rng rng{5};
  const auto requests = gen.generate(SimTime{0.0}, Duration{10000.0}, 0.5, rng);
  EXPECT_NEAR(static_cast<double>(requests.size()), 5000.0, 300.0);
}

TEST(RequestGen, RequestsWithinWindowAndSorted) {
  RequestGenerator gen{{VideoId{0}}, 1.0, {NodeId{0}}};
  Rng rng{5};
  const auto requests = gen.generate(SimTime{100.0}, Duration{50.0}, 1.0, rng);
  SimTime last{0.0};
  for (const Request& request : requests) {
    EXPECT_GE(request.at.seconds(), 100.0);
    EXPECT_LT(request.at.seconds(), 150.0);
    EXPECT_GE(request.at, last);
    last = request.at;
  }
}

TEST(RequestGen, DeterministicPerSeed) {
  RequestGenerator gen{{VideoId{0}, VideoId{1}, VideoId{2}}, 1.0,
                       {NodeId{0}, NodeId{1}}};
  Rng rng1{9};
  Rng rng2{9};
  const auto a = gen.generate(SimTime{0.0}, Duration{100.0}, 1.0, rng1);
  const auto b = gen.generate(SimTime{0.0}, Duration{100.0}, 1.0, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].home, b[i].home);
    EXPECT_EQ(a[i].video, b[i].video);
  }
}

TEST(RequestGen, GenerateCountExact) {
  RequestGenerator gen{{VideoId{0}, VideoId{1}}, 1.0, {NodeId{0}}};
  Rng rng{3};
  const auto requests =
      gen.generate_count(SimTime{0.0}, Duration{100.0}, 42, rng);
  EXPECT_EQ(requests.size(), 42u);
}

TEST(RequestGen, HomeWeightsHonored) {
  RequestGenerator gen{{VideoId{0}}, 0.0, {NodeId{0}, NodeId{1}},
                       {0.0, 1.0}};
  Rng rng{3};
  for (const Request& request :
       gen.generate_count(SimTime{0.0}, Duration{10.0}, 100, rng)) {
    EXPECT_EQ(request.home, NodeId{1});
  }
}

TEST(RequestGen, DiurnalMeanRateApproximatelyHonored) {
  RequestGenerator gen{{VideoId{0}}, 1.0, {NodeId{0}}};
  Rng rng{13};
  // Two full days at 0.1/s mean: expect ~17280 requests.
  const auto requests = gen.generate_diurnal(
      SimTime{0.0}, Duration{2.0 * 86400.0}, 0.1, 20.0, 3.0, rng);
  EXPECT_NEAR(static_cast<double>(requests.size()), 17280.0, 600.0);
}

TEST(RequestGen, DiurnalPeakBeatsTrough) {
  RequestGenerator gen{{VideoId{0}}, 1.0, {NodeId{0}}};
  Rng rng{13};
  const auto requests = gen.generate_diurnal(
      SimTime{0.0}, Duration{86400.0}, 0.1, 20.0, 4.0, rng);
  int near_peak = 0;
  int near_trough = 0;  // trough at 8h
  for (const Request& request : requests) {
    const double hour = request.at.seconds() / 3600.0;
    if (hour >= 18.0 && hour < 22.0) ++near_peak;
    if (hour >= 6.0 && hour < 10.0) ++near_trough;
  }
  EXPECT_GT(near_peak, 2 * near_trough);
}

TEST(RequestGen, DiurnalSortedAndBounded) {
  RequestGenerator gen{{VideoId{0}}, 1.0, {NodeId{0}}};
  Rng rng{13};
  const auto requests = gen.generate_diurnal(SimTime{1000.0}, Duration{3600.0}, 0.05,
                                             12.0, 2.0, rng);
  SimTime last{0.0};
  for (const Request& request : requests) {
    EXPECT_GE(request.at.seconds(), 1000.0);
    EXPECT_LT(request.at.seconds(), 4600.0);
    EXPECT_GE(request.at, last);
    last = request.at;
  }
}

TEST(RequestGen, DiurnalValidation) {
  RequestGenerator gen{{VideoId{0}}, 1.0, {NodeId{0}}};
  Rng rng{13};
  EXPECT_THROW(
      gen.generate_diurnal(SimTime{0.0}, Duration{10.0}, 0.0, 12.0, 2.0, rng),
      std::invalid_argument);
  EXPECT_THROW(
      gen.generate_diurnal(SimTime{0.0}, Duration{10.0}, 1.0, 24.0, 2.0, rng),
      std::invalid_argument);
  EXPECT_THROW(
      gen.generate_diurnal(SimTime{0.0}, Duration{10.0}, 1.0, 12.0, 0.5, rng),
      std::invalid_argument);
}

TEST(RequestGen, PopularTitlesDominatUnderHighSkew) {
  std::vector<VideoId> videos;
  for (int i = 0; i < 50; ++i) {
    videos.push_back(VideoId{static_cast<VideoId::underlying_type>(i)});
  }
  RequestGenerator gen{videos, 1.2, {NodeId{0}}};
  Rng rng{11};
  int top_five = 0;
  const auto requests = gen.generate_count(SimTime{0.0}, Duration{10.0}, 2000, rng);
  for (const Request& request : requests) {
    if (request.video.value() < 5) ++top_five;
  }
  // Under Zipf(1.2) over 50 titles the top five take the majority.
  EXPECT_GT(top_five, 1000);
}

}  // namespace
}  // namespace vod::workload
