#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(SupportedQuantile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(SupportedQuantile(Ramp(1000), 0.99).has_value());
  // Nearest rank 990 of 1..1000.
  EXPECT_DOUBLE_EQ(*SupportedQuantile(Ramp(1000), 0.99), 990.0);
}

TEST(PercentileTest, TwoSamplesSupportNoP99) {
  // The case a serving bench used to print: a p99 of two cold QUERYs.
  EXPECT_FALSE(SupportedQuantile({3.0, 7.0}, 0.99).has_value());
  EXPECT_FALSE(SupportedQuantile({}, 0.5).has_value());
}

TEST(PercentileTest, MedianNeedsTwentySamples) {
  EXPECT_FALSE(SupportedQuantile(Ramp(19), 0.5).has_value());
  ASSERT_TRUE(SupportedQuantile(Ramp(20), 0.5).has_value());
  EXPECT_DOUBLE_EQ(*SupportedQuantile(Ramp(20), 0.5), 10.0);
}

TEST(PercentileTest, MedianOfUnsortedValues) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("expand_p99_ms"));
  EXPECT_TRUE(ValidMetricName("server.residence_us.batch_expand"));
  EXPECT_TRUE(ValidMetricName("0-based.name"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, UnitCharset) {
  for (const char* unit : {"ms", "s", "1/s", "count", "%", "ratio", "MB"}) {
    EXPECT_TRUE(ValidUnit(unit)) << unit;
  }
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("micro seconds"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'u')));
}

RegistrySnapshot Snapshot(const std::string& json) {
  auto doc = bionav::ParseJson(json);
  EXPECT_TRUE(doc.ok());
  RegistrySnapshot snapshot;
  EXPECT_TRUE(ParseRegistry(doc.ValueOrDie(), &snapshot));
  return snapshot;
}

TEST(RegistryDeltaTest, ReadsExactFieldsOnly) {
  RegistrySnapshot s = Snapshot(
      R"({"ok":true,"metrics":{"counters":{"c":5},"gauges":{"g":7},)"
      R"("histograms":{"h":{"count":4,"sum_us":100,"p50_us":2.5,)"
      R"("p95_us":60.0,"p99_us":99.0,"max_us":70}}}})");
  EXPECT_EQ(s.counters.at("c"), 5);
  EXPECT_EQ(s.gauges.at("g"), 7);
  EXPECT_EQ(s.histograms.at("h").count, 4);
  EXPECT_EQ(s.histograms.at("h").sum_us, 100);
}

TEST(RegistryDeltaTest, DeltasOverThePhaseOnly) {
  RegistrySnapshot before = Snapshot(
      R"({"counters":{"hits":10},"gauges":{"wakeups":100},)"
      R"("histograms":{"op":{"count":3,"sum_us":300}}})");
  RegistrySnapshot after = Snapshot(
      R"({"counters":{"hits":25,"new":4},"gauges":{"wakeups":160},)"
      R"("histograms":{"op":{"count":8,"sum_us":1300},"fresh":{"count":2,"sum_us":10}}})");
  EXPECT_EQ(CounterDelta(before, after, "hits"), 15);
  EXPECT_EQ(CounterDelta(before, after, "new"), 4);
  EXPECT_EQ(CounterDelta(before, after, "absent"), 0);
  EXPECT_EQ(MonotoneGaugeDelta(before, after, "wakeups"), 60);
  auto op = HistogramDeltaOf(before, after, "op");
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->count, 5);
  EXPECT_EQ(op->sum_us, 1000);
  EXPECT_DOUBLE_EQ(op->mean_us(), 200.0);  // Warm-up's 3 samples excluded.
  EXPECT_DOUBLE_EQ(HistogramDeltaOf(before, after, "fresh")->mean_us(), 5.0);
  EXPECT_DOUBLE_EQ(HistogramDelta().mean_us(), 0.0);
}

TEST(RegistryDeltaTest, ShrinkingValuesAreRejected) {
  RegistrySnapshot before = Snapshot(
      R"({"counters":{"c":9},"gauges":{"g":5},"histograms":{"h":{"count":4,"sum_us":40}}})");
  RegistrySnapshot after = Snapshot(
      R"({"counters":{"c":2},"gauges":{"g":1},"histograms":{"h":{"count":1,"sum_us":50}}})");
  EXPECT_FALSE(CounterDelta(before, after, "c").has_value());
  EXPECT_FALSE(MonotoneGaugeDelta(before, after, "g").has_value());
  EXPECT_FALSE(HistogramDeltaOf(before, after, "h").has_value());
}

TEST(RegistryDeltaTest, DocumentWithoutRegistryIsRefused) {
  auto doc = bionav::ParseJson(R"({"ok":true})");
  ASSERT_TRUE(doc.ok());
  RegistrySnapshot s;
  EXPECT_FALSE(ParseRegistry(doc.ValueOrDie(), &s));
}

TEST(TrafficTest, PoissonScheduleIsDeterministicPerSeed) {
  std::vector<double> a = PoissonSchedule(42, 150.0, 10.0);
  std::vector<double> b = PoissonSchedule(42, 150.0, 10.0);
  std::vector<double> c = PoissonSchedule(43, 150.0, 10.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 10.0);
  // 1500 expected arrivals; the count is Poisson with sd ~39.
  EXPECT_NEAR(static_cast<double>(a.size()), 1500.0, 200.0);
}

TEST(TrafficTest, PoissonGapsHaveTheRateAsMean) {
  std::vector<double> a = PoissonSchedule(7, 1000.0, 20.0);
  ASSERT_GT(a.size(), 1000u);
  double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT_NEAR(mean_gap, 0.001, 0.0001);
  EXPECT_TRUE(PoissonSchedule(7, 0.0, 10.0).empty());
}

TEST(TrafficTest, ZipfDrawsAreDeterministicAndSkewed) {
  std::vector<size_t> counts(32, 0);
  for (uint64_t i = 0; i < 4000; ++i) {
    size_t v = DrawVariant(5, i, 32, 1.1);
    ASSERT_LT(v, 32u);
    EXPECT_EQ(v, DrawVariant(5, i, 32, 1.1));
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[31] * 4);
  size_t differing = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    differing += DrawVariant(5, i, 32, 1.1) != DrawVariant(6, i, 32, 1.1);
  }
  EXPECT_GT(differing, 50u);
}

TEST(TrafficTest, CyclicDrawsVisitEveryVariantInTurn) {
  size_t first = DrawVariant(9, 0, 40, 0);
  for (uint64_t i = 0; i < 120; ++i) {
    EXPECT_EQ(DrawVariant(9, i, 40, 0), (first + i) % 40);
  }
  EXPECT_EQ(DrawVariant(9, 3, 0, 0), 0u);
}

TEST(TrafficTest, MixedSeedsDifferPerSalt) {
  EXPECT_EQ(MixSeed(1, 2), MixSeed(1, 2));
  EXPECT_NE(MixSeed(1, 2), MixSeed(1, 3));
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 2));
}

}  // namespace
}  // namespace perfbench
