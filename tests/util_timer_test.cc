#include "util/timer.h"

#include <gtest/gtest.h>

namespace bionav {
namespace {

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  int64_t a = t.ElapsedMicros();
  int64_t b = t.ElapsedMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

TEST(Timer, RestartResets) {
  Timer t;
  // Burn a little time so elapsed is very likely non-zero.
  // 64-bit accumulator: the sum (~5e9) overflows int.
  volatile int64_t sink = 0;
  for (int64_t i = 0; i < 100000; ++i) sink = sink + i;
  int64_t before = t.ElapsedMicros();
  t.Restart();
  EXPECT_LE(t.ElapsedMicros(), before + 1000000);
}

TEST(TimingStats, EmptyIsZeroed) {
  TimingStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.sum(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0);
  EXPECT_DOUBLE_EQ(stats.min(), 0);
  EXPECT_DOUBLE_EQ(stats.max(), 0);
}

TEST(TimingStats, AccumulatesMoments) {
  TimingStats stats;
  stats.Add(2.0);
  stats.Add(4.0);
  stats.Add(9.0);
  EXPECT_EQ(stats.count(), 3);
  EXPECT_DOUBLE_EQ(stats.sum(), 15.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(TimingStats, SingleValue) {
  TimingStats stats;
  stats.Add(7.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.5);
  EXPECT_DOUBLE_EQ(stats.min(), 7.5);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
}

TEST(TimingStats, NegativeAndZeroValuesSupported) {
  TimingStats stats;
  stats.Add(0.0);
  stats.Add(-3.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), -1.5);
}

}  // namespace
}  // namespace bionav
