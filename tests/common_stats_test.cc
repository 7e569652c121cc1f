#include "common/stats.h"

#include <gtest/gtest.h>

namespace dfi {
namespace {

TEST(LatencyRecorderTest, QuantilesOfKnownDistribution) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Record(i);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.Max(), 100);
  EXPECT_NEAR(rec.Median(), 50, 1);
  EXPECT_NEAR(rec.Quantile(0.95), 95, 1);
  EXPECT_DOUBLE_EQ(rec.Mean(), 50.5);
}

TEST(LatencyRecorderTest, RecordAfterQuantileResorts) {
  LatencyRecorder rec;
  rec.Record(10);
  rec.Record(20);
  EXPECT_EQ(rec.Median(), 15);
  rec.Record(100);
  EXPECT_EQ(rec.Max(), 100);
}

TEST(LatencyRecorderTest, Merge) {
  LatencyRecorder a, b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.Max(), 3);
}

TEST(LatencyRecorderTest, SingleSample) {
  LatencyRecorder rec;
  rec.Record(42);
  EXPECT_EQ(rec.Quantile(0.0), 42);
  EXPECT_EQ(rec.Quantile(1.0), 42);
  EXPECT_EQ(rec.Median(), 42);
}

TEST(RunningStatTest, Accumulates) {
  RunningStat s;
  s.Add(2.0);
  s.Add(4.0);
  s.Add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(RunningStatTest, EmptyMeanIsZero) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace dfi
