#include <gtest/gtest.h>

#include "stats/series.h"
#include "stats/summary.h"
#include "util/vtime.h"

namespace qa::stats {
namespace {

using util::kMillisecond;

TEST(SummaryTest, BasicAccumulation) {
  Summary s;
  EXPECT_TRUE(s.empty());
  s.Add(10.0);
  s.Add(20.0);
  s.Add(30.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(SummaryTest, PercentilesSorted) {
  Summary s;
  for (int i = 100; i >= 1; --i) s.Add(static_cast<double>(i));
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(95), 95.05, 0.1);
}

TEST(SummaryTest, EmptySummaryIsSafe) {
  Summary s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

TEST(SummaryTest, ToStringMentionsCount) {
  Summary s;
  s.Add(1.0);
  EXPECT_NE(s.ToString().find("n=1"), std::string::npos);
}

TEST(TimeSeriesTest, BucketCounts) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Add(i * 100 * kMillisecond, 1.0);
  }
  std::vector<size_t> counts =
      ts.BucketCounts(500 * kMillisecond, 1000 * kMillisecond);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 5u);
  EXPECT_EQ(counts[1], 5u);
}

TEST(TimeSeriesTest, SamplesOutsideHorizonIgnored) {
  TimeSeries ts;
  ts.Add(2000 * kMillisecond, 1.0);
  std::vector<size_t> counts =
      ts.BucketCounts(500 * kMillisecond, 1000 * kMillisecond);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 0u);
}

}  // namespace
}  // namespace qa::stats
