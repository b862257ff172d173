#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/vtime.h"
#include "workload/poisson.h"
#include "workload/sinusoid.h"
#include "workload/trace.h"
#include "workload/zipf_workload.h"

namespace qa::workload {
namespace {

using util::kMillisecond;
using util::kSecond;

TEST(TraceTest, SortAndMerge) {
  Trace a;
  a.Add({5 * kSecond, 0, 0, 1.0});
  a.Add({1 * kSecond, 0, 0, 1.0});
  a.SortByTime();
  EXPECT_EQ(a[0].time, 1 * kSecond);

  Trace b;
  b.Add({2 * kSecond, 1, 0, 1.0});
  Trace merged = Trace::Merge(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].time, 1 * kSecond);
  EXPECT_EQ(merged[1].time, 2 * kSecond);
  EXPECT_EQ(merged[2].time, 5 * kSecond);
}

TEST(TraceTest, ArrivalCountsBucketsPerClass) {
  Trace t;
  t.Add({100 * kMillisecond, 0, 0, 1.0});
  t.Add({200 * kMillisecond, 0, 0, 1.0});
  t.Add({600 * kMillisecond, 0, 0, 1.0});
  t.Add({100 * kMillisecond, 1, 0, 1.0});
  std::vector<int> counts =
      t.ArrivalCounts(0, 500 * kMillisecond, 1 * kSecond);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
}

TEST(TraceTest, CsvRoundTrip) {
  Trace original;
  original.Add({1500, 3, 7, 0.97});
  original.Add({2500, 1, 2, 1.03});
  std::ostringstream out;
  original.WriteCsv(out);
  std::istringstream in(out.str());
  auto loaded = Trace::ReadCsv(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].time, 1500);
  EXPECT_EQ((*loaded)[0].class_id, 3);
  EXPECT_EQ((*loaded)[0].origin, 7);
  EXPECT_NEAR((*loaded)[0].cost_jitter, 0.97, 1e-9);
}

TEST(TraceTest, CsvRejectsGarbage) {
  std::istringstream no_header("1,2,3,4\n");
  EXPECT_FALSE(Trace::ReadCsv(no_header).ok());
  std::istringstream bad_row("time_us,class,origin,cost_jitter\nnope\n");
  EXPECT_FALSE(Trace::ReadCsv(bad_row).ok());
}

TEST(SinusoidTest, ArrivalCountMatchesIntegratedRate) {
  util::Rng rng(42);
  // 20 s at 0.05 Hz: exactly one full period; mean rate = peak/2.
  Trace t = GenerateSinusoidClass(0, 10.0, 0.05, 0.0, 20 * kSecond, 1, 0.0,
                                  rng);
  // Expected arrivals = mean_rate * duration = 5 * 20 = 100.
  EXPECT_NEAR(static_cast<double>(t.size()), 100.0, 3.0);
}

TEST(SinusoidTest, RateOscillates) {
  util::Rng rng(42);
  Trace t = GenerateSinusoidClass(0, 20.0, 0.05, 0.0, 20 * kSecond, 1, 0.0,
                                  rng);
  // First quarter (sin rising from 0 to peak) must contain more arrivals
  // than the last quarter (sin falling through the trough).
  std::vector<int> counts = t.ArrivalCounts(0, 5 * kSecond, 20 * kSecond);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_GT(counts[0], counts[2]);
}

TEST(SinusoidTest, TwoClassWorkloadShape) {
  SinusoidConfig config;
  config.frequency_hz = 0.05;
  config.q1_peak_rate = 20.0;
  config.duration = 40 * kSecond;
  config.num_origin_nodes = 10;
  util::Rng rng(42);
  Trace t = GenerateSinusoidWorkload(config, rng);

  int q1 = 0;
  int q2 = 0;
  for (const Arrival& a : t.arrivals()) {
    if (a.class_id == 0) ++q1;
    if (a.class_id == 1) ++q2;
    EXPECT_GE(a.origin, 0);
    EXPECT_LT(a.origin, 10);
    EXPECT_GE(a.cost_jitter, 0.95);
    EXPECT_LE(a.cost_jitter, 1.05);
  }
  // Q2 peaks at half Q1's rate => roughly half the arrivals.
  EXPECT_NEAR(static_cast<double>(q1) / q2, 2.0, 0.3);
}

TEST(SinusoidTest, MeanRateFormula) {
  SinusoidConfig config;
  config.q1_peak_rate = 20.0;
  EXPECT_DOUBLE_EQ(SinusoidMeanRate(config), 15.0);
}

TEST(SinusoidTest, PhaseShiftsThePeak) {
  util::Rng rng(42);
  // 0 vs 180 degrees: peaks in opposite halves of the period.
  Trace in_phase = GenerateSinusoidClass(0, 20.0, 0.05, 90.0, 20 * kSecond,
                                         1, 0.0, rng);
  Trace anti_phase = GenerateSinusoidClass(0, 20.0, 0.05, 270.0,
                                           20 * kSecond, 1, 0.0, rng);
  std::vector<int> a = in_phase.ArrivalCounts(0, 10 * kSecond, 20 * kSecond);
  std::vector<int> b =
      anti_phase.ArrivalCounts(0, 10 * kSecond, 20 * kSecond);
  EXPECT_GT(a[0], a[1]);  // peak in first half
  EXPECT_LT(b[0], b[1]);  // peak in second half
}

TEST(ZipfWorkloadTest, SolveUnitHitsTargetMean) {
  int n = 1000;
  double alpha = 1.0;
  util::VDuration cap = 30000 * kMillisecond;
  util::VDuration target = 2000 * kMillisecond;
  double unit = SolveZipfUnit(target, cap, n, alpha);
  // Empirical check via sampling.
  util::Rng rng(42);
  double sum = 0.0;
  const int samples = 50000;
  for (int i = 0; i < samples; ++i) {
    double gap = std::min(unit * static_cast<double>(rng.Zipf(n, alpha)),
                          static_cast<double>(cap));
    sum += gap;
  }
  EXPECT_NEAR(sum / samples, static_cast<double>(target),
              static_cast<double>(target) * 0.05);
}

TEST(ZipfWorkloadTest, GeneratesRequestedQueryCount) {
  ZipfWorkloadConfig config;
  config.num_queries = 2000;
  config.num_classes = 20;
  config.mean_interarrival = 500 * kMillisecond;
  util::Rng rng(42);
  Trace t = GenerateZipfWorkload(config, rng);
  EXPECT_EQ(t.size(), 2000u);
  // Time-ordered.
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i].time, t[i - 1].time);
  }
}

TEST(ZipfWorkloadTest, AllClassesPresent) {
  ZipfWorkloadConfig config;
  config.num_queries = 5000;
  config.num_classes = 20;
  config.mean_interarrival = 200 * kMillisecond;
  util::Rng rng(42);
  Trace t = GenerateZipfWorkload(config, rng);
  std::vector<int> counts(20, 0);
  for (const Arrival& a : t.arrivals()) {
    ASSERT_GE(a.class_id, 0);
    ASSERT_LT(a.class_id, 20);
    ++counts[static_cast<size_t>(a.class_id)];
  }
  for (int c = 0; c < 20; ++c) EXPECT_GT(counts[static_cast<size_t>(c)], 0);
}

TEST(ZipfWorkloadTest, GapsRespectCap) {
  ZipfWorkloadConfig config;
  config.num_queries = 500;
  config.num_classes = 1;
  config.mean_interarrival = 10000 * kMillisecond;
  config.max_interarrival = 30000 * kMillisecond;
  util::Rng rng(42);
  Trace t = GenerateZipfWorkload(config, rng);
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i].time - t[i - 1].time, config.max_interarrival);
  }
}

TEST(ZipfWorkloadTest, SmallerMeanIsHeavierLoad) {
  ZipfWorkloadConfig heavy;
  heavy.num_queries = 1000;
  heavy.mean_interarrival = 100 * kMillisecond;
  ZipfWorkloadConfig light = heavy;
  light.mean_interarrival = 5000 * kMillisecond;
  util::Rng rng1(42);
  util::Rng rng2(42);
  Trace t_heavy = GenerateZipfWorkload(heavy, rng1);
  Trace t_light = GenerateZipfWorkload(light, rng2);
  EXPECT_LT(t_heavy.LastArrivalTime(), t_light.LastArrivalTime());
}

TEST(PoissonWorkloadTest, MeanRateCorrect) {
  PoissonWorkloadConfig config;
  config.num_queries = 5000;
  config.mean_interarrival = 100 * kMillisecond;
  util::Rng rng(42);
  Trace t = GeneratePoissonWorkload(config, rng);
  double mean_gap = static_cast<double>(t.LastArrivalTime()) / 5000.0;
  EXPECT_NEAR(mean_gap, static_cast<double>(config.mean_interarrival),
              static_cast<double>(config.mean_interarrival) * 0.05);
}

}  // namespace
}  // namespace qa::workload
