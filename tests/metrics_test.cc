// Locks the obs/metrics subsystem: catalog/enum agreement, log-bucketed
// histogram boundary arithmetic, hand-computed watchdog scenarios (oscillation trip, starvation trip, non-convergence
// trip, steady-state silence, rising-edge latching), the collector's JSONL
// stream round-tripped through the same reader the tools use, and an
// end-to-end federation run proving the metrics side channel never
// perturbs simulation results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/experiment_runner.h"
#include "obs/metrics/catalog.h"
#include "obs/metrics/collector.h"
#include "obs/metrics/metrics_reader.h"
#include "obs/metrics/watchdog.h"
#include "obs/snapshot.h"
#include "sim/metrics_json.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "workload/sinusoid.h"

namespace qa::obs::metrics {
namespace {

using util::kMillisecond;
using util::kSecond;

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, EnumAndTableAgree) {
  ASSERT_EQ(Catalog().size(), static_cast<size_t>(kMetricCount));
  // Every name resolves back to its own dense id (the enum order IS the
  // table order).
  for (size_t i = 0; i < Catalog().size(); ++i) {
    EXPECT_EQ(MetricId(Catalog()[i].name), static_cast<int>(i))
        << Catalog()[i].name;
    EXPECT_FALSE(std::string(Catalog()[i].help).empty());
  }
  // Deliberately unregistered name: the negative-lookup case.
  // qa-lint: allow(QA-OBS-003)
  EXPECT_EQ(MetricId("qa_not_a_metric"), -1);
}

TEST(CatalogTest, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const MetricDef& def : Catalog()) names.insert(def.name);
  EXPECT_EQ(names.size(), Catalog().size());
}

TEST(CatalogTest, PhaseMetricMapsEveryPhaseOntoItsHistogram) {
  EXPECT_EQ(Collector::PhaseMetric(Phase::kRunTotal), kPhaseRunTotal);
  EXPECT_EQ(Collector::PhaseMetric(Phase::kLaneDrain), kPhaseLaneDrain);
  EXPECT_EQ(Collector::PhaseMetric(Phase::kBidScan), kPhaseBidScan);
  EXPECT_EQ(Collector::PhaseMetric(Phase::kMediatorDispatch),
            kPhaseMediatorDispatch);
}

// ---------------------------------------------------------------------------
// Histogram buckets
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 catches zero and negatives.
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(-17), 0);
  // Bucket b >= 1 holds [2^(b-1), 2^b - 1]: hand-checked low buckets.
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(8), 4);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  // The top bucket absorbs everything past 2^46.
  EXPECT_EQ(Histogram::BucketOf(int64_t{1} << 46), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketOf(INT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, BoundsRoundTripThroughBucketOf) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0);
  for (int b = 1; b < Histogram::kBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketLowerBound(b), int64_t{1} << (b - 1)) << b;
    // Both edges of every bucket land back in that bucket: the upper edge
    // is one below the next bucket's lower bound.
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(b)), b);
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(b + 1) - 1),
              b);
  }
}

TEST(HistogramTest, RecordTracksCountSumMinMaxMean) {
  Histogram h;
  h.Record(5);
  h.Record(1);
  h.Record(6);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 12);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 6);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[3], 2u);  // 5 and 6
}

// ---------------------------------------------------------------------------
// Watchdogs — hand-computed scenarios
// ---------------------------------------------------------------------------

constexpr util::VTime kPeriod = 500 * kMillisecond;  // 500ms periods

/// A QA-NT-like market probe with one single-class agent per entry of
/// `prices`; `earnings` (when given) are assigned positionally.
MarketProbe Snap(const std::vector<double>& prices,
                 const std::vector<double>& earnings = {}) {
  MarketProbe probe;
  probe.num_classes = 1;
  probe.prices = prices;
  for (size_t i = 0; i < prices.size(); ++i) {
    probe.earnings.push_back(i < earnings.size() ? earnings[i] : 0.0);
  }
  return probe;
}

TEST(WatchdogTest, StarvationTripsLatchesAndRearms) {
  WatchdogSuite suite(kPeriod);
  // SLA = 4 periods = 2000ms. A 2500ms sojourn is starvation.
  suite.ObserveRejectSojourn(0, 2500 * kMillisecond);
  std::vector<AlarmRecord> alarms =
      suite.EvaluatePeriod(1, 1 * kSecond, MarketProbe{});
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].watchdog, "starvation");
  EXPECT_EQ(alarms[0].class_id, 0);
  EXPECT_DOUBLE_EQ(alarms[0].value, 2500.0);     // ms
  EXPECT_DOUBLE_EQ(alarms[0].threshold, 2000.0);  // ms
  EXPECT_EQ(alarms[0].period, 1);
  EXPECT_DOUBLE_EQ(suite.max_reject_age_ms(), 2500.0);

  // Still starving: the latch holds, no repeat alarm.
  suite.ObserveRejectSojourn(0, 3000 * kMillisecond);
  EXPECT_TRUE(
      suite.EvaluatePeriod(2, 2 * kSecond, MarketProbe{}).empty());

  // A healthy period clears the latch...
  suite.ObserveRejectSojourn(0, 100 * kMillisecond);
  EXPECT_TRUE(
      suite.EvaluatePeriod(3, 3 * kSecond, MarketProbe{}).empty());
  EXPECT_DOUBLE_EQ(suite.max_reject_age_ms(), 100.0);

  // ...so the next episode alarms again (rising edge, once per episode).
  suite.ObserveRejectSojourn(0, 2500 * kMillisecond);
  EXPECT_EQ(
      suite.EvaluatePeriod(4, 4 * kSecond, MarketProbe{}).size(), 1u);
}

TEST(WatchdogTest, OscillationTripsAfterAFullWindow) {
  // Window 6, flip threshold 0.6, amplitude 0.02.
  WatchdogSuite suite(kPeriod);
  // One agent whose price alternates 1.0 <-> 1.5: every consecutive
  // mean-ln(price) delta is +/-ln(1.5) ~= 0.405, so all 5 of 5 delta pairs
  // flip sign (rate 1.0 >= 0.6) with amplitude 0.405 >= 0.02. The detector
  // needs window+1 = 7 means before it can judge, so the alarm lands
  // exactly on the 7th evaluation.
  std::vector<AlarmRecord> all;
  for (int p = 0; p < 7; ++p) {
    double price = (p % 2 == 0) ? 1.0 : 1.5;
    std::vector<AlarmRecord> alarms =
        suite.EvaluatePeriod(p, p * kPeriod, Snap({price}));
    if (p < 6) {
      EXPECT_TRUE(alarms.empty()) << "period " << p;
    }
    all.insert(all.end(), alarms.begin(), alarms.end());
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].watchdog, "oscillation");
  EXPECT_EQ(all[0].class_id, 0);
  EXPECT_DOUBLE_EQ(all[0].value, 1.0);  // flip rate
  EXPECT_DOUBLE_EQ(all[0].threshold, 0.6);
  EXPECT_DOUBLE_EQ(suite.osc_flip_rate(), 1.0);
  // The oscillation persists: latched, no second alarm.
  EXPECT_TRUE(suite.EvaluatePeriod(7, 7 * kPeriod, Snap({1.0})).empty());
}

TEST(WatchdogTest, NonConvergenceTripsWhenVarianceHoldsAboveFloor) {
  WatchdogSuite suite(kPeriod);
  // Two agents stuck at prices 1.0 and 2.0: cross-node ln-price variance
  // is (ln2/2)^2 ~= 0.12 every period — above the 1e-3 floor and never
  // decreasing. After window = 6 periods the detector fires. The means
  // never move, so oscillation stays quiet.
  const double expected_var = std::pow(std::log(2.0) / 2.0, 2.0);
  std::vector<AlarmRecord> all;
  for (int p = 0; p < 6; ++p) {
    std::vector<AlarmRecord> alarms =
        suite.EvaluatePeriod(p, p * kPeriod, Snap({1.0, 2.0}));
    if (p < 5) {
      EXPECT_TRUE(alarms.empty()) << "period " << p;
    }
    all.insert(all.end(), alarms.begin(), alarms.end());
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].watchdog, "nonconvergence");
  EXPECT_EQ(all[0].class_id, 0);
  EXPECT_NEAR(all[0].value, expected_var, 1e-12);
  EXPECT_DOUBLE_EQ(all[0].threshold, 1e-3);
  EXPECT_NEAR(suite.log_price_variance(), expected_var, 1e-12);
  // Latched while the market stays dispersed.
  EXPECT_TRUE(
      suite.EvaluatePeriod(6, 6 * kPeriod, Snap({1.0, 2.0})).empty());
}

TEST(WatchdogTest, SteadyStateNeverTrips) {
  WatchdogSuite suite(kPeriod);
  // A settled market: every node quotes 1.3, rejects age well under the
  // SLA. Ten periods, zero alarms — and the fairness gauge reads the
  // hand-computed CV of earnings {1, 3}: mean 2, stddev 1, CV 0.5.
  for (int p = 0; p < 10; ++p) {
    suite.ObserveRejectSojourn(0, 50 * kMillisecond);
    EXPECT_TRUE(
        suite.EvaluatePeriod(p, p * kPeriod, Snap({1.3, 1.3}, {1.0, 3.0}))
            .empty())
        << "period " << p;
  }
  EXPECT_DOUBLE_EQ(suite.log_price_variance(), 0.0);
  EXPECT_DOUBLE_EQ(suite.osc_flip_rate(), 0.0);
  EXPECT_DOUBLE_EQ(suite.earnings_cv(), 0.5);
  EXPECT_DOUBLE_EQ(suite.max_reject_age_ms(), 50.0);
}

TEST(WatchdogTest, SnapshotsWithoutAgentsSkipPriceDetectors) {
  WatchdogSuite suite(kPeriod);
  // Non-market mechanisms expose no agent state: only starvation can fire.
  MarketProbe bare;
  for (int p = 0; p < 10; ++p) {
    EXPECT_TRUE(suite.EvaluatePeriod(p, p * kPeriod, bare).empty());
  }
  EXPECT_DOUBLE_EQ(suite.log_price_variance(), 0.0);
  EXPECT_DOUBLE_EQ(suite.earnings_cv(), 0.0);
}

// ---------------------------------------------------------------------------
// Collector stream <-> reader round trip
// ---------------------------------------------------------------------------

TEST(CollectorTest, StreamRoundTripsThroughTheReader) {
  std::ostringstream sink;
  {
    Collector collector(&sink);
    RunMeta meta;
    meta.mechanism = "QA-NT";
    meta.nodes = 8;
    meta.shards = 4;
    meta.threads = 2;
    meta.seed = 7;
    meta.period_us = kPeriod;
    collector.BeginRun(meta);
    collector.SetNumLanes(3);
    collector.RecordPhase(Phase::kAllocate, 1500);
    collector.RecordQueueDepth(3);
    collector.RecordLaneDrain(1, 2000, 10);

    SampleRow row;
    row.t_us = kPeriod;
    row.period = 1;
    row.ticks = 2;
    row.events_dispatched = 100;
    row.completed = 30;
    row.messages = 40;
    row.outstanding = 5;
    row.log_price_variance = 0.25;
    collector.Sample(row);

    AlarmRecord alarm;
    alarm.t_us = kPeriod;
    alarm.period = 1;
    alarm.watchdog = "oscillation";
    alarm.class_id = 1;
    alarm.value = 0.8;
    alarm.threshold = 0.6;
    alarm.detail = "test alarm";
    collector.Alarm(alarm);

    collector.Finish();
    collector.Finish();  // idempotent: no second mstat block below
  }

  util::StatusOr<ParsedMetrics> parsed = ParsedMetrics::Parse(sink.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ParsedMetrics& m = parsed.value();

  EXPECT_EQ(m.meta.GetString("mechanism", ""), "QA-NT");
  EXPECT_EQ(m.meta.GetInt("shards", 0), 4);
  EXPECT_EQ(m.meta.GetInt("threads", 0), 2);
  EXPECT_EQ(m.meta.GetInt("period_us", 0), kPeriod);

  ASSERT_EQ(m.samples.size(), 1u);
  EXPECT_EQ(m.samples[0].GetInt("events", 0), 100);
  EXPECT_EQ(m.samples[0].GetInt("messages", 0), 40);
  EXPECT_EQ(m.samples[0].GetInt("outstanding", 0), 5);
  EXPECT_DOUBLE_EQ(m.samples[0].GetDouble("log_price_var", 0.0), 0.25);

  ASSERT_EQ(m.alarms.size(), 1u);
  EXPECT_EQ(m.alarms[0].watchdog, "oscillation");
  EXPECT_EQ(m.alarms[0].class_id, 1);
  EXPECT_DOUBLE_EQ(m.alarms[0].value, 0.8);
  EXPECT_EQ(m.alarms[0].detail, "test alarm");

  // Exactly one mstat per catalog histogram, in catalog order (double
  // Finish would double them). Counts are not among them: the msample row
  // above is their only rendering.
  ASSERT_EQ(m.stats.size(), static_cast<size_t>(kMetricCount));
  for (size_t i = 0; i < m.stats.size(); ++i) {
    EXPECT_EQ(m.stats[i].name, Catalog()[i].name);
  }
  const MetricStat* depth = m.FindStat("qa_node_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, 1u);
  EXPECT_EQ(depth->max, 3);
  const MetricStat* allocate = m.FindStat("qa_phase_allocate_ns");
  ASSERT_NE(allocate, nullptr);
  EXPECT_EQ(allocate->count, 1u);
  EXPECT_EQ(allocate->sum, 1500);
  EXPECT_EQ(allocate->min, 1500);
  EXPECT_EQ(allocate->max, 1500);
  EXPECT_EQ(m.FindStat("qa_not_a_metric"), nullptr);

  ASSERT_EQ(m.lane_drain_ns.size(), 3u);
  EXPECT_EQ(m.lane_drain_ns[1], 2000);
  ASSERT_EQ(m.lane_events.size(), 3u);
  EXPECT_EQ(m.lane_events[1], 10);
}

TEST(CollectorTest, PerfJsonSummarizesPhasesQueueDepthAndLanes) {
  Collector collector;  // collect-only
  collector.SetNumLanes(2);
  collector.RecordPhase(Phase::kRunTotal, 4000);
  collector.RecordQueueDepth(1);
  collector.RecordQueueDepth(4);
  collector.RecordLaneDrain(0, 1000, 4);
  collector.RecordLaneDrain(1, 3000, 12);
  Json perf = collector.PerfJson();
  // max/mean of {1000, 3000} = 3000/2000 = 1.5.
  EXPECT_DOUBLE_EQ(perf.GetDouble("lane_imbalance", 0.0), 1.5);
  const Json* phases = perf.Find("phases");
  ASSERT_NE(phases, nullptr);
  const Json* run_total = phases->Find("qa_phase_run_total_ns");
  ASSERT_NE(run_total, nullptr);
  EXPECT_EQ(run_total->GetInt("count", 0), 1);
  // The queue depth is a count, not a phase: its own row.
  EXPECT_EQ(phases->Find("qa_node_queue_depth"), nullptr);
  const Json* depth = perf.Find("queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->GetInt("observations", 0), 2);
  EXPECT_DOUBLE_EQ(depth->GetDouble("mean", 0.0), 2.5);
  EXPECT_EQ(depth->GetInt("max", 0), 4);
}

TEST(MetricsReaderTest, UnknownRecordTypeIsAnError) {
  util::StatusOr<ParsedMetrics> parsed =
      ParsedMetrics::Parse("{\"type\":\"bogus\"}\n");
  EXPECT_FALSE(parsed.ok());
}

// ---------------------------------------------------------------------------
// Null-probe contract
// ---------------------------------------------------------------------------

TEST(MetricsGateTest, NullProbeNeverRunsAndLiveCollectorWrites) {
  // The QA_METRICS gate: a null collector skips the probe body entirely.
  Collector* null_collector = nullptr;
  bool ran = false;
  QA_METRICS(null_collector) { ran = true; }
  EXPECT_FALSE(ran);

  std::ostringstream sink;
  {
    Collector collector(&sink);
    RunMeta meta;
    meta.mechanism = "QA-NT";
    collector.BeginRun(meta);
    SampleRow row;
    row.events_dispatched = 1;
    collector.Sample(row);
    collector.Finish();
  }
  EXPECT_FALSE(sink.str().empty());
}

// ---------------------------------------------------------------------------
// End to end: a real federation run with the collector attached
// ---------------------------------------------------------------------------

sim::SimMetrics RunSmallScenario(Collector* collector,
                                 std::string* metrics_json) {
  util::Rng rng(11);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = 6;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.2;
  workload.duration = 6 * kSecond;
  workload.num_origin_nodes = 6;
  workload.q1_peak_rate = 6.0;
  util::Rng wl_rng(12);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);

  exec::RunSpec spec;
  spec.cost_model = model.get();
  spec.mechanism = "QA-NT";
  spec.trace = &trace;
  spec.period = kPeriod;
  spec.seed = 11;
  spec.config.metrics = collector;
  sim::SimMetrics metrics = exec::RunSpecOnce(spec).metrics;
  *metrics_json = sim::MetricsToJson(metrics).Dump();
  return metrics;
}

TEST(MetricsEndToEndTest, CollectorNeverPerturbsTheSimulation) {
  std::string with_json, without_json;
  std::ostringstream sink;
  Collector collector(&sink);
  sim::SimMetrics with_metrics = RunSmallScenario(&collector, &with_json);
  collector.Finish();
  RunSmallScenario(nullptr, &without_json);
  // The metrics side channel reads sim state; it never feeds it.
  EXPECT_EQ(with_json, without_json);

  util::StatusOr<ParsedMetrics> parsed = ParsedMetrics::Parse(sink.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ParsedMetrics& m = parsed.value();
  // One sample per global period plus the final row; cumulative counters
  // in the last sample mirror the run's own metrics exactly.
  ASSERT_GE(m.samples.size(), 2u);
  const Json& last = m.samples.back();
  EXPECT_EQ(last.GetInt("events", -1), with_metrics.events_dispatched);
  EXPECT_EQ(last.GetInt("completed", -1), with_metrics.completed);
  EXPECT_EQ(last.GetInt("messages", -1), with_metrics.messages);
  EXPECT_EQ(last.GetInt("solicited", -1), with_metrics.solicited);
  EXPECT_EQ(last.GetInt("outstanding", -1), 0);  // Run drains everything
  // The trailing stats block is complete, and the timed phases that every
  // run passes through actually recorded wall time.
  EXPECT_EQ(m.stats.size(), static_cast<size_t>(kMetricCount));
  const MetricStat* run_total = m.FindStat("qa_phase_run_total_ns");
  ASSERT_NE(run_total, nullptr);
  EXPECT_EQ(run_total->count, 1u);
  EXPECT_GT(run_total->sum, 0);
  const MetricStat* allocate = m.FindStat("qa_phase_allocate_ns");
  ASSERT_NE(allocate, nullptr);
  EXPECT_GT(allocate->count, 0u);
  EXPECT_GT(last.GetInt("ticks", 0), 0);
  // Every sample observes each of the 6 nodes' queue once.
  const MetricStat* depth = m.FindStat("qa_node_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, 6 * m.samples.size());
}

}  // namespace
}  // namespace qa::obs::metrics
