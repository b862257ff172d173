#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "allocation/cluster_plan.h"
#include "cli.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"
#include "gate.h"
#include "obs/json.h"
#include "report.h"
#include "sim/scenario.h"
#include "stats.h"
#include "tracer.h"
#include "workload/sinusoid.h"
#include "workloads.h"

namespace qa::bench {
namespace {

using util::kMillisecond;
using util::kSecond;

// ------------------------------------------------------ quantiles / IQR

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // Expected values are statistics.quantiles(data, n=4) in CPython 3.11.
  Quartiles ten = ComputeQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  EXPECT_EQ(ten.n, 10u);

  Quartiles two = ComputeQuartiles({3, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.median, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);

  Quartiles three = ComputeQuartiles({5, 1, 2});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.median, 2.0);
  EXPECT_DOUBLE_EQ(three.q3, 5.0);
}

TEST(QuartilesTest, DegenerateSamples) {
  Quartiles one = ComputeQuartiles({4.5});
  EXPECT_DOUBLE_EQ(one.q1, 4.5);
  EXPECT_DOUBLE_EQ(one.median, 4.5);
  EXPECT_DOUBLE_EQ(one.q3, 4.5);
  Quartiles none = ComputeQuartiles({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.median, 0.0);
}

TEST(LogHistogramTest, PercentilesWithinOneSubBucket) {
  LogHistogram hist;
  for (int64_t ns = 1; ns <= 100000; ++ns) hist.Add(ns);
  EXPECT_EQ(hist.count(), 100000);
  EXPECT_EQ(hist.sum_ns(), int64_t{100000} * 100001 / 2);
  EXPECT_NEAR(hist.Percentile(50), 50000.0, 50000.0 * 0.125);
  EXPECT_NEAR(hist.Percentile(99), 99000.0, 99000.0 * 0.125);
  LogHistogram small;
  for (int64_t ns : {3, 3, 5}) small.Add(ns);
  EXPECT_DOUBLE_EQ(small.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(small.Percentile(100), 5.0);
}

// ------------------------------------------------------------ self time

Span MakeSpan(int id, int parent, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, NestedAndOverlappingChildren) {
  std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 100),
      MakeSpan(1, 0, 10, 30),   // overlaps span 2
      MakeSpan(2, 0, 20, 50),
      MakeSpan(3, 0, 40, 45),   // nested inside span 2
      MakeSpan(4, 0, 90, 120),  // runs past its parent's end
      MakeSpan(5, 1, 12, 14),   // grandchild: not subtracted from span 0
  };
  // Children cover [10, 50) and [90, 100): 50 of the parent's 100 ns.
  EXPECT_EQ(SelfNanos(spans, 0), 50);
  EXPECT_EQ(SelfNanos(spans, 0, /*aggregated_child_ns=*/5), 45);
  EXPECT_EQ(SelfNanos(spans, 1), 18);
  EXPECT_EQ(SelfNanos(spans, 5), 2);
  EXPECT_EQ(UnionNanos({{0, 10}, {5, 15}, {30, 40}}, 0, 35), 20);
  EXPECT_EQ(UnionNanos({}, 0, 10), 0);
}

// ------------------------------------------------ pooled percentile count

sim::SimMetrics WithResponses(int first, int count) {
  sim::SimMetrics metrics;
  for (int i = 0; i < count; ++i) {
    metrics.response_time_ms.Add(static_cast<double>(first + i));
  }
  metrics.arrivals = metrics.completed = count;
  return metrics;
}

TEST(PooledPercentileTest, ThousandPooledSamplesLeaveTenBeyondP99) {
  Outcome outcome;
  for (int run = 0; run < 4; ++run) outcome.Add(WithResponses(run * 250, 250));
  ASSERT_EQ(outcome.response_ms.size(), 1000u);
  EXPECT_EQ(outcome.arrivals, 1000);
  EXPECT_EQ(SamplesBeyondPercentile(outcome.response_ms, 99), 10);
  EXPECT_EQ(SamplesBeyondPercentile(outcome.response_ms, 50), 500);
  EXPECT_TRUE(outcome.violations.empty());
}

TEST(GateTest, AccountingViolationsAreReported) {
  sim::SimMetrics metrics = WithResponses(0, 10);
  EXPECT_TRUE(CheckAccounting(metrics).empty());
  metrics.arrivals = 11;
  metrics.expired = 1;
  metrics.shed = 2;
  metrics.admission_rejects = 3;
  EXPECT_EQ(CheckAccounting(metrics).size(), 3u);
}

// ------------------------------------------------- decorator transparency

class TransparencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(kTestbedSeed);
    sim::TwoClassConfig config;
    config.num_nodes = 20;
    model_ = sim::BuildTwoClassCostModel(config, rng);
    workload::SinusoidConfig wave;
    wave.q1_peak_rate = 20.0;
    wave.frequency_hz = 0.1;
    wave.duration = 20 * kSecond;
    wave.num_origin_nodes = 20;
    util::Rng wave_rng(7);
    trace_ = workload::GenerateSinusoidWorkload(wave, wave_rng);
  }

  exec::RunSpec Spec(const std::string& mechanism) const {
    exec::RunSpec spec;
    spec.cost_model = model_.get();
    spec.mechanism = mechanism;
    spec.trace = &trace_;
    spec.period = 500 * kMillisecond;
    spec.seed = 11;
    return spec;
  }

  std::vector<exec::RunSpec> Fixtures(const util::TaskRunner* runner) const {
    exec::RunSpec flat = Spec("QA-NT");
    // A fractional surge draws from an RNG seeded by config.seed, which
    // RunSpecOnce sets from spec.seed: the traced path must do the same.
    flat.config.faults.surges.push_back({sim::faults::SurgeFault::kAllClasses,
                                         5 * kSecond, 10 * kSecond, 2.5});
    exec::RunSpec hier = Spec("QA-NT");
    hier.config.solicitation.policy =
        allocation::SolicitationPolicy::kUniformSample;
    hier.config.solicitation.fanout = 3;
    hier.config.cluster_plan = allocation::ClusterPlan::Uniform(20, 4, 2);
    exec::RunSpec sharded = Spec("QA-NT");
    sharded.config.shards = 4;
    sharded.config.runner = runner;
    return {flat, hier, sharded, Spec("Greedy")};
  }

  static std::string Fingerprint(const sim::SimMetrics& metrics) {
    Outcome outcome;
    outcome.Add(metrics);
    return outcome.fingerprint;
  }

  std::unique_ptr<query::MatrixCostModel> model_;
  workload::Trace trace_;
};

TEST_F(TransparencyTest, TracedRunSpecMatchesRunSpecOnce) {
  exec::ThreadPool pool(2);
  exec::PoolRunner runner(&pool);
  std::vector<exec::RunSpec> specs = Fixtures(&runner);
  for (size_t i = 0; i < specs.size(); ++i) {
    Tracer tracer;
    std::string expected = Fingerprint(exec::RunSpecOnce(specs[i]).metrics);
    std::string traced =
        Fingerprint(TracedRunSpec(specs[i], &tracer, -1, static_cast<int>(i)));
    EXPECT_EQ(traced, expected) << "fixture " << i;
    EXPECT_GT(tracer.calls("allocation.allocate").count(), 0) << "fixture " << i;
    EXPECT_GT(tracer.counter("query.cost_calls"), 0.0) << "fixture " << i;
  }
}

TEST_F(TransparencyTest, TracedGridMatchesExperimentRunner) {
  std::vector<exec::RunSpec> specs = Fixtures(nullptr);
  std::vector<exec::RunResult> expected = exec::ExperimentRunner(2).Run(specs);
  Tracer tracer;
  std::vector<sim::SimMetrics> traced = TracedGrid(specs, 2, &tracer, -1);
  ASSERT_EQ(traced.size(), expected.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(Fingerprint(traced[i]), Fingerprint(expected[i].metrics))
        << "cell " << i;
  }
  EXPECT_GT(tracer.counter("exec.cell_busy_s"), 0.0);
  EXPECT_GE(SpanCoveragePct(tracer), 0.0);
}

// ------------------------------------------------------------------ CLI

TEST(CliTest, AcceptsBothFlagSpellings) {
  util::StatusOr<Options> options = ParseOptions(
      {"--workload", "paper100", "--seed=7", "--seconds", "3", "--trace=1"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->workload, "paper100");
  EXPECT_EQ(options->seed, 7u);
  EXPECT_EQ(options->seconds, 3);
  EXPECT_TRUE(options->traced);
  EXPECT_FALSE(options->smoke);
  ASSERT_TRUE(ParseOptions({"--workload=minidb5", "--traced", "--smoke"}).ok());
}

TEST(CliTest, RejectsUnknownAndMalformedFlags) {
  for (std::vector<std::string> args : std::vector<std::vector<std::string>>{
           {"--workload=paper100", "--sed=1"},
           {"--workload=paper100", "--seed=abc"},
           {"--workload=paper100", "--seed=12x"},
           {"--workload=paper100", "--seed=-1"},
           {"--workload=paper100", "--seconds=0"},
           {"--workload=paper100", "--trace=2"},
           {"--workload=paper100", "--seed"},
           {"--workload=paper100", "--smoke=1"},
           {"--workload=paper100", "stray"},
           {"--seed=1"},
       }) {
    EXPECT_FALSE(ParseOptions(args).ok()) << args.back();
  }
}

// -------------------------------------------------- BENCHMARK.json sync

std::vector<std::string> Names(const obs::Json& list) {
  std::vector<std::string> names;
  for (const obs::Json& entry : list.array()) names.push_back(entry.GetString("name"));
  return names;
}

TEST(BenchmarkJsonTest, DeclaresExactlyWhatTheBinaryReports) {
  std::ifstream in(QA_BENCHMARK_JSON);
  ASSERT_TRUE(in.is_open()) << QA_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  util::StatusOr<obs::Json> json = obs::Json::Parse(text.str());
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(Names(*json->Find("workloads")), WorkloadNames());
  auto check = [](const obs::Json& declared,
                  const std::vector<MetricName>& reported) {
    ASSERT_EQ(declared.array().size(), reported.size());
    for (size_t i = 0; i < reported.size(); ++i) {
      EXPECT_EQ(declared.array()[i].GetString("name"), reported[i].name);
      EXPECT_EQ(declared.array()[i].GetString("unit"), reported[i].unit);
      EXPECT_EQ(declared.array()[i].GetString("better"), reported[i].better);
    }
  };
  check(*json->Find("end_to_end"), EndToEndMetricNames());
  check(*json->Find("per_layer"), PerLayerMetricNames());
}

}  // namespace
}  // namespace qa::bench
