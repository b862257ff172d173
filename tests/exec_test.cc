#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "allocation/factory.h"
#include "allocation/solicitation.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"
#include "obs/recorder.h"
#include "sim/scenario.h"
#include "workload/sinusoid.h"

namespace qa::exec {
namespace {

using util::kMillisecond;
using util::kSecond;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 100; ++i) {
    done.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      });
    }
    // No explicit wait: ~ThreadPool must run everything already queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 64; ++i) {
    done.push_back(pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : done) f.get();
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("boom"); });
  std::future<void> good = pool.Submit([] {});
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not take its worker down.
  good.get();
  std::future<void> after = pool.Submit([] {});
  after.get();
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(4), 4);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

// ------------------------------------------------------- ExperimentRunner

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(kSeed);
    sim::TwoClassConfig scenario;
    scenario.num_nodes = 10;
    model_ = sim::BuildTwoClassCostModel(scenario, rng);

    workload::SinusoidConfig workload;
    workload.frequency_hz = 0.05;
    workload.duration = 10 * kSecond;
    workload.num_origin_nodes = scenario.num_nodes;
    workload.q1_peak_rate = 30.0;
    util::Rng wl_rng(kSeed + 1);
    trace_ = workload::GenerateSinusoidWorkload(workload, wl_rng);
  }

  /// A small fig4-style grid: every registered mechanism x two seeds.
  std::vector<RunSpec> MakeGrid() const {
    std::vector<RunSpec> specs;
    for (uint64_t seed : {kSeed, kSeed + 7}) {
      for (const std::string& name : allocation::AllMechanismNames()) {
        RunSpec spec;
        spec.cost_model = model_.get();
        spec.mechanism = name;
        spec.trace = &trace_;
        spec.period = 500 * kMillisecond;
        spec.seed = seed;
        spec.config.max_retries = 5000;
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  }

  static constexpr uint64_t kSeed = 42;
  std::unique_ptr<query::MatrixCostModel> model_;
  workload::Trace trace_;
};

void ExpectIdenticalMetrics(const sim::SimMetrics& a,
                            const sim::SimMetrics& b, size_t cell) {
  SCOPED_TRACE("grid cell " + std::to_string(cell));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.bounced, b.bounced);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.solicited, b.solicited);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.assigned, b.assigned);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.total_busy_time, b.total_busy_time);
  EXPECT_EQ(a.node_completed, b.node_completed);
  EXPECT_EQ(a.node_last_idle, b.node_last_idle);
  // Bitwise-equal response aggregates: same completions in the same order.
  EXPECT_EQ(a.response_time_ms.count(), b.response_time_ms.count());
  EXPECT_EQ(a.MeanResponseMs(), b.MeanResponseMs());
  EXPECT_EQ(a.response_time_ms.Percentile(95),
            b.response_time_ms.Percentile(95));
}

TEST_F(RunnerTest, ParallelGridMatchesSerialCellForCell) {
  std::vector<RunSpec> specs = MakeGrid();
  std::vector<RunResult> serial = ExperimentRunner(1).Run(specs);
  std::vector<RunResult> parallel = ExperimentRunner(8).Run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectIdenticalMetrics(serial[i].metrics, parallel[i].metrics, i);
  }
  // Sanity: the grid actually simulated something.
  EXPECT_GT(serial[0].metrics.completed, 0);
}

TEST_F(RunnerTest, ParallelRunIsRepeatable) {
  std::vector<RunSpec> specs = MakeGrid();
  std::vector<RunResult> first = ExperimentRunner(8).Run(specs);
  std::vector<RunResult> second = ExperimentRunner(8).Run(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectIdenticalMetrics(first[i].metrics, second[i].metrics, i);
  }
}

TEST_F(RunnerTest, ResultsComeBackInSubmissionOrder) {
  // Mechanism-specific fingerprints (message counts differ per mechanism)
  // land at the submitted indices even when workers finish out of order.
  std::vector<RunSpec> specs = MakeGrid();
  std::vector<RunResult> serial = ExperimentRunner(1).Run(specs);
  std::vector<RunResult> parallel = ExperimentRunner(4).Run(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].metrics.messages, parallel[i].metrics.messages)
        << "cell " << i;
  }
}

TEST_F(RunnerTest, ProbeRunsOnTheRunAllocator) {
  RunSpec spec;
  spec.cost_model = model_.get();
  spec.mechanism = "Greedy";
  spec.trace = &trace_;
  spec.seed = kSeed;
  spec.probe = [](const allocation::Allocator& alloc) {
    return alloc.name() == "Greedy" ? 1.0 : -1.0;
  };
  RunResult result = RunSpecOnce(spec);
  EXPECT_EQ(result.probe, 1.0);
}

TEST_F(RunnerTest, UnknownMechanismAbortsLoudly) {
  RunSpec spec;
  spec.cost_model = model_.get();
  spec.mechanism = "QA-NTypo";
  spec.trace = &trace_;
  EXPECT_DEATH(RunSpecOnce(spec), "unknown allocation mechanism 'QA-NTypo'");
}

// ------------------------------------------------------- Solicitation

/// Runs one QA-NT cell with the given solicitation policy, streaming its
/// JSONL trace to a temp file, and returns (metrics, trace bytes).
std::pair<sim::SimMetrics, std::string> RunTraced(
    const query::CostModel& model, const workload::Trace& trace,
    allocation::SolicitationConfig solicitation, uint64_t seed,
    const std::string& tag) {
  std::string path = ::testing::TempDir() + "/solicitation_" + tag +
                     ".jsonl";
  sim::SimMetrics metrics;
  {
    util::StatusOr<std::unique_ptr<obs::Recorder>> recorder =
        obs::Recorder::OpenFile(path);
    EXPECT_TRUE(recorder.ok()) << recorder.status();
    RunSpec spec;
    spec.cost_model = &model;
    spec.mechanism = "QA-NT";
    spec.trace = &trace;
    spec.period = 500 * kMillisecond;
    spec.seed = seed;
    spec.config.max_retries = 5000;
    spec.config.solicitation = solicitation;
    spec.config.recorder = recorder.value().get();
    metrics = RunSpecOnce(spec).metrics;
    recorder.value()->Finish();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return {std::move(metrics), std::move(bytes).str()};
}

TEST_F(RunnerTest, FanoutCoveringEveryNodeIsByteIdenticalToBroadcast) {
  // uniform-sample(d >= num_nodes) clamps to the full candidate list and
  // draws nothing, so a seeded run must reproduce broadcast exactly —
  // metrics AND trace bytes (bar the meta line, which names the policy).
  allocation::SolicitationConfig broadcast;
  allocation::SolicitationConfig covering;
  covering.policy = allocation::SolicitationPolicy::kUniformSample;
  covering.fanout = 10;  // == num_nodes of the fixture federation
  auto [broadcast_metrics, broadcast_trace] =
      RunTraced(*model_, trace_, broadcast, kSeed, "broadcast");
  auto [covering_metrics, covering_trace] =
      RunTraced(*model_, trace_, covering, kSeed, "covering");
  ExpectIdenticalMetrics(broadcast_metrics, covering_metrics, 0);
  // Byte-compare everything after the first (meta) line.
  auto body = [](const std::string& bytes) {
    return bytes.substr(bytes.find('\n') + 1);
  };
  EXPECT_EQ(body(broadcast_trace), body(covering_trace));
  EXPECT_NE(broadcast_trace, covering_trace)
      << "meta line should name the differing solicitation policies";
}

TEST_F(RunnerTest, OversizedFanoutAlsoReproducesBroadcast) {
  allocation::SolicitationConfig broadcast;
  allocation::SolicitationConfig oversized;
  oversized.policy = allocation::SolicitationPolicy::kUniformSample;
  oversized.fanout = 10000;  // far beyond num_nodes: clamps to broadcast
  auto [broadcast_metrics, broadcast_trace] =
      RunTraced(*model_, trace_, broadcast, kSeed, "broadcast2");
  auto [oversized_metrics, oversized_trace] =
      RunTraced(*model_, trace_, oversized, kSeed, "oversized");
  ExpectIdenticalMetrics(broadcast_metrics, oversized_metrics, 0);
}

TEST_F(RunnerTest, EverySolicitationPolicyIsThreadCountInvariant) {
  // A grid of QA-NT cells across all three policies (sampled ones at a
  // fanout small enough to actually sample) x two seeds must come back
  // byte-identical at threads 1 vs 8: per-arrival SplitMix64 streams are
  // pure functions of (seed, arrival index), never of scheduling.
  std::vector<allocation::SolicitationConfig> configs(3);
  configs[1].policy = allocation::SolicitationPolicy::kUniformSample;
  configs[1].fanout = 3;
  configs[2].policy = allocation::SolicitationPolicy::kStratifiedSample;
  configs[2].fanout = 3;
  std::vector<RunSpec> specs;
  for (uint64_t seed : {kSeed, kSeed + 7}) {
    for (const allocation::SolicitationConfig& config : configs) {
      RunSpec spec;
      spec.cost_model = model_.get();
      spec.mechanism = "QA-NT";
      spec.trace = &trace_;
      spec.period = 500 * kMillisecond;
      spec.seed = seed;
      spec.config.max_retries = 5000;
      spec.config.solicitation = config;
      specs.push_back(std::move(spec));
    }
  }
  std::vector<RunResult> serial = ExperimentRunner(1).Run(specs);
  std::vector<RunResult> parallel = ExperimentRunner(8).Run(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectIdenticalMetrics(serial[i].metrics, parallel[i].metrics, i);
  }
  // Sampling must actually have reduced the fanout in the sampled cells.
  EXPECT_LT(serial[1].metrics.solicited, serial[0].metrics.solicited);
  EXPECT_GT(serial[1].metrics.completed, 0);
}

TEST_F(RunnerTest, SampledTraceIsByteIdenticalAcrossRepeatRuns) {
  allocation::SolicitationConfig sampled;
  sampled.policy = allocation::SolicitationPolicy::kStratifiedSample;
  sampled.fanout = 4;
  auto [first_metrics, first_trace] =
      RunTraced(*model_, trace_, sampled, kSeed, "repeat_a");
  auto [second_metrics, second_trace] =
      RunTraced(*model_, trace_, sampled, kSeed, "repeat_b");
  ExpectIdenticalMetrics(first_metrics, second_metrics, 0);
  EXPECT_EQ(first_trace, second_trace);
}

// ------------------------------------------------------- Sharded core

/// Runs one traced cell under the given shard/thread layout and returns
/// (metrics, full trace bytes). shards == 1 drains one lane serially (the
/// reference); any other count drains that many lanes on a pool of
/// `threads` workers.
std::pair<sim::SimMetrics, std::string> RunShardLayout(
    const query::CostModel& model, const workload::Trace& trace,
    const std::string& mechanism, uint64_t seed, int shards, int threads,
    const std::string& tag) {
  std::string path = ::testing::TempDir() + "/shard_layout_" + tag +
                     ".jsonl";
  sim::SimMetrics metrics;
  {
    ThreadPool pool(threads);
    PoolRunner runner(&pool);
    util::StatusOr<std::unique_ptr<obs::Recorder>> recorder =
        obs::Recorder::OpenFile(path);
    EXPECT_TRUE(recorder.ok()) << recorder.status();
    RunSpec spec;
    spec.cost_model = &model;
    spec.mechanism = mechanism;
    spec.trace = &trace;
    spec.period = 500 * kMillisecond;
    spec.seed = seed;
    spec.config.max_retries = 5000;
    spec.config.recorder = recorder.value().get();
    spec.config.shards = shards;
    if (shards > 1) spec.config.runner = &runner;
    metrics = RunSpecOnce(spec).metrics;
    recorder.value()->Finish();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return {std::move(metrics), std::move(bytes).str()};
}

TEST_F(RunnerTest, ShardedRunIsByteIdenticalAtAnyShardAndThreadCount) {
  // The tentpole contract: metrics AND trace bytes must be a pure function
  // of the scenario, never of the shard count or the pool width. Compare
  // the serial 1-lane reference against shards {1, 4} x threads {1, 8}.
  auto [reference_metrics, reference_trace] =
      RunShardLayout(*model_, trace_, "QA-NT", kSeed, 1, 1, "ref");
  int case_id = 0;
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                   std::to_string(threads));
      auto [metrics, trace_bytes] = RunShardLayout(
          *model_, trace_, "QA-NT", kSeed, shards, threads,
          "s" + std::to_string(shards) + "t" + std::to_string(threads));
      ExpectIdenticalMetrics(reference_metrics, metrics,
                             static_cast<size_t>(case_id++));
      EXPECT_EQ(reference_trace, trace_bytes);
    }
  }
  EXPECT_GT(reference_metrics.completed, 0);
}

TEST_F(RunnerTest, StateReadingMechanismFencesEveryEventAndStaysExact) {
  // Greedy reads live node state at allocation time, so its fence policy
  // has zero lookahead (reads_node_state: every lane drains before each
  // mediator event) — and its run on 4 lanes over 8 threads must be
  // byte-identical to the 1-lane reference.
  auto [reference_metrics, reference_trace] =
      RunShardLayout(*model_, trace_, "Greedy", kSeed, 1, 1, "greedy_ref");
  auto [sharded_metrics, sharded_trace] =
      RunShardLayout(*model_, trace_, "Greedy", kSeed, 4, 8, "greedy_s4");
  ExpectIdenticalMetrics(reference_metrics, sharded_metrics, 0);
  EXPECT_EQ(reference_trace, sharded_trace);
  EXPECT_GT(reference_metrics.completed, 0);
}

TEST_F(RunnerTest, SingleShardedSpecBorrowsTheRunnersPool) {
  // ExperimentRunner's nested-parallelism budget: a one-cell grid that
  // asks for shards gets the runner's own pool as its intra-run runner,
  // and the result still matches the serial 1-lane reference.
  RunSpec spec;
  spec.cost_model = model_.get();
  spec.mechanism = "QA-NT";
  spec.trace = &trace_;
  spec.period = 500 * kMillisecond;
  spec.seed = kSeed;
  spec.config.max_retries = 5000;
  std::vector<RunResult> serial_result = ExperimentRunner(1).Run({spec});
  spec.config.shards = 4;
  std::vector<RunResult> sharded_result = ExperimentRunner(8).Run({spec});
  ASSERT_EQ(serial_result.size(), 1u);
  ASSERT_EQ(sharded_result.size(), 1u);
  ExpectIdenticalMetrics(serial_result[0].metrics, sharded_result[0].metrics,
                         0);
}

}  // namespace
}  // namespace qa::exec
