#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "allocation/cluster_plan.h"
#include "allocation/factory.h"
#include "dbms/dbms_federation.h"
#include "decorators.h"
#include "exec/thread_pool.h"
#include "provenance.h"
#include "sim/federation.h"
#include "sim/scenario.h"
#include "util/monotonic_clock.h"
#include "workload/sinusoid.h"
#include "workload/zipf_workload.h"

namespace qa::bench {

namespace {

using util::kMillisecond;
using util::kSecond;
using util::MonotonicClock;

constexpr util::VDuration kPeriod = 500 * kMillisecond;

double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Runs set-up step `name` (a per-layer metric name such as
/// "query.build_model_s") inside its span and logs its seconds.
template <typename Fn>
void Step(const SetUpLog& log, const std::string& name, Fn&& fn) {
  int span = log.tracer->Open(LayerOfMetric(name), name.substr(0, name.size() - 2),
                              log.parent);
  fn();
  log.tracer->Close(span);
  (*log.steps)[name] += log.tracer->span(span).seconds();
}

/// Runs `fn` inside a span named `name`, adds its seconds to the counter
/// `name`_s and returns the span id.
template <typename Fn>
int Timed(Tracer* tracer, const std::string& name, int parent, int run,
          Fn&& fn) {
  int span = tracer->Open(LayerOfMetric(name), name, parent, run);
  fn();
  tracer->Close(span);
  tracer->Count(name + "_s", tracer->span(span).seconds());
  return span;
}

/// The figure benches' standard grid cell (bench::MakeSpec).
exec::RunSpec MakeSpec(const query::CostModel& model,
                       const std::string& mechanism,
                       const workload::Trace& trace, uint64_t seed) {
  exec::RunSpec spec;
  spec.cost_model = &model;
  spec.mechanism = mechanism;
  spec.trace = &trace;
  spec.period = kPeriod;
  spec.seed = seed;
  spec.config.max_retries = 5000;
  return spec;
}

/// The allocator RunSpecOnce would build for `spec`, but over `model`.
std::unique_ptr<allocation::Allocator> CreateSpecAllocator(
    const exec::RunSpec& spec, const query::CostModel* model) {
  allocation::AllocatorParams params;
  params.cost_model = model;
  params.period = spec.period;
  params.seed = spec.seed;
  params.solicitation = spec.config.solicitation;
  params.cluster_plan = spec.config.cluster_plan;
  std::unique_ptr<allocation::Allocator> allocator =
      allocation::CreateAllocator(spec.mechanism, params);
  if (allocator == nullptr) {
    std::fprintf(stderr, "FATAL: unknown allocation mechanism '%s'\n",
                 spec.mechanism.c_str());
    std::abort();
  }
  return allocator;
}

/// Span-recorded allocator stats and the fork-join log of one traced run.
void RecordAllocStats(const AllocStats& stats, Tracer* tracer) {
  tracer->MergeCalls("allocation.allocate", stats.allocate);
  tracer->MergeCalls("allocation.period_hook", stats.period_hook);
  tracer->Count("allocation.accepted", static_cast<double>(stats.accepted));
  tracer->Count("allocation.solicited", static_cast<double>(stats.solicited));
  tracer->Count("allocation.messages", static_cast<double>(stats.messages));
}

void RecordForkJoins(const TimedTaskRunner& runner, Tracer* tracer,
                     int parent, int run) {
  for (const ForkJoinCall& call : runner.calls()) {
    tracer->Record(Layer::kExec, "exec.parallel_for", parent, call.start_ns,
                   call.end_ns, run);
    double wall = SecondsBetween(call.start_ns, call.end_ns);
    double overhead = wall - static_cast<double>(call.task_max_ns) * 1e-9;
    tracer->Count("exec.parallel_for_calls", 1);
    tracer->Count("exec.tasks", call.tasks);
    tracer->Count("exec.parallel_for_s", wall);
    tracer->Count("exec.capacity_s", wall * runner.concurrency());
    tracer->Count("exec.task_busy_s",
                  static_cast<double>(call.task_sum_ns) * 1e-9);
    tracer->Count("exec.fork_join_overhead_s", overhead);
    if (call.in_allocator) {
      tracer->Count("exec.overhead_in_allocation_s", overhead);
    }
  }
}

void CountRunMetrics(const sim::SimMetrics& metrics, Tracer* tracer) {
  tracer->Count("arrivals", static_cast<double>(metrics.arrivals));
  tracer->Count("sim.events", static_cast<double>(metrics.events_dispatched));
}

/// A workload whose reps are sim::Federation runs: one or more RunSpecs,
/// replayed serially through exec::RunSpecOnce or as one parallel grid
/// through exec::ExperimentRunner::Run.
class SimWorkload : public Workload {
 public:
  RepRuns Rep() override {
    RepRuns runs;
    if (grid_threads_ > 0) {
      for (exec::RunResult& result :
           exec::ExperimentRunner(grid_threads_).Run(specs_)) {
        runs.sim.push_back(std::move(result.metrics));
      }
    } else {
      for (const exec::RunSpec& spec : specs_) {
        runs.sim.push_back(exec::RunSpecOnce(spec).metrics);
      }
    }
    return runs;
  }

  TracedOutcome TracedRep(Tracer* tracer) override {
    TracedOutcome traced;
    int rep = tracer->Open(Layer::kBench, "rep");
    if (grid_threads_ > 0) {
      traced.runs.sim = TracedGrid(specs_, grid_threads_, tracer, rep);
    } else {
      for (size_t i = 0; i < specs_.size(); ++i) {
        traced.runs.sim.push_back(
            TracedRunSpec(specs_[i], tracer, rep, static_cast<int>(i)));
      }
    }
    tracer->Close(rep);
    // What no layer span covers: the loop between runs (and, in a grid,
    // the spec copies around the runner's call).
    tracer->Count("unattributed_s",
                  static_cast<double>(
                      SelfNanos(tracer->spans(), static_cast<size_t>(rep))) *
                      1e-9);
    traced.comparable_s = tracer->span(rep).seconds();
    tracer->Count("rep_s", traced.comparable_s);
    return traced;
  }

 protected:
  /// The specs one rep replays; built by SetUp over the members below.
  std::vector<exec::RunSpec> specs_;
  /// > 0: the specs run as one ExperimentRunner grid on this many threads.
  int grid_threads_ = 0;
  std::vector<workload::Trace> traces_;
};

// ---- paper100 -------------------------------------------------------------

/// The paper's own §5.1 setup just past the Fig. 6 knee: market-heavy
/// (eq.-4 rollover at K=100 across 100 agents every tick), little else.
class Paper100 final : public SimWorkload {
 public:
  Paper100(uint64_t seed, bool smoke)
      : seed_(seed), queries_(smoke ? 2000 : 40000) {}

  std::string Describe() const override {
    return "Table-3 federation (100 nodes, 1,000 relations, 100 classes), "
           "Zipf " + std::to_string(queries_) +
           " queries at 20 s per-class mean inter-arrival; QA-NT broadcast, "
           "1 thread";
  }

  void SetUp(const SetUpLog& log) override {
    specs_.clear();
    traces_.clear();
    Step(log, "query.build_model_s", [&] {
      util::Rng rng(kTestbedSeed);
      scenario_ = sim::BuildTable3Scenario(sim::Table3Config(), rng);
    });
    Step(log, "workload.generate_s", [&] {
      workload::ZipfWorkloadConfig config;
      config.num_queries = queries_;
      config.num_classes = scenario_.cost_model->num_classes();
      config.mean_interarrival = 20000 * kMillisecond;
      config.num_origin_nodes = scenario_.cost_model->num_nodes();
      util::Rng rng(seed_ + 1);
      traces_.push_back(workload::GenerateZipfWorkload(config, rng));
    });
    specs_.push_back(MakeSpec(*scenario_.cost_model, "QA-NT", traces_[0], seed_));
  }

 private:
  uint64_t seed_;
  int queries_;
  sim::Scenario scenario_;
};

// ---- two-class sinusoid workloads ---------------------------------------

/// The two-class testbed of §5.1's first experiment set, at `nodes` nodes.
std::unique_ptr<query::MatrixCostModel> TwoClassModel(int nodes) {
  util::Rng rng(kTestbedSeed);
  sim::TwoClassConfig config;
  config.num_nodes = nodes;
  return sim::BuildTwoClassCostModel(config, rng);
}

/// Capacity of an `n`-node two-class federation: EstimateCapacityQps on a
/// `ref_nodes` reference model with the same per-node cost distribution,
/// scaled linearly (bench_scale_nodes' rule for models too big to
/// market-simulate).
double ScaledCapacity(int n, int ref_nodes) {
  return sim::EstimateCapacityQps(*TwoClassModel(ref_nodes), {2.0, 1.0},
                                  kPeriod) *
         static_cast<double>(n) / static_cast<double>(ref_nodes);
}

workload::Trace Sinusoid(double q1_peak_rate, double frequency_hz,
                         util::VDuration duration, int origins,
                         uint64_t seed) {
  workload::SinusoidConfig config;
  config.q1_peak_rate = q1_peak_rate;
  config.frequency_hz = frequency_hz;
  config.duration = duration;
  config.num_origin_nodes = origins;
  util::Rng rng(seed + 1);
  return workload::GenerateSinusoidWorkload(config, rng);
}

/// How figures are regenerated: the Fig. 4 mechanism grid, in parallel.
/// The only workload running the baselines that read node state (Greedy,
/// BNQRD, TwoProbes) on the inline path.
class Fig4Grid final : public SimWorkload {
 public:
  Fig4Grid(uint64_t seed, bool smoke, int threads)
      : seed_(seed), duration_s_(smoke ? 25 : 500) {
    grid_threads_ = threads;
  }

  std::string Describe() const override {
    return "Fig. 4 two-class 100-node federation, 0.05 Hz sinusoid for " +
           std::to_string(duration_s_) +
           " s at 0.95 x capacity; 6 mechanisms x " +
           std::to_string(kSeeds) + " seeds on ExperimentRunner(" +
           std::to_string(grid_threads_) + ")";
  }

  void SetUp(const SetUpLog& log) override {
    specs_.clear();
    traces_.clear();
    Step(log, "query.build_model_s", [&] { model_ = TwoClassModel(100); });
    double capacity = 0.0;
    Step(log, "sim.capacity_estimate_s", [&] {
      capacity = sim::EstimateCapacityQps(*model_, {2.0, 1.0}, kPeriod);
    });
    Step(log, "workload.generate_s", [&] {
      for (int j = 0; j < kSeeds; ++j) {
        traces_.push_back(Sinusoid(0.95 * capacity, 0.05,
                                   duration_s_ * kSecond, 100,
                                   seed_ + static_cast<uint64_t>(j)));
      }
    });
    for (const std::string& mechanism : allocation::AllMechanismNames()) {
      for (int j = 0; j < kSeeds; ++j) {
        specs_.push_back(MakeSpec(*model_, mechanism,
                                  traces_[static_cast<size_t>(j)],
                                  seed_ + static_cast<uint64_t>(j)));
      }
    }
  }

 private:
  static constexpr int kSeeds = 4;
  uint64_t seed_;
  int64_t duration_s_;
  std::unique_ptr<query::MatrixCostModel> model_;
};

/// The north-star 10k-node sharded point: the sim event loop and the
/// fork-join fences dominate, the market is trivial (K=2, 16 solicited).
class Sharded10k final : public SimWorkload {
 public:
  Sharded10k(uint64_t seed, bool smoke, int threads)
      : seed_(seed),
        nodes_(smoke ? 500 : 10000),
        ref_nodes_(smoke ? 50 : 1000),
        target_queries_(smoke ? 10000.0 : 200000.0),
        pool_(threads),
        runner_(&pool_) {}

  std::string Describe() const override {
    return "two-class " + std::to_string(nodes_) +
           " nodes, sinusoid at 0.95 x capacity sized for " +
           std::to_string(static_cast<int64_t>(target_queries_)) +
           " queries; QA-NT stratified-16, shards=4 on a " +
           std::to_string(pool_.size()) + "-thread PoolRunner";
  }

  void SetUp(const SetUpLog& log) override {
    specs_.clear();
    traces_.clear();
    Step(log, "query.build_model_s", [&] { model_ = TwoClassModel(nodes_); });
    double capacity = 0.0;
    Step(log, "sim.capacity_estimate_s",
         [&] { capacity = ScaledCapacity(nodes_, ref_nodes_); });
    Step(log, "workload.generate_s", [&] {
      // bench_shard_scale's sizing: one sinusoid period over the horizon
      // that holds the target query count at the mean rate.
      double q1_peak = 0.95 * capacity;
      double duration_s = target_queries_ / (1.125 * q1_peak);
      traces_.push_back(Sinusoid(q1_peak, 1.0 / duration_s,
                                 util::FromSeconds(duration_s), nodes_,
                                 seed_));
    });
    exec::RunSpec spec = MakeSpec(*model_, "QA-NT", traces_[0], seed_);
    spec.config.solicitation.policy =
        allocation::SolicitationPolicy::kStratifiedSample;
    spec.config.solicitation.fanout = 16;
    spec.config.shards = kShards;
    spec.config.runner = &runner_;
    specs_.push_back(std::move(spec));
  }

  /// The sharded run must reproduce one inline (S1, no runner) reference
  /// exactly; the reference's wall time gives shard_speedup_vs_inline.
  std::vector<std::string> ExtraChecks(const Outcome& reference,
                                       double median_rep_s,
                                       Tracer* tracer) override {
    exec::RunSpec inline_spec = specs_[0];
    inline_spec.config.shards = 1;
    inline_spec.config.runner = nullptr;
    int64_t start = MonotonicClock::NowNanos();
    RepRuns inline_runs;
    inline_runs.sim.push_back(exec::RunSpecOnce(inline_spec).metrics);
    double inline_s = MonotonicClock::SecondsSince(start);
    Outcome inline_outcome = Summarize(inline_runs);
    tracer->Count("exec.inline_rep_s", inline_s);
    tracer->Count("exec.shard_speedup_vs_inline",
                  median_rep_s > 0.0 ? inline_s / median_rep_s : 0.0);
    std::vector<std::string> violations = inline_outcome.violations;
    if (inline_outcome.fingerprint != reference.fingerprint) {
      violations.push_back("shards=" + std::to_string(kShards) +
                           " run differs from the inline S1 reference");
    }
    return violations;
  }

 private:
  static constexpr int kShards = 4;
  uint64_t seed_;
  int nodes_;
  int ref_nodes_;
  double target_queries_;
  exec::ThreadPool pool_;
  exec::PoolRunner runner_;
  std::unique_ptr<query::MatrixCostModel> model_;
};

/// The 1M-node hierarchical point: per-run construction is O(N), so this
/// is the construction- and memory-heavy workload.
class Hier1m final : public SimWorkload {
 public:
  Hier1m(uint64_t seed, bool smoke)
      : seed_(seed),
        nodes_(smoke ? 50000 : 1000000),
        clusters_(smoke ? 50 : 1000),
        q1_peak_(smoke ? 250.0 : 5000.0) {}

  std::string Describe() const override {
    return "two-class " + std::to_string(nodes_) +
           " nodes, 6 s sinusoid at Q1 peak " +
           std::to_string(static_cast<int64_t>(q1_peak_)) +
           " q/s; QA-NT hierarchical, " + std::to_string(clusters_) +
           " clusters, top-8 / member-8, 1 thread";
  }

  void SetUp(const SetUpLog& log) override {
    specs_.clear();
    traces_.clear();
    model_.reset();
    Step(log, "query.build_model_s", [&] { model_ = TwoClassModel(nodes_); });
    Step(log, "workload.generate_s", [&] {
      traces_.push_back(
          Sinusoid(q1_peak_, 1.0 / 6.0, 6 * kSecond, nodes_, seed_));
    });
    exec::RunSpec spec = MakeSpec(*model_, "QA-NT", traces_[0], seed_);
    spec.config.solicitation.policy =
        allocation::SolicitationPolicy::kUniformSample;
    spec.config.solicitation.fanout = 8;
    spec.config.cluster_plan =
        allocation::ClusterPlan::Uniform(nodes_, clusters_, /*top_fanout=*/8);
    specs_.push_back(std::move(spec));
  }

 private:
  uint64_t seed_;
  int nodes_;
  int clusters_;
  double q1_peak_;
  std::unique_ptr<query::MatrixCostModel> model_;
};

/// bench_overload's validated 60-node flash-crowd cell under price-signal
/// admission: exercises the sim layer's reject path (shed, expire, retry)
/// beside the complete path. One rep runs every seed back to back.
class Surge10x final : public SimWorkload {
 public:
  Surge10x(uint64_t seed, bool smoke) : seed_(seed), runs_(smoke ? 1 : 20) {}

  std::string Describe() const override {
    return "60 nodes, 85 s sinusoid at 70% capacity, global 10x surge in "
           "[40 s, 60 s), 12 s SLA; QA-NT with price-signal admission, "
           "node queue <= 12, retry backlog <= 3,000; seeds " +
           std::to_string(seed_) + ".." +
           std::to_string(seed_ + static_cast<uint64_t>(runs_) - 1) +
           " back to back";
  }

  void SetUp(const SetUpLog& log) override {
    specs_.clear();
    traces_.clear();
    Step(log, "query.build_model_s", [&] { model_ = TwoClassModel(kNodes); });
    double capacity = 0.0;
    Step(log, "sim.capacity_estimate_s", [&] {
      capacity = sim::EstimateCapacityQps(*model_, {2.0, 1.0}, kPeriod);
    });
    Step(log, "workload.generate_s", [&] {
      for (int j = 0; j < runs_; ++j) {
        traces_.push_back(Sinusoid(0.7 * capacity / 0.75, 0.05, 85 * kSecond,
                                   kNodes, seed_ + static_cast<uint64_t>(j)));
      }
    });
    for (int j = 0; j < runs_; ++j) {
      uint64_t seed = seed_ + static_cast<uint64_t>(j);
      exec::RunSpec spec =
          MakeSpec(*model_, "QA-NT", traces_[static_cast<size_t>(j)], seed);
      sim::FederationConfig& config = spec.config;
      config.query_deadline = 12 * kSecond;
      config.seed = static_cast<int64_t>(seed);
      // bench_overload's "price" protection stack.
      config.max_node_queue = 12;
      config.max_retry_backlog = 50 * kNodes;
      config.shed_policy = sim::ShedPolicy::kLowestPriorityFirst;
      config.admission.policy = sim::AdmissionPolicy::kPriceSignal;
      config.admission.enter_ratio = 8.0;
      config.admission.exit_ratio = 2.0;
      config.admission.warmup_periods = 70;
      config.admission.baseline_alpha = 0.05;
      config.admission.max_outstanding = 6 * kNodes;
      config.faults.surges.push_back({sim::faults::SurgeFault::kAllClasses,
                                      40 * kSecond, 60 * kSecond, 10.0});
      specs_.push_back(std::move(spec));
    }
  }

 private:
  static constexpr int kNodes = 60;
  uint64_t seed_;
  int runs_;
  std::unique_ptr<query::MatrixCostModel> model_;
};

// ---- minidb5 --------------------------------------------------------------

/// A copy of `db`'s tables and views (Database itself is move-only).
dbms::Database CopyDatabase(const dbms::Database& db) {
  dbms::Database copy;
  for (const std::string& name : db.TableNames()) {
    (void)copy.CreateTable(*db.GetTable(name));
  }
  for (const std::string& name : db.ViewNames()) {
    (void)copy.CreateView(*db.GetView(name));
  }
  return copy;
}

/// The Fig. 7 minidb federation: the only dbms workload (planner,
/// executor, buffer pool); it bypasses sim::Federation entirely.
class Minidb5 final : public Workload {
 public:
  Minidb5(uint64_t seed, bool smoke)
      : seed_(seed), queries_(smoke ? 50 : 1000) {}

  std::string Describe() const override {
    return "Fig. 7 minidb federation (5 nodes, 20 tables, 80 views, 40 "
           "templates), " + std::to_string(queries_) +
           " queries at 800 ms mean uniform inter-arrival; QA-NT";
  }

  void SetUp(const SetUpLog& log) override {
    federation_.reset();
    replay_nodes_.clear();
    Step(log, "dbms.setup_s", [&] {
      dbms::DbmsFederationConfig config;
      config.seed = kTestbedSeed;
      federation_ = std::make_unique<dbms::DbmsFederation>(config);
    });
    Step(log, "workload.generate_s", [&] { GenerateInstances(); });
  }

  RepRuns Rep() override {
    RepRuns runs;
    runs.dbms.push_back(federation_->Run("QA-NT", queries_, kGap, seed_));
    runs.dbms_queries = queries_;
    return runs;
  }

  TracedOutcome TracedRep(Tracer* tracer) override {
    TracedOutcome traced;
    if (replay_nodes_.empty()) {
      int span = tracer->Open(Layer::kBench, "dbms.replay_setup");
      for (int i = 0; i < federation_->num_nodes(); ++i) {
        const dbms::DbmsNode& node = federation_->node(i);
        replay_nodes_.push_back(std::make_unique<dbms::DbmsNode>(
            i, CopyDatabase(node.db()), node.config()));
      }
      tracer->Close(span);
    }
    int rep = tracer->Open(Layer::kBench, "rep");
    int run = tracer->Open(Layer::kDbms, "dbms.run", rep);
    traced.runs.dbms.push_back(federation_->Run("QA-NT", queries_, kGap, seed_));
    traced.runs.dbms_queries = queries_;
    tracer->Close(run);
    traced.comparable_s = tracer->span(run).seconds();
    tracer->Count("dbms.run_s", traced.comparable_s);

    // The replay: every instance estimated on each eligible node and run
    // on the one quoting the least execution time, with each call timed.
    int replay = tracer->Open(Layer::kBench, "dbms.replay", rep);
    LogHistogram estimate;
    LogHistogram execute;
    for (auto& node : replay_nodes_) node->ResetState();
    for (const Instance& instance : instances_) {
      int chosen = -1;
      util::VDuration best = 0;
      for (int i : federation_->dataset()
                       .template_nodes[static_cast<size_t>(instance.tmpl)]) {
        int64_t start = MonotonicClock::NowNanos();
        util::StatusOr<dbms::EstimateReply> reply =
            replay_nodes_[static_cast<size_t>(i)]->EstimateQuery(instance.stmt);
        estimate.Add(MonotonicClock::NowNanos() - start);
        if (!reply.ok()) {
          traced.runs.violations.push_back("estimate failed: " +
                                              reply.status().ToString());
          continue;
        }
        if (chosen < 0 || reply->est_exec < best) {
          chosen = i;
          best = reply->est_exec;
        }
      }
      if (chosen < 0) continue;
      int64_t start = MonotonicClock::NowNanos();
      util::StatusOr<dbms::ExecutionOutcome> outcome =
          replay_nodes_[static_cast<size_t>(chosen)]->ExecuteQuery(
              instance.stmt);
      execute.Add(MonotonicClock::NowNanos() - start);
      if (!outcome.ok()) {
        traced.runs.violations.push_back("execute failed: " +
                                            outcome.status().ToString());
      }
    }
    tracer->Close(replay);
    tracer->Close(rep);
    tracer->MergeCalls("dbms.estimate", estimate);
    tracer->MergeCalls("dbms.execute", execute);
    tracer->Count("arrivals", queries_);
    // The replay's own share (instance loop, node choice) is the
    // unattributed part of this rep.
    std::vector<Span> spans = tracer->spans();
    int64_t unattributed =
        SelfNanos(spans, static_cast<size_t>(rep)) +
        SelfNanos(spans, static_cast<size_t>(replay),
                  estimate.sum_ns() + execute.sum_ns());
    tracer->Count("unattributed_s", static_cast<double>(unattributed) * 1e-9);
    tracer->Count("rep_s", tracer->span(rep).seconds());
    return traced;
  }

 private:
  static constexpr util::VDuration kGap = 800 * kMillisecond;

  struct Instance {
    int tmpl = 0;
    dbms::SelectStatement stmt;
  };

  /// The template instances DbmsFederation::Run draws for this seed, in
  /// its order: per query one inter-arrival gap, one template, then the
  /// template's selection constants.
  void GenerateInstances() {
    instances_.clear();
    util::Rng rng(seed_);
    dbms::DatasetConfig dataset_config;
    for (int q = 0; q < queries_; ++q) {
      (void)rng.UniformInt(0, 2 * kGap);
      Instance instance;
      instance.tmpl = static_cast<int>(
          rng.UniformInt(0, federation_->num_templates() - 1));
      instance.stmt = dbms::InstantiateTemplate(
          federation_->dataset(), instance.tmpl, dataset_config, rng);
      instances_.push_back(std::move(instance));
    }
  }

  uint64_t seed_;
  int queries_;
  std::unique_ptr<dbms::DbmsFederation> federation_;
  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<dbms::DbmsNode>> replay_nodes_;
};

}  // namespace

std::vector<std::string> Workload::ExtraChecks(const Outcome&, double,
                                               Tracer*) {
  return {};
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper100", "fig4grid", "sharded10k", "hier1m", "surge10x", "minidb5"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke, int threads) {
  if (name == "paper100") return std::make_unique<Paper100>(seed, smoke);
  if (name == "fig4grid") {
    return std::make_unique<Fig4Grid>(seed, smoke, threads);
  }
  if (name == "sharded10k") {
    return std::make_unique<Sharded10k>(seed, smoke, threads);
  }
  if (name == "hier1m") return std::make_unique<Hier1m>(seed, smoke);
  if (name == "surge10x") return std::make_unique<Surge10x>(seed, smoke);
  if (name == "minidb5") return std::make_unique<Minidb5>(seed, smoke);
  return nullptr;
}

sim::SimMetrics TracedRunSpec(const exec::RunSpec& spec, Tracer* tracer,
                              int parent, int run) {
  CountingCostModel cost_model(spec.cost_model);
  bool in_allocator = false;
  AllocStats stats;
  std::optional<TimedTaskRunner> runner;
  if (spec.config.runner != nullptr) {
    runner.emplace(spec.config.runner, &in_allocator);
  }

  std::unique_ptr<TimedAllocator> allocator;
  std::unique_ptr<sim::Federation> federation;
  sim::SimMetrics metrics;
  double rss_start = ResidentMb();
  Timed(tracer, "allocation.construct", parent, run, [&] {
    allocator = std::make_unique<TimedAllocator>(
        CreateSpecAllocator(spec, &cost_model), &stats, &in_allocator);
  });
  Timed(tracer, "sim.construct", parent, run, [&] {
    sim::FederationConfig config = spec.config;
    config.period = spec.period;
    config.seed = static_cast<int64_t>(spec.seed);
    if (runner) config.runner = &*runner;
    federation = std::make_unique<sim::Federation>(&cost_model,
                                                   allocator.get(), config);
  });
  double rss_constructed = ResidentMb();
  int run_span = Timed(tracer, "sim.run", parent, run,
                       [&] { metrics = federation->Run(*spec.trace); });
  double rss_ran = ResidentMb();
  Timed(tracer, "sim.teardown", parent, run,
        [&] { federation.reset(); });
  Timed(tracer, "allocation.teardown", parent, run,
        [&] { allocator.reset(); });

  tracer->Count("sim.construct_rss_mb", rss_constructed - rss_start);
  tracer->Count("sim.run_rss_mb", rss_ran - rss_constructed);
  tracer->Count("query.cost_calls", static_cast<double>(cost_model.calls()));
  RecordAllocStats(stats, tracer);
  if (runner) RecordForkJoins(*runner, tracer, run_span, run);
  CountRunMetrics(metrics, tracer);
  return metrics;
}

std::vector<sim::SimMetrics> TracedGrid(const std::vector<exec::RunSpec>& specs,
                                        int threads, Tracer* tracer,
                                        int parent) {
  struct Cell {
    int64_t start_ns = 0;
    int64_t constructed_ns = 0;
    int64_t end_ns = 0;
    AllocStats stats;
  };
  std::vector<Cell> cells(specs.size());
  // One counter per cell: a shared one would be a contended cache line.
  std::vector<std::unique_ptr<CountingCostModel>> cost_models;
  std::vector<exec::RunSpec> traced = specs;
  for (size_t i = 0; i < traced.size(); ++i) {
    const exec::RunSpec& spec = specs[i];
    Cell& cell = cells[i];
    cost_models.push_back(std::make_unique<CountingCostModel>(spec.cost_model));
    const CountingCostModel* cost_model = cost_models.back().get();
    traced[i].cost_model = cost_model;
    traced[i].make_allocator = [&spec, &cell, cost_model] {
      cell.start_ns = MonotonicClock::NowNanos();
      auto allocator = std::make_unique<TimedAllocator>(
          CreateSpecAllocator(spec, cost_model), &cell.stats, nullptr);
      cell.constructed_ns = MonotonicClock::NowNanos();
      return allocator;
    };
    traced[i].probe = [&cell](const allocation::Allocator&) {
      cell.end_ns = MonotonicClock::NowNanos();
      return 0.0;
    };
  }
  int grid = tracer->Open(Layer::kExec, "exec.grid", parent);
  std::vector<exec::RunResult> results = exec::ExperimentRunner(threads).Run(traced);
  tracer->Close(grid);

  double grid_s = tracer->span(grid).seconds();
  double cell_busy = 0.0;
  double cell_max = 0.0;
  std::vector<sim::SimMetrics> metrics;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    int run = static_cast<int>(i);
    int span = tracer->Record(Layer::kExec, "exec.cell", grid, cell.start_ns,
                              cell.end_ns, run);
    tracer->Record(Layer::kAllocation, "allocation.construct", span,
                   cell.start_ns, cell.constructed_ns, run);
    tracer->Record(Layer::kSim, "sim.construct", span, cell.constructed_ns,
                   cell.stats.run_start_ns, run);
    tracer->Record(Layer::kSim, "sim.run", span, cell.stats.run_start_ns,
                   cell.end_ns, run);
    tracer->Count("allocation.construct_s",
                  SecondsBetween(cell.start_ns, cell.constructed_ns));
    tracer->Count("sim.construct_s",
                  SecondsBetween(cell.constructed_ns, cell.stats.run_start_ns));
    tracer->Count("sim.run_s", SecondsBetween(cell.stats.run_start_ns, cell.end_ns));
    double busy = SecondsBetween(cell.start_ns, cell.end_ns);
    cell_busy += busy;
    cell_max = std::max(cell_max, busy);
    RecordAllocStats(cell.stats, tracer);
    CountRunMetrics(results[i].metrics, tracer);
    metrics.push_back(std::move(results[i].metrics));
  }
  for (const auto& cost_model : cost_models) {
    tracer->Count("query.cost_calls", static_cast<double>(cost_model->calls()));
  }
  tracer->Count("exec.grid_wall_s", grid_s);
  tracer->Count("exec.grid_capacity_s", grid_s * threads);
  tracer->Count("exec.cell_busy_s", cell_busy);
  tracer->Count("exec.cell_max_s", cell_max);
  tracer->Count("exec.grid_uncovered_s",
                static_cast<double>(SelfNanos(tracer->spans(),
                                              static_cast<size_t>(grid))) *
                    1e-9);
  return metrics;
}

}  // namespace qa::bench
