// Fault-injection subsystem + market-protocol hardening tests: plan and
// config validation, crash-with-state-loss semantics (conservation, stale
// completions, QA-NT re-learning), degraded capacity, lossy links,
// partitions, retry backoff escalation, and the deterministic chaos soak.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "allocation/factory.h"
#include "allocation/qa_nt_allocator.h"
#include "exec/experiment_runner.h"
#include "obs/analysis.h"
#include "obs/recorder.h"
#include "obs/trace_reader.h"
#include "sim/faults/fault_injector.h"
#include "sim/faults/fault_plan.h"
#include "sim/federation.h"
#include "sim/node.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace qa::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

workload::Trace MakeTrace(int n, util::VDuration gap,
                          query::QueryClassId k) {
  workload::Trace trace;
  for (int i = 0; i < n; ++i) {
    workload::Arrival a;
    a.time = i * gap;
    a.class_id = k;
    a.origin = 0;
    a.cost_jitter = 1.0;
    trace.Add(a);
  }
  return trace;
}

// ------------------------------------------------------------ Validation

TEST(FaultPlanTest, EmptyPlanIsValid) {
  faults::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsBadNodesAndWindows) {
  faults::FaultPlan plan;
  plan.crashes.push_back({/*node=*/5, /*at=*/kSecond, /*restart_at=*/2 * kSecond});
  util::Status s = plan.Validate(4);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("crashes[0]"), std::string::npos);

  plan = {};
  plan.crashes.push_back({0, 2 * kSecond, kSecond});  // restart before crash
  EXPECT_FALSE(plan.Validate(4).ok());

  plan = {};
  plan.degrades.push_back({0, kSecond, 2 * kSecond, /*factor=*/0.0});
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.degrades[0].factor = 1.5;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.degrades[0].factor = 0.5;
  EXPECT_TRUE(plan.Validate(4).ok());

  plan = {};
  faults::LinkFault link;
  link.from = 0;
  link.until = kSecond;
  link.drop_probability = 1.0;  // certain loss never terminates
  plan.links.push_back(link);
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.links[0].drop_probability = 0.5;
  plan.links[0].extra_latency = -1;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.links[0].extra_latency = kMillisecond;
  EXPECT_TRUE(plan.Validate(4).ok());

  plan = {};
  faults::PartitionFault partition;
  partition.from = 0;
  partition.until = kSecond;  // no nodes listed
  plan.partitions.push_back(partition);
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.partitions[0].nodes = {1, 2};
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(ValidateConfigTest, RejectsMisconfiguredRuns) {
  FederationConfig config;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  config.period = 0;
  EXPECT_EQ(ValidateConfig(config, 2).code(),
            util::StatusCode::kInvalidArgument);
  config.period = 500 * kMillisecond;

  config.market_tick_divisor = 0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.market_tick_divisor = 8;

  config.message_latency = -1;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.message_latency = kMillisecond;

  config.max_retries = -1;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.max_retries = 200;

  config.max_backoff_periods = 0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.max_backoff_periods = 4;

  config.query_deadline = -1;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.query_deadline = 0;

  config.faults.partitions.push_back({{/*node=*/7}, kSecond, 2 * kSecond});
  util::Status s = ValidateConfig(config, 2);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("partitions[0]"), std::string::npos);
  config.faults.partitions[0].nodes = {0};
  config.faults.partitions[0].until =
      config.faults.partitions[0].from;  // empty window
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.faults.partitions[0].until = 2 * kSecond;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // A malformed FaultPlan is caught through the same funnel.
  config.faults.crashes.push_back({0, 2 * kSecond, kSecond});
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
}

TEST(ValidateConfigTest, RejectsMisconfiguredSolicitation) {
  FederationConfig config;

  // Broadcast ignores the fanout knob entirely, even when it is zero.
  config.solicitation.policy = allocation::SolicitationPolicy::kBroadcast;
  config.solicitation.fanout = 0;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // A sampled policy must ask at least one node per attempt.
  config.solicitation.policy =
      allocation::SolicitationPolicy::kUniformSample;
  config.solicitation.fanout = 0;
  util::Status zero = ValidateConfig(config, 2);
  EXPECT_EQ(zero.code(), util::StatusCode::kInvalidArgument);
  config.solicitation.fanout = -4;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.solicitation.policy =
      allocation::SolicitationPolicy::kStratifiedSample;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());

  // Oversized fanout is legal: the allocator clamps it to the candidate
  // set, reproducing broadcast (covered byte-for-byte in exec_test).
  config.solicitation.fanout = 10000;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());
  config.solicitation.policy = allocation::SolicitationPolicy::kUniformSample;
  config.solicitation.fanout = 1;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());
}

TEST(FaultPlanTest, RejectsBadSurges) {
  faults::FaultPlan plan;
  plan.surges.push_back(
      {faults::SurgeFault::kAllClasses, kSecond, 2 * kSecond, 3.0});
  EXPECT_TRUE(plan.Validate(4).ok());

  // Multipliers must be strictly positive (0.5 is legal — a lull).
  plan.surges[0].multiplier = 0.0;
  util::Status s = plan.Validate(4);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("multiplier"), std::string::npos);
  plan.surges[0].multiplier = -2.0;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.surges[0].multiplier = 0.5;
  EXPECT_TRUE(plan.Validate(4).ok());

  // Empty or backwards windows.
  plan.surges[0].until = plan.surges[0].from;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.surges[0].until = 2 * kSecond;

  // Class ids below the kAllClasses sentinel are nonsense.
  plan.surges[0].class_id = -2;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.surges[0].class_id = 1;
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsOverlappingSurgeWindows) {
  faults::FaultPlan plan;
  plan.surges.push_back({/*class_id=*/1, kSecond, 2 * kSecond, 3.0});
  plan.surges.push_back(
      {/*class_id=*/1, kSecond + 500 * kMillisecond, 3 * kSecond, 2.0});
  util::Status s = plan.Validate(4);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("overlaps"), std::string::npos);

  // Same window on a different class is fine...
  plan.surges[1].class_id = 0;
  EXPECT_TRUE(plan.Validate(4).ok());
  // ...but a global surge overlaps every class.
  plan.surges[1].class_id = faults::SurgeFault::kAllClasses;
  EXPECT_FALSE(plan.Validate(4).ok());
  // Back-to-back windows on the same class do not overlap ([1s,2s) then
  // [2s,3s)).
  plan.surges[1].class_id = 1;
  plan.surges[1].from = 2 * kSecond;
  plan.surges[1].until = 3 * kSecond;
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(ValidateConfigTest, RejectsBadShedBoundsAndAdmission) {
  FederationConfig config;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // Shed bounds below 1 would shed everything on arrival.
  config.max_node_queue = 0;
  util::Status s = ValidateConfig(config, 2);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("max_node_queue"), std::string::npos);
  config.max_node_queue = -3;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.max_node_queue = 1;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  config.max_retry_backlog = 0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.max_retry_backlog = 64;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // Static admission needs a positive threshold.
  config.admission.policy = AdmissionPolicy::kStatic;
  config.admission.max_outstanding = 0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.max_outstanding = 100;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // Price-signal admission needs a sane hysteresis band and warmup.
  config.admission.policy = AdmissionPolicy::kPriceSignal;
  config.admission.enter_ratio = 1.2;
  config.admission.exit_ratio = 1.5;  // inverted band
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.enter_ratio = 3.0;
  config.admission.exit_ratio = 0.0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.exit_ratio = 1.5;
  config.admission.warmup_periods = 0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.warmup_periods = 2;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // The baseline tracking rate must stay inside [0, 1): 1 would snap the
  // baseline to the index every period and the ratio could never leave 1.
  config.admission.baseline_alpha = 1.0;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.baseline_alpha = -0.1;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
  config.admission.baseline_alpha = 0.05;
  EXPECT_TRUE(ValidateConfig(config, 2).ok());

  // Negative static threshold is rejected for every policy.
  config.admission.max_outstanding = -1;
  EXPECT_FALSE(ValidateConfig(config, 2).ok());
}

TEST(ValidateConfigDeathTest, RunAbortsOnInvalidConfig) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Random", params);
  FederationConfig config;
  config.period = -1;
  Federation fed(model.get(), alloc.get(), config);
  workload::Trace trace = MakeTrace(1, 0, 0);
  EXPECT_DEATH(fed.Run(trace), "invalid FederationConfig");
}

// -------------------------------------------------------------- NodePool

TEST(NodePoolCrashTest, CrashFlushesStateAndCorrectsBusyTime) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1, /*shard_of=*/{0});
  QueryTask t1;
  t1.query_id = 1;
  t1.exec_time = 100 * kMillisecond;
  t1.work_units = 5.0;
  QueryTask t2 = t1;
  t2.query_id = 2;
  pool.Enqueue(0, t1);
  pool.Enqueue(0, t2);
  pool.BeginNext(0, 0);  // t1 running, would finish at 100 ms
  ASSERT_EQ(pool.epoch(0), 0);

  std::vector<QueryTask> lost;
  pool.Crash(0, 30 * kMillisecond, &lost);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].query_id, 1);  // the running task first
  EXPECT_EQ(lost[1].query_id, 2);
  // BeginNext charged 100 ms up front; only 30 ms actually ran.
  EXPECT_EQ(pool.busy_time(0), 30 * kMillisecond);
  EXPECT_EQ(pool.QueueLength(0), 0);
  EXPECT_DOUBLE_EQ(pool.QueuedWork(0), 0.0);
  EXPECT_EQ(pool.last_idle_at(0), 30 * kMillisecond);
  EXPECT_EQ(pool.epoch(0), 1);
  EXPECT_EQ(pool.completed(0), 0);
  // The crash left the node idle: the next enqueue starts at once.
  EXPECT_TRUE(pool.Enqueue(0, t1));
}

// ----------------------------------------------------- Crash and restart

TEST(CrashTest, LostQueriesAreResubmittedAndConserved) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  // Burst of 8 q1 at t=0 spreads over both nodes and queues deep; the
  // crash at 600 ms wipes node 0 mid-execution.
  config.faults.crashes.push_back({0, 600 * kMillisecond, 2 * kSecond});
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(8, 0, 0));
  EXPECT_GT(m.lost, 0);
  // Conservation: every arrival either completed or exhausted its budget.
  EXPECT_EQ(m.completed + m.dropped, 8);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_EQ(m.completed, 8);
}

TEST(CrashTest, StaleCompletionsOfWipedTasksAreIgnored) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  config.faults.crashes.push_back({0, 600 * kMillisecond, 2 * kSecond});
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(8, 0, 0));
  // The node's completion counter only counts its second incarnation:
  // every query completed exactly once system-wide.
  int64_t node_total = 0;
  for (int64_t c : m.node_completed) node_total += c;
  EXPECT_EQ(node_total, m.completed);
  EXPECT_EQ(static_cast<int64_t>(m.response_time_ms.count()), m.completed);
}

TEST(CrashTest, QaNtAgentRelearnsFromDefaultsAfterRestart) {
  auto model = BuildFig1CostModel();
  market::QaNtConfig qa_config;
  allocation::QaNtAllocator alloc(model.get(), 500 * kMillisecond,
                                  qa_config);
  // Exhaust node 0's period budget, then keep asking: each decline of an
  // evaluable class bumps its price (step 9), moving it off the default.
  market::QaNtAgent& agent = alloc.mutable_agent(0);
  for (int i = 0; i < 50; ++i) {
    if (agent.OnRequest(0)) agent.OnOfferAccepted(0);
  }
  bool moved = false;
  for (double p : alloc.agent(0).prices().values()) {
    if (p != qa_config.initial_price) moved = true;
  }
  ASSERT_TRUE(moved) << "test setup: prices never moved";

  alloc.OnNodeRestart(0, 3 * kSecond);
  for (double p : alloc.agent(0).prices().values()) {
    EXPECT_DOUBLE_EQ(p, qa_config.initial_price);
  }
  const market::QaNtAgentStats& stats = alloc.agent(0).stats();
  EXPECT_EQ(stats.requests_seen, 0);
  EXPECT_DOUBLE_EQ(alloc.agent(0).earnings(), 0.0);
}

TEST(CrashTest, RestartedQaNtNodeWinsWorkAgain) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.period = 500 * kMillisecond;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  std::ostringstream sink;
  obs::Recorder recorder(&sink);
  FederationConfig config;
  config.period = 500 * kMillisecond;
  config.recorder = &recorder;
  config.faults.crashes.push_back({0, 2 * kSecond, 5 * kSecond});
  Federation fed(model.get(), alloc.get(), config);
  // One q1 per 300 ms for 12 s straddles the crash and restart; node 0 is
  // the faster q1 node, so once re-learned it must win assignments again.
  SimMetrics m = fed.Run(MakeTrace(40, 300 * kMillisecond, 0));
  EXPECT_EQ(m.completed + m.dropped, 40);
  EXPECT_GT(m.lost, 0);  // the running query died with the node

  std::istringstream in(sink.str());
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  bool crash_seen = false;
  bool restart_seen = false;
  bool assigned_after_restart = false;
  for (const obs::EventRecord& e : parsed->events) {
    if (e.kind == obs::EventRecord::Kind::kCrash && e.node == 0) {
      crash_seen = true;
    }
    if (e.kind == obs::EventRecord::Kind::kRestart && e.node == 0) {
      restart_seen = true;
    }
    if (e.kind == obs::EventRecord::Kind::kAssign && e.node == 0 &&
        e.t_us >= 5 * kSecond) {
      assigned_after_restart = true;
    }
  }
  EXPECT_TRUE(crash_seen);
  EXPECT_TRUE(restart_seen);
  EXPECT_TRUE(assigned_after_restart);

  // The recovery report sees the crash and the post-restart market
  // settling back down.
  std::vector<obs::FaultRecovery> recovery =
      obs::FaultRecoveryReport(*parsed);
  ASSERT_EQ(recovery.size(), 2u);
  EXPECT_EQ(recovery[0].kind, obs::EventRecord::Kind::kCrash);
  EXPECT_EQ(recovery[1].kind, obs::EventRecord::Kind::kRestart);

  // The equilibrium detector fires a second time after the restart: the
  // periods strictly after the restart settle back inside the excess-
  // demand band on their own.
  std::vector<obs::PeriodLoad> loads = obs::LoadByPeriod(*parsed);
  obs::EquilibriumResult before =
      obs::TimeToEquilibrium(loads, parsed->meta, 0.1, 2);
  EXPECT_TRUE(before.found);
  int restart_period = static_cast<int>(5 * kSecond / (500 * kMillisecond));
  std::vector<obs::PeriodLoad> tail;
  for (const obs::PeriodLoad& load : loads) {
    if (load.period > restart_period) tail.push_back(load);
  }
  ASSERT_FALSE(tail.empty());
  obs::EquilibriumResult after =
      obs::TimeToEquilibrium(tail, parsed->meta, 0.1, 2);
  EXPECT_TRUE(after.found);
}

// ---------------------------------------------------------------- Degrade

TEST(DegradeTest, HalvedSpeedDoublesExecutionByHand) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  // Node 0 at half speed for the whole run. Greedy probes both nodes
  // (5 messages -> 3 ms delivery) and picks node 0 for q2 (100 ms vs
  // 500 ms); at half speed the 100 ms stretches to 200 ms:
  // response = 3 + 200 = 203 ms.
  config.faults.degrades.push_back({0, 0, 60 * kSecond, 0.5});
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(1, 0, 1));
  EXPECT_EQ(m.completed, 1);
  EXPECT_DOUBLE_EQ(m.MeanResponseMs(), 203.0);
}

// ------------------------------------------------------------ Lossy links

TEST(LinkFaultTest, LossySeededRunIsReproducibleAndLosesQueries) {
  auto run_once = [](uint64_t seed) {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator("Greedy", params);
    FederationConfig config;
    faults::LinkFault link;
    link.from = 0;
    link.until = 60 * kSecond;
    link.drop_probability = 0.3;
    link.extra_latency = 2 * kMillisecond;
    config.faults.links.push_back(link);
    config.faults.seed = seed;
    Federation fed(model.get(), alloc.get(), config);
    workload::Trace trace;
    for (int i = 0; i < 40; ++i) {
      workload::Arrival a;
      a.time = i * 250 * kMillisecond;
      a.class_id = i % 2;
      a.origin = 0;
      a.cost_jitter = 1.0;
      trace.Add(a);
    }
    return fed.Run(trace);
  };
  SimMetrics a = run_once(123);
  SimMetrics b = run_once(123);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_DOUBLE_EQ(a.MeanResponseMs(), b.MeanResponseMs());
  // At p=0.3 over 40 queries, something must have been lost or declined
  // through a dropped negotiation hop.
  EXPECT_GT(a.lost + a.retries, 0);
  EXPECT_EQ(a.completed + a.dropped, 40);
}

// ------------------------------------------------------------- Partitions

TEST(PartitionTest, QaNtRoutesAroundPartitionWithoutBounces) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.period = 500 * kMillisecond;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  FederationConfig config;
  config.period = 500 * kMillisecond;
  config.max_retries = 500;
  faults::PartitionFault partition;
  partition.nodes = {0};
  partition.from = 1 * kSecond;
  partition.until = 6 * kSecond;
  config.faults.partitions.push_back(partition);
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(20, 400 * kMillisecond, 0));
  // Negotiation times out against the partitioned node (a decline), so the
  // market routes around it: no network bounces, no losses (state intact).
  EXPECT_EQ(m.bounced, 0);
  EXPECT_EQ(m.lost, 0);
  EXPECT_EQ(m.completed, 20);
}

// ------------------------------------------------------ Backoff escalation

TEST(BackoffTest, SustainedAllDeclineRoundsEscalateRetrySpacing) {
  // One query no node can evaluate: every attempt is declined, so the
  // mediator's decline streak builds and the retry spacing escalates up to
  // max_backoff_periods whole periods.
  auto run_with_backoff = [](int max_backoff_periods) {
    auto model = std::make_unique<query::MatrixCostModel>(1, 1);
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator("Random", params);
    FederationConfig config;
    config.max_retries = 12;
    config.max_backoff_periods = max_backoff_periods;
    Federation fed(model.get(), alloc.get(), config);
    workload::Trace trace;
    workload::Arrival a;
    trace.Add(a);
    return fed.Run(trace);
  };
  // max_backoff_periods=1 caps escalation at the legacy one-period wait.
  SimMetrics legacy = run_with_backoff(1);
  SimMetrics escalated = run_with_backoff(4);
  EXPECT_EQ(legacy.dropped, 1);
  EXPECT_EQ(escalated.dropped, 1);
  EXPECT_EQ(legacy.retries, escalated.retries);  // same retry budget spent
  // Escalated spacing stretches the same retries over more virtual time.
  EXPECT_GT(escalated.end_time, legacy.end_time);
}

// ------------------------------------------------------------- Chaos soak

faults::FaultPlan RandomChaosPlan(uint64_t seed, int num_nodes,
                                  util::VTime horizon) {
  util::Rng rng(seed);
  faults::FaultPlan plan;
  plan.seed = seed;
  auto node = [&]() {
    return static_cast<catalog::NodeId>(
        rng.UniformInt(0, num_nodes - 1));
  };
  auto window = [&](util::VTime* from, util::VTime* until) {
    *from = static_cast<util::VTime>(
        rng.UniformInt(0, static_cast<int>(horizon / (2 * kSecond)))) *
        kSecond;
    *until = *from + kSecond +
             static_cast<util::VTime>(rng.UniformInt(0, 3)) * kSecond;
  };
  faults::CrashFault crash;
  crash.node = node();
  window(&crash.at, &crash.restart_at);
  plan.crashes.push_back(crash);

  faults::DegradeFault degrade;
  degrade.node = node();
  window(&degrade.from, &degrade.until);
  degrade.factor = 0.25 + 0.5 * rng.UniformReal(0.0, 1.0);
  plan.degrades.push_back(degrade);

  faults::LinkFault link;
  link.node = faults::LinkFault::kAllNodes;
  window(&link.from, &link.until);
  link.drop_probability = 0.1 + 0.2 * rng.UniformReal(0.0, 1.0);
  link.extra_latency = 2 * kMillisecond;
  plan.links.push_back(link);

  faults::PartitionFault partition;
  partition.nodes = {node()};
  window(&partition.from, &partition.until);
  plan.partitions.push_back(partition);
  return plan;
}

// --------------------------------------------------------- Query deadline

TEST(DeadlineTest, LateResultsExpireButConservationHolds) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  config.query_deadline = 1 * kSecond;
  Federation fed(model.get(), alloc.get(), config);
  // Burst of 20 q2 at t=0: Greedy queues most of them on node 0 (100 ms
  // each vs 500 ms on node 1), so the tail of the queue completes well
  // past 1 s of sojourn and is discarded unread by the client.
  SimMetrics m = fed.Run(MakeTrace(20, 0, 1));
  EXPECT_EQ(m.completed + m.dropped, 20);
  EXPECT_GT(m.expired, 0);
  // No retry-budget drops here: every drop is a deadline expiry.
  EXPECT_EQ(m.expired, m.dropped);
  // Every *recorded* response met the SLA (a result landing exactly at
  // the deadline still counts).
  EXPECT_LE(m.response_time_ms.max(), 1000.0);
  EXPECT_EQ(static_cast<int64_t>(m.response_time_ms.count()), m.completed);

  // The same burst without a deadline completes in full.
  auto alloc0 = allocation::CreateAllocator("Greedy", params);
  Federation fed0(model.get(), alloc0.get(), FederationConfig{});
  SimMetrics m0 = fed0.Run(MakeTrace(20, 0, 1));
  EXPECT_EQ(m0.completed, 20);
  EXPECT_EQ(m0.expired, 0);
  EXPECT_EQ(m0.dropped, 0);
}

TEST(DeadlineTest, RetryingClientGivesUpAtTheDeadline) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  config.query_deadline = 2 * kSecond;
  // Every node is partitioned for longer than the deadline: the lone query
  // can never be placed and retries each market tick until its sojourn
  // reaches 2 s, at which point the client abandons it — long before the
  // 200-attempt retry budget would have.
  faults::PartitionFault cut;
  cut.nodes = {0, 1};
  cut.from = 0;
  cut.until = 10 * kSecond;
  config.faults.partitions.push_back(cut);
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(1, 0, 0));
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.expired, 1);
}

// ---------------------------------------------------------------- Overload

TEST(SurgeTest, IntegerMultiplierClonesArrivalsExactly) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  // 10 arrivals at 0..900 ms, all inside the surge window: an integer 3x
  // multiplier needs no Bernoulli draw, so the count is exact.
  faults::SurgeFault surge;
  surge.from = 0;
  surge.until = kSecond;
  surge.multiplier = 3.0;
  config.faults.surges.push_back(surge);
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(10, 100 * kMillisecond, 0));
  EXPECT_EQ(m.arrivals, 30);
  EXPECT_EQ(m.completed + m.dropped, m.arrivals);
}

TEST(SurgeTest, PerClassWindowOnlySurgesThatClass) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  faults::SurgeFault surge;
  surge.class_id = 1;  // q2 doubles; the q1 stream is untouched
  surge.from = 0;
  surge.until = kSecond;
  surge.multiplier = 2.0;
  config.faults.surges.push_back(surge);
  Federation fed(model.get(), alloc.get(), config);
  workload::Trace trace = workload::Trace::Merge(
      MakeTrace(5, 100 * kMillisecond, 0), MakeTrace(5, 100 * kMillisecond, 1));
  SimMetrics m = fed.Run(trace);
  EXPECT_EQ(m.arrivals, 5 + 10);
}

TEST(SurgeTest, FractionalMultiplierIsSeededAndReproducible) {
  auto run_once = [](uint64_t fault_seed) {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator("Greedy", params);
    FederationConfig config;
    config.faults.seed = fault_seed;
    faults::SurgeFault surge;
    surge.from = 0;
    surge.until = 10 * kSecond;
    surge.multiplier = 2.5;
    config.faults.surges.push_back(surge);
    Federation fed(model.get(), alloc.get(), config);
    return fed.Run(MakeTrace(40, 100 * kMillisecond, 0));
  };
  SimMetrics a = run_once(11);
  SimMetrics b = run_once(11);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  // The fractional part is a per-arrival Bernoulli: the total sits
  // strictly between the 2x floor and the 3x ceiling with overwhelming
  // probability at 40 draws, and exactly within it always.
  EXPECT_GE(a.arrivals, 80);
  EXPECT_LE(a.arrivals, 120);
}

TEST(ShedTest, BoundedNodeQueueShedsAndConserves) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  std::ostringstream sink;
  obs::Recorder recorder(&sink);
  FederationConfig config;
  config.recorder = &recorder;
  config.max_node_queue = 2;
  Federation fed(model.get(), alloc.get(), config);
  // Burst of 20 q2 at t=0: Greedy piles them onto node 0, whose waiting
  // queue holds only 2 — the overflow is shed on delivery.
  SimMetrics m = fed.Run(MakeTrace(20, 0, 1));
  EXPECT_GT(m.shed, 0);
  EXPECT_LE(m.shed, m.dropped);
  EXPECT_EQ(m.completed + m.dropped, m.arrivals);
  EXPECT_EQ(m.admission_rejects, 0);  // no admission gate in this run

  std::istringstream in(sink.str());
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  int64_t shed_records = 0;
  for (const obs::EventRecord& e : parsed->events) {
    if (e.kind != obs::EventRecord::Kind::kShed) continue;
    ++shed_records;
    EXPECT_GE(e.node, 0);  // queue sheds name the overflowing node
    EXPECT_GE(e.query, 0);
  }
  EXPECT_EQ(shed_records, m.shed);
}

TEST(ShedTest, LowestPriorityPolicyProtectsCheapClasses) {
  // Same bound, opposite victim selection: under kLowestPriorityFirst an
  // expensive queued q1 yields its slot to nothing (q1 is the costliest),
  // but an incoming cheap q2 evicts a queued q1 rather than being shed
  // itself. Run a mixed burst and compare per-class drop shares.
  auto run_with = [](ShedPolicy policy) {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator("Greedy", params);
    FederationConfig config;
    config.max_node_queue = 2;
    config.shed_policy = policy;
    Federation fed(model.get(), alloc.get(), config);
    workload::Trace trace =
        workload::Trace::Merge(MakeTrace(10, 0, 0), MakeTrace(10, 0, 1));
    return fed.Run(trace);
  };
  SimMetrics newest = run_with(ShedPolicy::kNewestFirst);
  SimMetrics priority = run_with(ShedPolicy::kLowestPriorityFirst);
  EXPECT_EQ(newest.completed + newest.dropped, newest.arrivals);
  EXPECT_EQ(priority.completed + priority.dropped, priority.arrivals);
  ASSERT_GT(priority.shed, 0);
  ASSERT_EQ(priority.dropped_per_class.size(), 2u);
  // The expensive class (q1 costs more everywhere in the Fig. 1 model)
  // absorbs at least as much of the shedding as it did newest-first.
  EXPECT_GE(priority.dropped_per_class[0], newest.dropped_per_class[0]);
}

TEST(ShedTest, RetryBacklogBoundShedsOverflow) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  config.max_retries = 10;
  config.max_retry_backlog = 4;
  // Every node partitioned: all 12 queries can only retry. The backlog
  // holds 4; the rest are shed instead of joining the retry set.
  faults::PartitionFault cut;
  cut.nodes = {0, 1};
  cut.from = 0;
  cut.until = 60 * kSecond;
  config.faults.partitions.push_back(cut);
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(12, 0, 0));
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 12);
  EXPECT_GE(m.shed, 8);  // at most 4 ever sit in backed-off state
  EXPECT_LE(m.shed, m.dropped);
}

TEST(AdmissionTest, StaticThresholdGatesArrivals) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  config.admission.policy = AdmissionPolicy::kStatic;
  config.admission.max_outstanding = 3;
  Federation fed(model.get(), alloc.get(), config);
  // Burst of 20: only the first few are in flight below the threshold;
  // the rest are turned away at the gate.
  SimMetrics m = fed.Run(MakeTrace(20, 0, 1));
  EXPECT_GT(m.admission_rejects, 0);
  EXPECT_LE(m.admission_rejects, m.shed);
  EXPECT_LE(m.shed, m.dropped);
  EXPECT_EQ(m.completed + m.dropped, m.arrivals);
}

TEST(AdmissionTest, DeferredAdmissionRetriesInsteadOfShedding) {
  auto run_with = [](bool defer) {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator("Greedy", params);
    FederationConfig config;
    config.admission.policy = AdmissionPolicy::kStatic;
    config.admission.max_outstanding = 3;
    config.admission.defer = defer;
    Federation fed(model.get(), alloc.get(), config);
    return fed.Run(MakeTrace(20, 0, 1));
  };
  SimMetrics shed_mode = run_with(false);
  SimMetrics defer_mode = run_with(true);
  // Deferral trades immediate sheds for retries: gated queries come back
  // at the next market tick and complete once the backlog drains.
  EXPECT_GT(defer_mode.retries, shed_mode.retries);
  EXPECT_GT(defer_mode.completed, shed_mode.completed);
  EXPECT_EQ(defer_mode.completed + defer_mode.dropped, defer_mode.arrivals);
}

TEST(AdmissionTest, PriceSignalHysteresisBrownsOutExpensiveClassFirst) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kPriceSignal;
  config.enter_ratio = 3.0;
  config.exit_ratio = 1.5;
  config.warmup_periods = 2;
  // Class 0 is the expensive one: it browns out first.
  AdmissionController admission(config, {2.0, 1.0});

  obs::metrics::MarketProbe probe;
  probe.num_classes = 2;
  auto feed = [&](double price) {
    probe.prices.assign(4, price);  // 2 agents x 2 classes
    probe.earnings.assign(2, 0.0);
    admission.OnPeriod(probe);
  };

  // Warmup establishes the ln-price baseline; nothing is gated.
  feed(1.0);
  feed(1.0);
  EXPECT_EQ(admission.brownout_level(), 0);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kAdmit);

  // Prices spike to 8x the baseline: ratio >= enter_ratio, the brownout
  // level climbs one class per period, expensive first.
  feed(8.0);
  EXPECT_EQ(admission.brownout_level(), 1);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.Admit(1, 0), AdmissionController::Decision::kAdmit);
  feed(8.0);
  EXPECT_EQ(admission.brownout_level(), 2);
  EXPECT_EQ(admission.Admit(1, 0), AdmissionController::Decision::kShed);

  // A falling index steps the level down even while the ratio is still
  // far above the band: no one is being declined any more, the market is
  // clearing, and waiting for the slow price decay to cross exit_ratio
  // would lock the brownout in for the rest of the run.
  feed(7.0);
  EXPECT_EQ(admission.brownout_level(), 1);
  EXPECT_EQ(admission.Admit(1, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kShed);
  feed(2.0);
  EXPECT_EQ(admission.brownout_level(), 0);

  // Scarcity building again (rising index above the band) re-engages the
  // gate one class per period.
  feed(6.0);
  EXPECT_EQ(admission.brownout_level(), 1);
  feed(6.0);  // flat at 6x: still above the band, not cooling
  EXPECT_EQ(admission.brownout_level(), 2);

  // Inside the hysteresis band with flat prices the level holds; the
  // first (falling) period steps down, the second (flat) does not.
  feed(2.0);
  EXPECT_EQ(admission.brownout_level(), 1);
  feed(2.0);
  EXPECT_EQ(admission.brownout_level(), 1);

  // Ratio <= exit_ratio completes the recovery, cheapest class restored
  // first (it was never gated at level 1).
  feed(1.0);
  EXPECT_EQ(admission.brownout_level(), 0);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, TrackingBaselineFollowsDriftButNotSurges) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kPriceSignal;
  config.enter_ratio = 3.0;
  config.exit_ratio = 1.5;
  config.warmup_periods = 2;
  config.baseline_alpha = 0.5;
  AdmissionController admission(config, {2.0, 1.0});

  obs::metrics::MarketProbe probe;
  probe.num_classes = 2;
  auto feed = [&](double price) {
    probe.prices.assign(4, price);  // 2 agents x 2 classes
    probe.earnings.assign(2, 0.0);
    admission.OnPeriod(probe);
  };

  // In tracking mode the baseline starts where the index stands when
  // warmup ends — the first gated ratio is 1 by construction, however
  // steep the discovery ramp was.
  feed(1.0);
  feed(2.0);
  EXPECT_EQ(admission.brownout_level(), 0);

  // Sustained drift (~+10%/period) stays inside the band: the EMA chases
  // the index, so the ratio settles near the per-period growth, not the
  // cumulative one. Uniform prices make the ratio an exact price ratio.
  feed(2.2);
  EXPECT_NEAR(admission.price_ratio(), 1.1000, 1e-3);
  feed(2.4);
  EXPECT_NEAR(admission.price_ratio(), 1.1442, 1e-3);
  feed(2.6);
  EXPECT_NEAR(admission.price_ratio(), 1.1588, 1e-3);
  EXPECT_EQ(admission.brownout_level(), 0);

  // A 10x jump outruns any tracking rate: the ratio explodes and the
  // brownout engages expensive-class first.
  feed(26.0);
  EXPECT_NEAR(admission.price_ratio(), 10.7646, 1e-3);
  EXPECT_EQ(admission.brownout_level(), 1);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kShed);

  // The unchanged ratio one period later proves the baseline refused to
  // learn from an overloaded period — a sustained crowd cannot redefine
  // "normal" and ride the EMA back under the band.
  feed(26.0);
  EXPECT_NEAR(admission.price_ratio(), 10.7646, 1e-3);
  EXPECT_EQ(admission.brownout_level(), 2);

  // Back at the drifted level the ratio is ~1 again (the baseline kept
  // the pre-surge normal) and the gate reopens.
  feed(2.6);
  EXPECT_NEAR(admission.price_ratio(), 1.0765, 1e-3);
  EXPECT_EQ(admission.brownout_level(), 1);
  feed(2.6);
  EXPECT_EQ(admission.brownout_level(), 0);
  EXPECT_EQ(admission.Admit(0, 0), AdmissionController::Decision::kAdmit);
}

// Satellite 2: randomized-but-seeded plans across every mechanism, with
// conservation and thread-count invariance (same submission-order results
// at --threads 1 and 4).
TEST(ChaosSoakTest, ConservationAndThreadInvariance) {
  TwoClassConfig scenario_config;
  scenario_config.num_nodes = 8;
  util::Rng scenario_rng(42);
  auto model = BuildTwoClassCostModel(scenario_config, scenario_rng);

  workload::Trace trace;
  util::Rng arrivals_rng(7);
  for (int i = 0; i < 120; ++i) {
    workload::Arrival a;
    a.time = i * 150 * kMillisecond;
    a.class_id = static_cast<int>(arrivals_rng.UniformInt(0, 1));
    a.origin = 0;
    a.cost_jitter = 1.0;
    trace.Add(a);
  }

  std::vector<exec::RunSpec> specs;
  for (const std::string& mechanism : allocation::AllMechanismNames()) {
    for (uint64_t seed : {1u, 2u}) {
      exec::RunSpec spec;
      spec.cost_model = model.get();
      spec.mechanism = mechanism;
      spec.trace = &trace;
      spec.seed = seed;
      spec.config.max_retries = 500;
      spec.config.faults =
          RandomChaosPlan(seed, scenario_config.num_nodes, 18 * kSecond);
      specs.push_back(std::move(spec));
    }
  }

  std::vector<exec::RunResult> serial = exec::ExperimentRunner(1).Run(specs);
  std::vector<exec::RunResult> parallel =
      exec::ExperimentRunner(4).Run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const SimMetrics& s = serial[i].metrics;
    const SimMetrics& p = parallel[i].metrics;
    // Conservation under every fault mechanism at once.
    EXPECT_EQ(s.completed + s.dropped, 120) << specs[i].mechanism;
    // Thread-count invariance, field by field.
    EXPECT_EQ(s.completed, p.completed) << specs[i].mechanism;
    EXPECT_EQ(s.dropped, p.dropped) << specs[i].mechanism;
    EXPECT_EQ(s.lost, p.lost) << specs[i].mechanism;
    EXPECT_EQ(s.bounced, p.bounced) << specs[i].mechanism;
    EXPECT_EQ(s.retries, p.retries) << specs[i].mechanism;
    EXPECT_EQ(s.messages, p.messages) << specs[i].mechanism;
    EXPECT_EQ(s.end_time, p.end_time) << specs[i].mechanism;
    EXPECT_DOUBLE_EQ(s.MeanResponseMs(), p.MeanResponseMs())
        << specs[i].mechanism;
  }
}

// Same seed + same plan => byte-identical traces.
TEST(ChaosSoakTest, SeededChaosTraceIsByteIdentical) {
  auto run_traced = []() {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    params.period = 500 * kMillisecond;
    auto alloc = allocation::CreateAllocator("QA-NT", params);
    std::ostringstream sink;
    {
      obs::Recorder recorder(&sink);
      FederationConfig config;
      config.period = 500 * kMillisecond;
      config.recorder = &recorder;
      config.faults =
          RandomChaosPlan(/*seed=*/99, /*num_nodes=*/2, 10 * kSecond);
      Federation fed(model.get(), alloc.get(), config);
      workload::Trace trace;
      for (int i = 0; i < 30; ++i) {
        workload::Arrival a;
        a.time = i * 300 * kMillisecond;
        a.class_id = i % 2;
        a.origin = 0;
        a.cost_jitter = 1.0;
        trace.Add(a);
      }
      fed.Run(trace);
      recorder.Finish();
    }
    return sink.str();
  };
  std::string first = run_traced();
  std::string second = run_traced();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace qa::sim
