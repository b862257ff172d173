#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "allocation/factory.h"
#include "sim/event_queue.h"
#include "sim/federation.h"
#include "sim/node.h"
#include "sim/scenario.h"
#include "workload/uniform.h"

namespace qa::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue<int> q;
  std::vector<int> order;
  q.Schedule(30, 3);
  q.Schedule(10, 1);
  q.Schedule(20, 2);
  q.RunAll([&](int tag) { order.push_back(tag); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, FifoTieBreak) {
  EventQueue<int> q;
  std::vector<int> order;
  q.Schedule(10, 1);
  q.Schedule(10, 2);
  q.Schedule(10, 3);
  q.RunAll([&](int tag) { order.push_back(tag); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue<int> q;
  int fired = 0;
  q.Schedule(10, 1);
  q.RunAll([&](int tag) {
    ++fired;
    if (tag == 1) q.Schedule(q.now() + 5, 2);
  });
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueueTest, ReserveDoesNotDisturbOrdering) {
  EventQueue<int> q;
  q.Reserve(100);
  std::vector<int> order;
  for (int i = 9; i >= 0; --i) q.Schedule(i, i);
  q.RunAll([&](int tag) { order.push_back(tag); });
  ASSERT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, SchedulingIntoThePastAssertsAndClamps) {
  EventQueue<int> q;
  q.Schedule(10, 1);
  q.RunAll([](int) {});
  ASSERT_EQ(q.now(), 10);
  // A `when` before now() is a caller bug: debug builds trip the assert;
  // release builds clamp the event to now() instead of time-traveling.
  EXPECT_DEBUG_DEATH(q.Schedule(5, 2), "cannot schedule into the past");
#ifdef NDEBUG
  std::vector<std::pair<util::VTime, int>> fired;
  q.RunAll([&](int tag) { fired.emplace_back(q.now(), tag); });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 10);  // clamped to now(), not 5
  EXPECT_EQ(fired[0].second, 2);
  EXPECT_EQ(q.now(), 10);
#endif
}

TEST(EventQueueTest, DescribeEventNamesKindAndTarget) {
  QueryTask task;
  task.query_id = 77;
  EXPECT_EQ(DescribeEvent(SimEvent::MakeDeliver(5, task)),
            "deliver node=5 query=77");
  EXPECT_EQ(DescribeEvent(SimEvent::MakeComplete(3, task)),
            "complete node=3 query=77");
  EXPECT_EQ(DescribeEvent(SimEvent::MakeMarketTick()), "market-tick");
  // Payload types without an overload get the honest fallback, never a
  // compile error — the diagnostic must not constrain what a queue holds.
  EXPECT_EQ(DescribeEvent(42), "(event type has no DescribeEvent overload)");
}

TEST(EventQueueTest, PastTimestampDiagnosticNamesTheOffendingEvent) {
  // The report must identify *which* event time-traveled (kind, node,
  // query) in every build — under NDEBUG the assert compiles away and a
  // bare clamp would hide exactly the shard-merge ordering bugs this
  // diagnostic exists to catch.
  EventQueue<SimEvent> q;
  q.Schedule(10, 1, SimEvent::MakeMarketTick());
  q.RunAll([](const SimEvent&) {});
  ASSERT_EQ(q.now(), 10);
  QueryTask task;
  task.query_id = 77;
  SimEvent late = SimEvent::MakeDeliver(5, task);
#ifdef NDEBUG
  ::testing::internal::CaptureStderr();
  q.Schedule(4, 2, late);
  std::string report = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(report.find("scheduling into the past"), std::string::npos)
      << report;
  EXPECT_NE(report.find("when=4us < now=10us"), std::string::npos) << report;
  EXPECT_NE(report.find("deliver node=5 query=77"), std::string::npos)
      << report;
  // ... and the event still fires, clamped to now().
  int fired = 0;
  q.RunAll([&](const SimEvent& event) {
    ++fired;
    EXPECT_EQ(event.kind, SimEvent::Kind::kDeliver);
    EXPECT_EQ(q.now(), 10);
  });
  EXPECT_EQ(fired, 1);
#else
  // Debug builds die on the assert, with the description in the report.
  EXPECT_DEATH(q.Schedule(4, 2, late), "deliver node=5 query=77");
#endif
}

// ------------------------------------------------------------ Accounting

/// A finished run's metrics that satisfy every accounting identity: 10
/// arrivals, 6 completed, 4 dropped (1 expired, 2 shed, 1 of them by the
/// admission gate), 5 retries, over two classes.
SimMetrics ConformingMetrics() {
  SimMetrics m;
  m.arrivals = 10;
  m.completed = 6;
  m.dropped = 4;
  m.expired = 1;
  m.shed = 2;
  m.admission_rejects = 1;
  m.retries = 5;
  m.dropped_per_class = {3, 1};
  m.retries_per_class = {2, 3};
  for (int i = 0; i < 6; ++i) {
    m.response_time_ms.Add(10.0 * (i + 1));
    m.completions.Add(i * kMillisecond, i % 2);
  }
  return m;
}

TEST(AccountingTest, ValidateAccountingNamesEachBrokenIdentity) {
  EXPECT_TRUE(ValidateAccounting(ConformingMetrics()).ok());
  EXPECT_TRUE(ValidateAccounting(SimMetrics()).ok());  // an empty run

  struct Breakage {
    const char* identity;
    void (*apply)(SimMetrics&);
  };
  const Breakage breakages[] = {
      {"arrivals == completed + dropped", [](SimMetrics& m) { ++m.arrivals; }},
      {"admission_rejects <= shed",
       [](SimMetrics& m) { m.admission_rejects = 3; }},
      {"shed <= dropped", [](SimMetrics& m) { m.shed = 5; }},
      {"expired <= dropped", [](SimMetrics& m) { m.expired = 5; }},
      {"sum(dropped_per_class) == dropped",
       [](SimMetrics& m) { --m.dropped_per_class[0]; }},
      {"sum(retries_per_class) == retries",
       [](SimMetrics& m) { ++m.retries_per_class[1]; }},
      {"completed == response-time samples",
       [](SimMetrics& m) { m.response_time_ms.Add(1.0); }},
      {"completed == completion events",
       [](SimMetrics& m) { m.completions.Add(0, 0.0); }},
  };
  for (const Breakage& breakage : breakages) {
    SCOPED_TRACE(breakage.identity);
    SimMetrics m = ConformingMetrics();
    breakage.apply(m);
    util::Status status = ValidateAccounting(m);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find(breakage.identity), std::string::npos)
        << status;
  }
}

// -------------------------------------------------------------- NodePool

TEST(NodePoolTest, SerialExecutionAccounting) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1, /*shard_of=*/{0});

  QueryTask t1;
  t1.query_id = 1;
  t1.exec_time = 100 * kMillisecond;
  t1.work_units = 5.0;
  EXPECT_TRUE(pool.Enqueue(0, t1));  // was idle
  QueryTask t2 = t1;
  t2.query_id = 2;
  EXPECT_FALSE(pool.Enqueue(0, t2));  // already has work

  EXPECT_EQ(pool.QueueLength(0), 2);
  EXPECT_EQ(pool.Backlog(0, 0), 200 * kMillisecond);
  EXPECT_DOUBLE_EQ(pool.QueuedWork(0), 10.0);

  QueryTask running = pool.BeginNext(0, 0);
  EXPECT_EQ(running.query_id, 1);
  EXPECT_EQ(pool.QueueLength(0), 1);  // the running task left the FIFO
  // Halfway through the first task the backlog is 150 ms.
  EXPECT_EQ(pool.Backlog(0, 50 * kMillisecond), 150 * kMillisecond);

  EXPECT_TRUE(pool.CompleteCurrent(0, 100 * kMillisecond));  // more waits
  EXPECT_DOUBLE_EQ(pool.QueuedWork(0), 5.0);
  pool.BeginNext(0, 100 * kMillisecond);
  EXPECT_FALSE(pool.CompleteCurrent(0, 200 * kMillisecond));
  EXPECT_EQ(pool.completed(0), 2);
  EXPECT_EQ(pool.busy_time(0), 200 * kMillisecond);
  EXPECT_EQ(pool.last_idle_at(0), 200 * kMillisecond);

  // Idle again, the node starts the next enqueue at once; busy with an
  // empty queue, it does not.
  QueryTask t3 = t1;
  t3.query_id = 3;
  EXPECT_TRUE(pool.Enqueue(0, t3));
  pool.BeginNext(0, 200 * kMillisecond);
  QueryTask t4 = t1;
  t4.query_id = 4;
  EXPECT_FALSE(pool.Enqueue(0, t4));
}

// ------------------------------------------------------------ Federation

class FederationTest : public ::testing::Test {
 protected:
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
};

TEST_F(FederationTest, AllQueriesCompleteUnderLightLoad) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  Federation fed(model.get(), alloc.get(), config);

  workload::Trace trace = MakeTrace(10, 1 * kSecond, 0);
  SimMetrics m = fed.Run(trace);
  EXPECT_EQ(m.completed, 10);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_EQ(m.response_time_ms.count(), 10u);
  // Light load: response approx equals execution time (400-450 ms) plus
  // small network delays.
  EXPECT_LT(m.MeanResponseMs(), 600.0);
  EXPECT_GT(m.MeanResponseMs(), 300.0);
}

TEST_F(FederationTest, BacklogGrowsUnderOverload) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  Federation fed(model.get(), alloc.get(), config);

  // q1 takes ~400 ms; arrivals every 100 ms on two nodes: heavy overload.
  workload::Trace trace = MakeTrace(50, 100 * kMillisecond, 0);
  SimMetrics m = fed.Run(trace);
  EXPECT_EQ(m.completed, 50);
  // Later queries queue behind earlier ones: mean response far above the
  // bare execution time.
  EXPECT_GT(m.MeanResponseMs(), 1000.0);
}

TEST_F(FederationTest, QaNtRejectionsRetryAndComplete) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.period = 500 * kMillisecond;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  FederationConfig config;
  config.period = 500 * kMillisecond;
  Federation fed(model.get(), alloc.get(), config);

  // Burst of 10 q1 at t=0: QA-NT admits only what fits each period, the
  // rest retries at period boundaries; all must eventually complete.
  workload::Trace trace = MakeTrace(10, 0, 0);
  SimMetrics m = fed.Run(trace);
  EXPECT_EQ(m.completed, 10);
  EXPECT_GT(m.retries, 0);
}

TEST_F(FederationTest, MessagesAreCounted) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto greedy = allocation::CreateAllocator("Greedy", params);
  FederationConfig config;
  Federation fed(model.get(), greedy.get(), config);
  SimMetrics m = fed.Run(MakeTrace(10, 1 * kSecond, 0));
  // Greedy probes both nodes per query: 5 messages per query.
  EXPECT_EQ(m.messages, 10 * 5);
}

TEST_F(FederationTest, InfeasibleQueriesDroppedAfterRetries) {
  auto model = std::make_unique<query::MatrixCostModel>(1, 1);
  // Class 0 evaluable nowhere.
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Random", params);
  FederationConfig config;
  config.max_retries = 3;
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(2, 0, 0));
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 2);
}

TEST_F(FederationTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    params.seed = 7;
    auto alloc = allocation::CreateAllocator("Random", params);
    FederationConfig config;
    Federation fed(model.get(), alloc.get(), config);
    return fed.Run(MakeTrace(30, 200 * kMillisecond, 0)).MeanResponseMs();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(FederationTest, OutagesBounceBlindAssignmentsButEverythingCompletes) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.seed = 7;
  auto alloc = allocation::CreateAllocator("Random", params);
  FederationConfig config;
  config.max_retries = 500;
  // Node 0 partitioned off (unreachable, state intact) during [1 s, 6 s).
  config.faults.partitions.push_back({{0}, 1 * kSecond, 6 * kSecond});
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(30, 300 * kMillisecond, 0));
  EXPECT_GT(m.bounced, 0);
  EXPECT_EQ(m.completed, 30);
  EXPECT_EQ(m.dropped, 0);
}

TEST_F(FederationTest, QaNtRoutesAroundOutageWithoutBounces) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.period = 500 * kMillisecond;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  FederationConfig config;
  config.period = 500 * kMillisecond;
  config.max_retries = 500;
  config.faults.partitions.push_back({{0}, 1 * kSecond, 6 * kSecond});
  Federation fed(model.get(), alloc.get(), config);
  SimMetrics m = fed.Run(MakeTrace(20, 400 * kMillisecond, 0));
  // The market never selects an unreachable node: no network bounces.
  EXPECT_EQ(m.bounced, 0);
  EXPECT_EQ(m.completed, 20);
}

// Hand-computed outage accounting. Scenario (Fig. 1 model, 2 nodes, both
// feasible for q1): ten q1 queries from node 0, one per second at
// t = 0..9 s; node 0 is partitioned off (unreachable) during [2 s, 5 s).
//
// QA-NT asks every feasible *online* node (request + offer/decline reply
// each, plus the final accept: 2*asked+1 messages). Load is far below
// capacity (one 400-450 ms query per second against a 500 ms period), so
// every query is admitted on its first attempt and nothing bounces — the
// market simply does not ask the dead node:
//   7 queries outside the outage:  asked=2 -> 5 messages each = 35
//   3 queries during it (t=2,3,4): asked=1 -> 3 messages each =  9
//                                                        total = 44
TEST_F(FederationTest, QaNtOutageMessageAccountingByHand) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  params.period = 500 * kMillisecond;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  FederationConfig config;
  config.period = 500 * kMillisecond;
  config.faults.partitions.push_back({{0}, 2 * kSecond, 5 * kSecond});
  Federation fed(model.get(), alloc.get(), config);

  SimMetrics m = fed.Run(MakeTrace(10, 1 * kSecond, 0));
  EXPECT_EQ(m.completed, 10);
  EXPECT_EQ(m.messages, 44);
  EXPECT_EQ(m.bounced, 0);
  EXPECT_EQ(m.retries, 0);
  EXPECT_EQ(m.dropped, 0);
  ASSERT_EQ(m.retries_per_class.size(), 2u);
  EXPECT_EQ(m.retries_per_class[0], 0);
  EXPECT_EQ(m.retries_per_class[1], 0);
}

// Same scenario through RoundRobin, which is blind to liveness and pays
// one message per allocation call. The per-class pointer alternates
// n0,n1,n0,... across *calls* (retries advance it too):
//   call  1: q0 t=0s  -> n0  ok
//   call  2: q1 t=1s  -> n1  ok
//   call  3: q2 t=2s  -> n0  BOUNCE (outage)   -> retry next tick
//   call  4: q2 retry -> n1  ok
//   call  5: q3 t=3s  -> n0  BOUNCE            -> retry
//   call  6: q3 retry -> n1  ok
//   call  7: q4 t=4s  -> n0  BOUNCE            -> retry
//   call  8: q4 retry -> n1  ok
//   call  9: q5 t=5s  -> n0  ok (outage ends at 5 s, half-open)
//   calls 10-13: q6..q9 alternate n1,n0,n1,n0, all ok
// 13 calls = 13 messages; 3 bounces, each followed by one retry.
TEST_F(FederationTest, RoundRobinOutageMessageAccountingByHand) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("RoundRobin", params);
  FederationConfig config;
  config.faults.partitions.push_back({{0}, 2 * kSecond, 5 * kSecond});
  Federation fed(model.get(), alloc.get(), config);

  SimMetrics m = fed.Run(MakeTrace(10, 1 * kSecond, 0));
  EXPECT_EQ(m.completed, 10);
  EXPECT_EQ(m.messages, 13);
  EXPECT_EQ(m.bounced, 3);
  EXPECT_EQ(m.retries, 3);
  EXPECT_EQ(m.dropped, 0);
  ASSERT_EQ(m.retries_per_class.size(), 2u);
  EXPECT_EQ(m.retries_per_class[0], 3);
  EXPECT_EQ(m.retries_per_class[1], 0);
  ASSERT_EQ(m.dropped_per_class.size(), 2u);
  EXPECT_EQ(m.dropped_per_class[0], 0);
}

// -------------------------------------------------------------- Scenario

TEST(ScenarioTest, TwoClassCostModelShape) {
  TwoClassConfig config;
  config.num_nodes = 100;
  config.q2_feasible_fraction = 0.5;
  util::Rng rng(42);
  auto model = BuildTwoClassCostModel(config, rng);
  EXPECT_EQ(model->num_classes(), 2);
  EXPECT_EQ(model->num_nodes(), 100);
  EXPECT_EQ(model->FeasibleNodes(0).size(), 100u);
  EXPECT_EQ(model->FeasibleNodes(1).size(), 50u);
  // Costs centered on the configured averages.
  double sum0 = 0.0;
  for (catalog::NodeId j = 0; j < 100; ++j) {
    sum0 += static_cast<double>(model->Cost(0, j));
  }
  EXPECT_NEAR(sum0 / 100.0, static_cast<double>(config.q1_avg),
              static_cast<double>(config.q1_avg) * 0.15);
}

TEST(ScenarioTest, Fig1CostModelExactValues) {
  auto model = BuildFig1CostModel();
  EXPECT_EQ(model->Cost(0, 0), 400 * kMillisecond);
  EXPECT_EQ(model->Cost(1, 0), 100 * kMillisecond);
  EXPECT_EQ(model->Cost(0, 1), 450 * kMillisecond);
  EXPECT_EQ(model->Cost(1, 1), 500 * kMillisecond);
}

TEST(ScenarioTest, Table3ScenarioBuilds) {
  Table3Config config;
  config.catalog.num_relations = 100;
  config.catalog.num_nodes = 20;
  config.profiles.num_nodes = 20;
  config.templates.num_classes = 20;
  config.templates.max_joins = 10;
  util::Rng rng(42);
  Scenario scenario = BuildTable3Scenario(config, rng);
  ASSERT_NE(scenario.cost_model, nullptr);
  EXPECT_EQ(scenario.cost_model->num_nodes(), 20);
  EXPECT_EQ(scenario.cost_model->num_classes(), 20);
  // Calibration: mean best cost ~2000 ms.
  double sum = 0.0;
  for (int k = 0; k < 20; ++k) {
    sum += static_cast<double>(scenario.cost_model->BestCost(k));
  }
  EXPECT_NEAR(sum / 20.0, 2000.0 * kMillisecond, 20.0 * kMillisecond);
}

TEST(CapacityTest, EstimateIsPositiveAndBounded) {
  TwoClassConfig config;
  config.num_nodes = 10;
  util::Rng rng(42);
  auto model = BuildTwoClassCostModel(config, rng);
  double qps = EstimateCapacityQps(*model, {2.0, 1.0},
                                   500 * kMillisecond, 20);
  EXPECT_GT(qps, 0.0);
  // Hard upper bound: every node running its cheapest class continuously.
  double bound = 0.0;
  for (catalog::NodeId j = 0; j < 10; ++j) {
    util::VDuration cheapest = std::min(model->Cost(0, j),
                                        model->Cost(1, j));
    bound += 1.0 / util::ToSeconds(cheapest);
  }
  EXPECT_LE(qps, bound * 1.05);
}

}  // namespace
}  // namespace qa::sim
