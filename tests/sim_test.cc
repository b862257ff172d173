#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "allocation/factory.h"
#include "sim/event_queue.h"
#include "sim/federation.h"
#include "sim/metrics_json.h"
#include "sim/node.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "util/rng.h"
#include "workload/poisson.h"

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
  EXPECT_EQ(DescribeEvent(LaneEvent::MakeDeliver(5, 77)),
            "deliver node=5 slot=77");
  EXPECT_EQ(DescribeEvent(LaneEvent::MakeComplete(3, 2)),
            "complete node=3 epoch=2");
  EXPECT_EQ(DescribeEvent(LaneEvent::MakeFault(4, 1)),
            "fault node=4 transition=1");
  EXPECT_EQ(DescribeEvent(SimEvent::MakeMarketTick()), "market-tick");
  EXPECT_EQ(DescribeEvent(SimEvent::MakeFault(6)), "fault transition=6");
  // Payload types without an overload get the honest fallback, never a
  // compile error — the diagnostic must not constrain what a queue holds.
  EXPECT_EQ(DescribeEvent(42), "(event type has no DescribeEvent overload)");
}

TEST(EventQueueTest, PastTimestampDiagnosticNamesTheOffendingEvent) {
  // The report must identify *which* event time-traveled (kind, node,
  // record) in every build — under NDEBUG the assert compiles away and a
  // bare clamp would hide exactly the shard-merge ordering bugs this
  // diagnostic exists to catch.
  EventQueue<LaneEvent> q;
  q.Schedule(10, 1, LaneEvent::MakeFault(2, 0));
  q.RunAll([](const LaneEvent&) {});
  ASSERT_EQ(q.now(), 10);
  LaneEvent late = LaneEvent::MakeDeliver(5, 77);
#ifdef NDEBUG
  ::testing::internal::CaptureStderr();
  q.Schedule(4, 2, late);
  std::string report = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(report.find("scheduling into the past"), std::string::npos)
      << report;
  EXPECT_NE(report.find("when=4us < now=10us"), std::string::npos) << report;
  EXPECT_NE(report.find("deliver node=5 slot=77"), std::string::npos)
      << report;
  // ... and the event still fires, clamped to now().
  int fired = 0;
  q.RunAll([&](const LaneEvent& event) {
    ++fired;
    EXPECT_EQ(event.kind, LaneEvent::Kind::kDeliver);
    EXPECT_EQ(q.now(), 10);
  });
  EXPECT_EQ(fired, 1);
#else
  // Debug builds die on the assert, with the description in the report.
  EXPECT_DEATH(q.Schedule(4, 2, late), "deliver node=5 slot=77");
#endif
}

// ------------------------------------------- EventQueue: stream and heap

/// Drains `q` and returns the (time, payload) of every event in dispatch
/// order.
std::vector<std::pair<util::VTime, int>> Drain(EventQueue<int>& q) {
  std::vector<std::pair<util::VTime, int>> fired;
  q.RunAll([&](int tag) { fired.emplace_back(q.now(), tag); });
  return fired;
}

TEST(EventQueueStreamTest, EqualTimesOrderByStampAcrossStreamAndHeap) {
  // The lower stamp sits in the stream ...
  EventQueue<int> q;
  q.Append(10, 1, 1);
  q.Append(10, 3, 3);
  q.Schedule(10, 2, 2);
  q.Schedule(10, 4, 4);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.Peek(), 1);
  EXPECT_EQ(Drain(q), (std::vector<std::pair<util::VTime, int>>{
                          {10, 1}, {10, 2}, {10, 3}, {10, 4}}));
  // ... and in the heap.
  EventQueue<int> r;
  r.Schedule(10, 1, 1);
  r.Append(10, 2, 2);
  r.Schedule(10, 3, 3);
  r.Append(10, 4, 4);
  EXPECT_EQ(r.Peek(), 1);
  EXPECT_EQ(Drain(r), (std::vector<std::pair<util::VTime, int>>{
                          {10, 1}, {10, 2}, {10, 3}, {10, 4}}));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
}

TEST(EventQueueStreamTest, EqualKeysRunTheStreamedEventFirst) {
  EventQueue<int> q;
  q.Schedule(10, 5, 2);
  q.Append(10, 5, 1);
  EXPECT_EQ(Drain(q), (std::vector<std::pair<util::VTime, int>>{
                          {10, 1}, {10, 2}}));
}

TEST(EventQueueStreamTest, OutOfOrderAppendFallsBackToTheHeap) {
  EventQueue<int> q;
  q.Append(20, 0, 20);
  q.Append(10, 1, 10);  // earlier time than the stream's tail
  q.Append(20, 0, 21);  // equal key: not strictly after the tail
  q.Append(30, 2, 30);
  q.Append(30, 1, 31);  // equal time, lower stamp
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(Drain(q), (std::vector<std::pair<util::VTime, int>>{
                          {10, 10}, {20, 20}, {20, 21}, {30, 31}, {30, 30}}));
}

TEST(EventQueueStreamTest, PastTimestampInEitherPathDiagnosesAndClamps) {
  for (bool append : {false, true}) {
    SCOPED_TRACE(append ? "Append" : "Schedule");
    EventQueue<int> q;
    q.Append(10, 0, 1);
    q.Schedule(40, 5, 4);
    q.RunOne([](int) {});
    ASSERT_EQ(q.now(), 10);
    // The stream is drained, so a late Append is in key order; only its
    // time sends it to the heap's diagnostic.
    auto late = [&] {
      if (append) {
        q.Append(5, 1, 2);
      } else {
        q.Schedule(5, 1, 2);
      }
    };
    EXPECT_DEBUG_DEATH(late(), "cannot schedule into the past");
#ifdef NDEBUG
    ::testing::internal::CaptureStderr();
    late();
    std::string report = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(report.find("when=5us < now=10us, stamp=1"), std::string::npos)
        << report;
    // The first late() call already queued one copy, clamped to now().
    EXPECT_EQ(Drain(q), (std::vector<std::pair<util::VTime, int>>{
                            {10, 2}, {10, 2}, {40, 4}}));
#endif
  }
}

TEST(EventQueueStreamTest, RunWhileBeforeStopsBetweenStreamAndHeap) {
  EventQueue<int> q;
  q.Append(10, 1, 1);
  q.Append(10, 4, 4);
  q.Schedule(10, 2, 2);
  q.Schedule(10, 5, 5);
  // The fence key (10, 3) falls between stream entry (10, 1) and heap
  // entry (10, 2) on one side and (10, 4) / (10, 5) on the other.
  std::vector<std::pair<int, uint64_t>> ran;
  uint64_t n = q.RunWhileBefore(10, 3, [&](int tag, util::VTime when,
                                           uint64_t stamp) {
    EXPECT_EQ(when, 10);
    ran.emplace_back(tag, stamp);
  });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, (std::vector<std::pair<int, uint64_t>>{{1, 1}, {2, 2}}));
  EXPECT_EQ(q.PeekStamp(), 4u);
  // A fence at the head's own key runs nothing: strictly before.
  EXPECT_EQ(q.RunWhileBefore(10, 4, [](int, util::VTime, uint64_t) {}), 0u);
  EXPECT_EQ(q.RunWhileBefore(11, 0, [&](int tag, util::VTime, uint64_t) {
    ran.emplace_back(tag, 0);
  }), 2u);
  EXPECT_EQ(ran.back().first, 5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStreamTest, RandomInterleavingMatchesAHeapOnlyQueue) {
  // Any interleaving of appends, schedules and dispatches runs in the
  // (time, stamp) order a heap-only queue fed the same triples runs.
  constexpr uint64_t kInOrder = uint64_t{1} << 40;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    EventQueue<int> mixed;
    EventQueue<int> heap_only;
    std::vector<int> mixed_order;
    std::vector<int> heap_order;
    uint64_t stamp = 0;
    int tag = 0;
    // Mostly sorted appends with bursts of disorder, like a trace whose
    // arrivals are streamed while the run schedules retries.
    util::VTime append_time = 0;
    for (int step = 0; step < 400; ++step) {
      double dice = rng.UniformReal(0.0, 1.0);
      if (dice < 0.45) {
        append_time += rng.UniformInt(0, 3);
        util::VTime when = rng.Bernoulli(0.1)
                               ? mixed.now() + rng.UniformInt(0, 20)
                               : std::max(append_time, mixed.now());
        // Stamps stay unique (the low bits count); a random high part
        // sometimes breaks the order.
        uint64_t s =
            rng.Bernoulli(0.2)
                ? (static_cast<uint64_t>(rng.UniformInt(0, 1 << 19)) << 20) |
                      stamp++
                : kInOrder + stamp++;
        mixed.Append(when, s, tag);
        heap_only.Schedule(when, s, tag);
        ++tag;
      } else if (dice < 0.75) {
        util::VTime when = mixed.now() + rng.UniformInt(0, 12);
        uint64_t s = kInOrder + stamp++;
        mixed.Schedule(when, s, tag);
        heap_only.Schedule(when, s, tag);
        ++tag;
      } else {
        mixed.RunOne([&](int t) { mixed_order.push_back(t); });
        heap_only.RunOne([&](int t) { heap_order.push_back(t); });
        ASSERT_EQ(mixed.now(), heap_only.now());
      }
      ASSERT_EQ(mixed.size(), heap_only.size());
    }
    mixed.RunAll([&](int t) { mixed_order.push_back(t); });
    heap_only.RunAll([&](int t) { heap_order.push_back(t); });
    EXPECT_EQ(mixed_order, heap_order);
    EXPECT_EQ(static_cast<int>(mixed_order.size()), tag);
  }
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
  pool.Init(/*num_nodes=*/1, /*shards=*/1);

  QueryTask t1;
  t1.id = 1;
  t1.exec_time = 100 * kMillisecond;
  EXPECT_TRUE(pool.Enqueue(0, pool.Ship(0, t1), /*work=*/5.0));  // was idle
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 5.0);
  QueryTask t2 = t1;
  t2.id = 2;
  // Already has work.
  EXPECT_FALSE(pool.Enqueue(0, pool.Ship(0, t2), /*work=*/3.0));
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 8.0);

  EXPECT_EQ(pool.QueueLength(0), 2);
  EXPECT_EQ(pool.Backlog(0, 0), 200 * kMillisecond);

  QueryTask running = pool.BeginNext(0, 0);
  EXPECT_EQ(running.id, 1);
  EXPECT_EQ(pool.QueueLength(0), 1);  // the running task left the FIFO
  // Halfway through the first task the backlog is 150 ms.
  EXPECT_EQ(pool.Backlog(0, 50 * kMillisecond), 150 * kMillisecond);

  EXPECT_TRUE(pool.CompleteCurrent(0, 100 * kMillisecond));  // more waits
  // Cumulative work counts what was ever assigned, finished or not.
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 8.0);
  pool.BeginNext(0, 100 * kMillisecond);
  EXPECT_FALSE(pool.CompleteCurrent(0, 200 * kMillisecond));
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 8.0);
  EXPECT_EQ(pool.completed(0), 2);
  EXPECT_EQ(pool.busy_time(0), 200 * kMillisecond);
  EXPECT_EQ(pool.last_idle_at(0), 200 * kMillisecond);

  // Idle again, the node starts the next enqueue at once; busy with an
  // empty queue, it does not.
  QueryTask t3 = t1;
  t3.id = 3;
  EXPECT_TRUE(pool.Enqueue(0, pool.Ship(0, t3), /*work=*/5.0));
  pool.BeginNext(0, 200 * kMillisecond);
  EXPECT_EQ(pool.Running(0).id, 3);
  QueryTask t4 = t1;
  t4.id = 4;
  EXPECT_FALSE(pool.Enqueue(0, pool.Ship(0, t4), /*work=*/5.0));
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 18.0);
}

/// A node the id hash places on another lane than node 0.
catalog::NodeId NodeApartFromZero(const NodePool& pool) {
  for (catalog::NodeId j = 1; j < pool.num_nodes(); ++j) {
    if (pool.shard_of(j) != pool.shard_of(0)) return j;
  }
  return -1;
}

TEST(NodePoolTest, ShippedSlotsAreLinkedNotCopiedAndDiscardFreesThem) {
  NodePool pool;
  pool.Init(/*num_nodes=*/8, /*shards=*/2);
  catalog::NodeId apart = NodeApartFromZero(pool);
  ASSERT_GE(apart, 0);
  QueryTask t;
  t.id = 1;
  t.exec_time = 100 * kMillisecond;
  int32_t first = pool.Ship(0, t);
  // The lane edits the record in place before it enqueues the slot.
  pool.Shipped(0, first).exec_time = 300 * kMillisecond;
  EXPECT_TRUE(pool.Enqueue(0, first, /*work=*/0.0));
  EXPECT_EQ(pool.Backlog(0, 0), 300 * kMillisecond);
  EXPECT_EQ(pool.BeginNext(0, 0).exec_time, 300 * kMillisecond);
  // A discarded shipment never reaches the queue, and its slot is reused.
  t.id = 2;
  int32_t shed = pool.Ship(0, t);
  pool.Discard(0, shed);
  EXPECT_EQ(pool.QueueLength(0), 0);
  t.id = 3;
  EXPECT_EQ(pool.Ship(0, t), shed);
  // The other lane has its own arena.
  EXPECT_EQ(pool.Ship(apart, t), 0);
}

TEST(NodePoolTest, LanesPartitionNodesByTheIdHash) {
  NodePool pool;
  pool.Init(/*num_nodes=*/64, /*shards=*/4);
  EXPECT_EQ(pool.shards(), 4);
  for (catalog::NodeId j = 0; j < pool.num_nodes(); ++j) {
    EXPECT_EQ(pool.shard_of(j), HashShard(j, 4));
  }
  // A lane count below one runs as one lane.
  pool.Init(/*num_nodes=*/3, /*shards=*/0);
  EXPECT_EQ(pool.shards(), 1);
  EXPECT_EQ(pool.shard_of(2), 0);
}

TEST(NodePoolTest, RunningTaskKeepsItsSlotUntilCompleteCurrent) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1);
  QueryTask t;
  t.id = 1;
  t.exec_time = 100 * kMillisecond;
  int32_t running = pool.Ship(0, t);
  ASSERT_TRUE(pool.Enqueue(0, running, /*work=*/0.0));
  pool.BeginNext(0, 0);
  // Shipments while the task runs never take its slot.
  t.id = 2;
  int32_t queued = pool.Ship(0, t);
  EXPECT_NE(queued, running);
  EXPECT_FALSE(pool.Enqueue(0, queued, /*work=*/0.0));
  t.id = 3;
  int32_t shed = pool.Ship(0, t);
  EXPECT_NE(shed, running);
  pool.Discard(0, shed);
  EXPECT_EQ(pool.Running(0).id, 1);
  // Completion frees the slot, and the next shipment reuses it.
  EXPECT_TRUE(pool.CompleteCurrent(0, 100 * kMillisecond));
  EXPECT_EQ(pool.Ship(0, t), running);
}

TEST(NodePoolTest, CrashReturnsTheRunningTaskFirstAndFreesEverySlot) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1);
  std::vector<int32_t> shipped;
  for (int q = 1; q <= 3; ++q) {
    QueryTask t;
    t.id = q;
    t.exec_time = 100 * kMillisecond;
    shipped.push_back(pool.Ship(0, t));
    pool.Enqueue(0, shipped.back(), /*work=*/0.0);
  }
  pool.BeginNext(0, 0);
  std::vector<QueryTask> lost;
  pool.Crash(0, 30 * kMillisecond, &lost);
  ASSERT_EQ(lost.size(), 3u);
  EXPECT_EQ(lost[0].id, 1);  // the running task first
  EXPECT_EQ(lost[1].id, 2);
  EXPECT_EQ(lost[2].id, 3);
  // The next three shipments reuse exactly the freed slots, the running
  // one included; only a fourth grows the arena.
  std::vector<int32_t> reused;
  for (int i = 0; i < 3; ++i) reused.push_back(pool.Ship(0, QueryTask()));
  std::sort(shipped.begin(), shipped.end());
  std::sort(reused.begin(), reused.end());
  EXPECT_EQ(reused, shipped);
  EXPECT_EQ(pool.Ship(0, QueryTask()), 3);
}

TEST(NodePoolTest, EvictWorseQueuedNeverEvictsTheRunningTask) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1);
  const std::vector<double> class_cost = {1.0, 9.0};
  QueryTask expensive;
  expensive.id = 1;
  expensive.arrival.class_id = 1;
  expensive.exec_time = 100 * kMillisecond;
  QueryTask cheap = expensive;
  cheap.id = 2;
  cheap.arrival.class_id = 0;
  pool.Enqueue(0, pool.Ship(0, expensive), class_cost[1]);
  pool.BeginNext(0, 0);
  pool.Enqueue(0, pool.Ship(0, cheap), class_cost[0]);
  QueryTask victim;
  ASSERT_TRUE(pool.EvictWorseQueued(0, class_cost, 0.5, &victim));
  EXPECT_EQ(victim.id, 2);  // the queued task, though cheaper
  EXPECT_EQ(pool.QueueLength(0), 0);
  // The evicted task's units stay charged.
  EXPECT_DOUBLE_EQ(pool.CumulativeWork(0), 10.0);
  // Only the running task is left, and it is never a victim.
  EXPECT_FALSE(pool.EvictWorseQueued(0, class_cost, 0.5, &victim));
  EXPECT_EQ(pool.Running(0).id, 1);
}

TEST(NodePoolTest, BacklogCountsTheRunningTasksRemainder) {
  NodePool pool;
  pool.Init(/*num_nodes=*/1, /*shards=*/1);
  QueryTask t;
  t.exec_time = 100 * kMillisecond;
  pool.Enqueue(0, pool.Ship(0, t), /*work=*/0.0);
  pool.BeginNext(0, 0);
  t.exec_time = 50 * kMillisecond;
  pool.Enqueue(0, pool.Ship(0, t), /*work=*/0.0);
  // 70 ms left of the running task plus the queued 50 ms.
  EXPECT_EQ(pool.Backlog(0, 30 * kMillisecond), 120 * kMillisecond);
  // Past its end the running task adds nothing.
  EXPECT_EQ(pool.Backlog(0, 100 * kMillisecond), 50 * kMillisecond);
  pool.CompleteCurrent(0, 100 * kMillisecond);
  EXPECT_EQ(pool.Backlog(0, 100 * kMillisecond), 50 * kMillisecond);
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

TEST_F(FederationTest, UnsortedTraceRunsInKeyOrder) {
  // A hand-built trace, never sorted: the arrivals that break the
  // mediator stream's key order go to its heap, and every arrival still
  // fires at its (time, stamp) key. The pinned metrics are what the
  // heap-only mediator queue produced for this trace, at a market and a
  // zero-lookahead fence, with a crash whose edges ride the node lane.
  struct Row {
    int ms;
    query::QueryClassId k;
    catalog::NodeId origin;
  };
  const Row rows[] = {{700, 0, 0},  {0, 1, 1},    {0, 0, 0},   {1500, 1, 0},
                      {200, 1, 1},  {200, 0, 1},  {90, 1, 0},  {3000, 0, 0},
                      {1100, 1, 1}, {2500, 0, 1}, {400, 1, 0}, {50, 0, 0}};
  workload::Trace trace;
  for (const Row& row : rows) {
    workload::Arrival a;
    a.time = row.ms * kMillisecond;
    a.class_id = row.k;
    a.origin = row.origin;
    trace.Add(a);
  }
  const std::pair<const char*, const char*> expected[] = {
      {"QA-NT",
       R"({"arrivals":12,"completed":12,"assigned":13,"dropped":0,)"
       R"("expired":0,"shed":0,"admission_rejects":0,"retries":10,)"
       R"("bounced":0,"lost":1,"messages":105,"solicited":46,)"
       R"("events_dispatched":106,"end_time_us":3437500,)"
       R"("total_busy_us":3159500,"mean_ms":491.3333333333333,)"
       R"("p50_ms":403.0,"p95_ms":1203.4999999999993,)"
       R"("p99_ms":1683.1000000000006,"min_ms":103.0,"max_ms":1803.0,)"
       R"("throughput_qps":3.4909090909090907,"dropped_per_class":[0,0],)"
       R"("retries_per_class":[6,4],"completed_per_class":[6,6]})"},
      {"Greedy",
       R"({"arrivals":12,"completed":12,"assigned":13,"dropped":0,)"
       R"("expired":0,"shed":0,"admission_rejects":0,"retries":0,)"
       R"("bounced":0,"lost":1,"messages":65,"solicited":0,)"
       R"("events_dispatched":96,"end_time_us":3437500,)"
       R"("total_busy_us":3347000,"mean_ms":508.0,"p50_ms":478.0,)"
       R"("p95_ms":962.9999999999994,"p99_ms":1315.0000000000005,)"
       R"("min_ms":103.0,"max_ms":1403.0,)"
       R"("throughput_qps":3.4909090909090907,"dropped_per_class":[0,0],)"
       R"("retries_per_class":[0,0],"completed_per_class":[6,6]})"},
  };
  for (const auto& [mechanism, json] : expected) {
    SCOPED_TRACE(mechanism);
    auto model = BuildFig1CostModel();
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    params.period = 500 * kMillisecond;
    auto alloc = allocation::CreateAllocator(mechanism, params);
    FederationConfig config;
    config.period = 500 * kMillisecond;
    config.faults.crashes.push_back(
        {1, 800 * kMillisecond, 1600 * kMillisecond});
    Federation fed(model.get(), alloc.get(), config);
    EXPECT_EQ(MetricsToJson(fed.Run(trace)).Dump(), json);
  }
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

using FederationDeathTest = FederationTest;

TEST_F(FederationDeathTest, SecondRunAborts) {
  auto model = BuildFig1CostModel();
  allocation::AllocatorParams params;
  params.cost_model = model.get();
  auto alloc = allocation::CreateAllocator("Greedy", params);
  Federation fed(model.get(), alloc.get(), FederationConfig());
  workload::Trace trace = MakeTrace(3, 1 * kSecond, 0);
  EXPECT_EQ(fed.Run(trace).completed, 3);
  EXPECT_DEATH(fed.Run(trace), "FATAL: Federation::Run called twice");
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

TEST(CapacityDeathTest, EstimateAbortsOnBadMix) {
  TwoClassConfig config;
  config.num_nodes = 4;
  util::Rng rng(42);
  auto model = BuildTwoClassCostModel(config, rng);
  EXPECT_DEATH(EstimateCapacityQps(*model, {1.0}, 500 * kMillisecond),
               "FATAL: EstimateCapacityQps: .*mix has 1 entries for 2");
  EXPECT_DEATH(EstimateCapacityQps(*model, {0.0, 0.0}, 500 * kMillisecond),
               "FATAL: EstimateCapacityQps: .*mix sums to 0");
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
