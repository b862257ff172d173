#include <cmath>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "allocation/baselines.h"
#include "allocation/factory.h"
#include "allocation/markov.h"
#include "allocation/qa_nt_allocator.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::allocation {
namespace {

using util::kMillisecond;

/// A hand-rolled context for unit tests: fixed backlogs/work.
class FakeContext : public AllocationContext {
 public:
  FakeContext(const query::CostModel* model) : model_(model) {
    backlog_.resize(static_cast<size_t>(model->num_nodes()), 0);
    cumulative_.resize(static_cast<size_t>(model->num_nodes()), 0.0);
  }

  int num_nodes() const override { return model_->num_nodes(); }
  const query::CostModel& cost_model() const override { return *model_; }
  util::VDuration NodeBacklog(catalog::NodeId node) const override {
    return backlog_[static_cast<size_t>(node)];
  }
  double NodeCumulativeWork(catalog::NodeId node) const override {
    return cumulative_[static_cast<size_t>(node)];
  }
  util::VTime now() const override { return 0; }

  void SetBacklog(catalog::NodeId node, util::VDuration backlog) {
    backlog_[static_cast<size_t>(node)] = backlog;
  }
  void SetCumulativeWork(catalog::NodeId node, double work) {
    cumulative_[static_cast<size_t>(node)] = work;
  }

 private:
  const query::CostModel* model_;
  std::vector<util::VDuration> backlog_;
  std::vector<double> cumulative_;
};

std::unique_ptr<query::MatrixCostModel> ThreeNodeModel() {
  // Class 0 runs on all three nodes with different speeds; class 1 only on
  // node 2.
  auto model = std::make_unique<query::MatrixCostModel>(2, 3);
  model->SetCost(0, 0, 100 * kMillisecond);
  model->SetCost(0, 1, 200 * kMillisecond);
  model->SetCost(0, 2, 400 * kMillisecond);
  model->SetCost(1, 2, 300 * kMillisecond);
  return model;
}

workload::Arrival MakeArrival(query::QueryClassId k) {
  workload::Arrival a;
  a.time = 0;
  a.class_id = k;
  a.origin = 0;
  return a;
}

TEST(RandomAllocatorTest, OnlyPicksFeasibleNodes) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  RandomAllocator alloc(42);
  for (int i = 0; i < 50; ++i) {
    AllocationDecision d = alloc.Allocate(MakeArrival(1), ctx);
    EXPECT_EQ(d.node, 2);  // only node 2 can run class 1
    EXPECT_EQ(d.messages, 1);
  }
}

TEST(RandomAllocatorTest, SpreadsAcrossFeasibleNodes) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  RandomAllocator alloc(42);
  std::map<catalog::NodeId, int> counts;
  for (int i = 0; i < 300; ++i) {
    ++counts[alloc.Allocate(MakeArrival(0), ctx).node];
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [node, count] : counts) EXPECT_GT(count, 50);
}

TEST(RoundRobinAllocatorTest, CyclesThroughNodes) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  RoundRobinAllocator alloc;
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 1);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 2);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
}

TEST(RoundRobinAllocatorTest, PerClassCursors) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  RoundRobinAllocator alloc;
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
  // Class 1 has its own cursor and only one feasible node.
  EXPECT_EQ(alloc.Allocate(MakeArrival(1), ctx).node, 2);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 1);
}

TEST(GreedyAllocatorTest, PicksLeastCompletionTime) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  GreedyAllocator alloc;
  // Idle: node 0 is fastest for class 0.
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
  // Give node 0 a big backlog: node 1 becomes best (200 < 1000+100).
  ctx.SetBacklog(0, 1000 * kMillisecond);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 1);
}

TEST(BlindGreedyAllocatorTest, IgnoresBacklog) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  BlindGreedyAllocator alloc(42, /*randomization=*/0.0);
  // Node 0 is fastest for class 0, and stays chosen even with a big
  // backlog: the queue-blind variant only sees execution-time estimates.
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
  ctx.SetBacklog(0, 1000 * kMillisecond);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
}

TEST(BlindGreedyAllocatorTest, RandomizationSpreadsChoices) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  BlindGreedyAllocator alloc(42, /*randomization=*/0.6);
  std::map<catalog::NodeId, int> counts;
  for (int i = 0; i < 300; ++i) {
    ++counts[alloc.Allocate(MakeArrival(0), ctx).node];
  }
  // With heavy noise the near-fastest node 1 is picked sometimes.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], 0);
}

TEST(GreedyAllocatorTest, MessageCostCountsProbes) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  GreedyAllocator alloc;
  AllocationDecision d = alloc.Allocate(MakeArrival(0), ctx);
  EXPECT_EQ(d.messages, 2 * 3 + 1);
}

TEST(TwoProbesAllocatorTest, PicksLighterOfTwo) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  ctx.SetBacklog(0, 500 * kMillisecond);
  ctx.SetBacklog(1, 100 * kMillisecond);
  ctx.SetBacklog(2, 900 * kMillisecond);
  TwoRandomProbesAllocator alloc(42);
  // Over many draws the heaviest node (2) should be picked least often; it
  // is only chosen when the two sampled nodes are {2, heavier}, which never
  // happens since 2 is the heaviest — except pairs including only node 2
  // never exist... node 2 can be picked only if both probes hit... it
  // can't: any pair containing 2 has a lighter partner.
  for (int i = 0; i < 100; ++i) {
    AllocationDecision d = alloc.Allocate(MakeArrival(0), ctx);
    EXPECT_NE(d.node, 2);
  }
}

TEST(TwoProbesAllocatorTest, SingleFeasibleNodeShortCircuit) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  TwoRandomProbesAllocator alloc(42);
  AllocationDecision d = alloc.Allocate(MakeArrival(1), ctx);
  EXPECT_EQ(d.node, 2);
  EXPECT_EQ(d.messages, 1);
}

TEST(BnqrdAllocatorTest, BalancesCumulativeUsageNotTime) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  BnqrdAllocator alloc;
  // Node 2 (the slowest in time) has received the least usage so far:
  // BNQRD sends the query there even though node 0 would finish 4x faster.
  ctx.SetCumulativeWork(0, 100.0);
  ctx.SetCumulativeWork(1, 100.0);
  ctx.SetCumulativeWork(2, 10.0);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 2);
}

TEST(LeastImbalanceAllocatorTest, MinimizesSpread) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  LeastImbalanceAllocator alloc;
  ctx.SetBacklog(0, 300 * kMillisecond);
  ctx.SetBacklog(1, 0);
  ctx.SetBacklog(2, 300 * kMillisecond);
  // Adding class 0 to node 1 (200 ms) keeps the spread smallest.
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 1);
}

TEST(QaNtAllocatorTest, AcceptsCheapestOffer) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  QaNtAllocator alloc(model.get(), 500 * kMillisecond);
  AllocationDecision d = alloc.Allocate(MakeArrival(0), ctx);
  EXPECT_EQ(d.node, 0);  // cheapest offering node
}

TEST(QaNtAllocatorTest, DeclinesWhenSupplyExhaustedThenRecovers) {
  // One node, one class, 400 ms cost, 500 ms period: supply is 1/period.
  auto model = std::make_unique<query::MatrixCostModel>(1, 1);
  model->SetCost(0, 0, 400 * kMillisecond);
  FakeContext ctx(model.get());
  QaNtAllocator alloc(model.get(), 500 * kMillisecond);

  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
  // Second request in the same period: declined.
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, kNoNode);
  // New period: supply replenished.
  alloc.OnPeriodEnd(500 * kMillisecond);
  alloc.OnPeriodStart(500 * kMillisecond);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 0);
}

TEST(QaNtAllocatorTest, EquitableSelectionSpreadsEarnings) {
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  QaNtAllocator cheapest(model.get(), 2000 * kMillisecond);
  QaNtAllocator equitable(model.get(), 2000 * kMillisecond, {},
                          market::OfferSelection::kEquitable);
  // Several class-0 queries in one period: the cheapest policy keeps
  // hitting node 0 while it has supply; the equitable policy rotates.
  std::map<catalog::NodeId, int> cheap_counts;
  std::map<catalog::NodeId, int> fair_counts;
  for (int i = 0; i < 6; ++i) {
    ++cheap_counts[cheapest.Allocate(MakeArrival(0), ctx).node];
    ++fair_counts[equitable.Allocate(MakeArrival(0), ctx).node];
  }
  EXPECT_GE(cheap_counts[0], 4);  // node 0 dominates under cheapest
  EXPECT_GE(fair_counts.size(), 2u);  // equitable spreads
  // Earnings dispersion is lower under the equitable policy.
  auto cv = [](const QaNtAllocator& a) {
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < a.num_nodes(); ++i) {
      double e = a.agent(i).earnings();
      sum += e;
      sq += e * e;
    }
    double mean = sum / a.num_nodes();
    double var = sq / a.num_nodes() - mean * mean;
    return mean > 0 ? std::sqrt(std::max(var, 0.0)) / mean : 0.0;
  };
  EXPECT_LE(cv(equitable), cv(cheapest) + 1e-9);
}

TEST(QaNtAllocatorTest, OffersRankByTheAgentsOwnQuote) {
  // The model rates node 0 cheapest for class 0 (100 ms against 200 ms),
  // but node 1's agent has revised its own estimate down to 50 ms: that
  // is the cost its offer carries, so node 1 wins.
  auto model = ThreeNodeModel();
  FakeContext ctx(model.get());
  QaNtAllocator alloc(model.get(), 500 * kMillisecond);
  alloc.mutable_agent(1).UpdateUnitCost(0, 50 * kMillisecond);
  EXPECT_EQ(alloc.Allocate(MakeArrival(0), ctx).node, 1);
}

// Agents are rows in build order, yet the market's introspection reports
// them in node-id order.
TEST(QaNtAllocatorTest, SnapshotAndProbeKeepNodeOrderAcrossRows) {
  auto model = std::make_unique<query::MatrixCostModel>(2, 6);
  for (catalog::NodeId node = 0; node < 6; ++node) {
    model->SetCost(0, node, (100 + 50 * node) * kMillisecond);
  }
  QaNtAllocator alloc(model.get(), 500 * kMillisecond);
  for (catalog::NodeId node : {4, 1, 5, 2}) {
    alloc.mutable_agent(node).SetPrices(market::PriceVector({1.0 + node, 0.5}));
  }
  std::vector<catalog::NodeId> in_order = {1, 2, 4, 5};
  obs::AllocatorSnapshot snapshot = alloc.Snapshot();
  ASSERT_EQ(snapshot.agents.size(), in_order.size());
  obs::metrics::MarketProbe probe;
  alloc.FillMarketProbe(&probe);
  ASSERT_EQ(probe.num_agents(), in_order.size());
  for (size_t i = 0; i < in_order.size(); ++i) {
    EXPECT_EQ(snapshot.agents[i].node, in_order[i]);
    EXPECT_EQ(snapshot.agents[i].prices[0], 1.0 + in_order[i]);
    EXPECT_EQ(probe.price(i, 0), 1.0 + in_order[i]);
  }
}

TEST(QaNtAllocatorDeathTest, InvalidConfigAborts) {
  auto model = ThreeNodeModel();
  market::QaNtConfig config;
  config.price_floor = 5.0;
  config.price_cap = 3.0;
  EXPECT_DEATH(QaNtAllocator(model.get(), 500 * kMillisecond, config),
               "FATAL: QaNtAllocator: invalid QaNtConfig: .*price_floor");
}

TEST(QaNtAllocatorTest, PropertiesRespectAutonomy) {
  auto model = ThreeNodeModel();
  QaNtAllocator alloc(model.get(), 500 * kMillisecond);
  MechanismProperties p = alloc.properties();
  EXPECT_TRUE(p.respects_autonomy);
  EXPECT_TRUE(p.distributed);
  EXPECT_FALSE(p.conflicts_with_query_optimization);
}

TEST(FactoryTest, CreatesEveryMechanism) {
  auto model = ThreeNodeModel();
  AllocatorParams params;
  params.cost_model = model.get();
  for (const std::string& name : AllMechanismNames()) {
    std::unique_ptr<Allocator> alloc = CreateAllocator(name, params);
    ASSERT_NE(alloc, nullptr) << name;
    EXPECT_EQ(alloc->name(), name);
  }
  EXPECT_NE(CreateAllocator("LeastImbalance", params), nullptr);
  EXPECT_NE(CreateAllocator("GreedyBlind", params), nullptr);
  EXPECT_EQ(CreateAllocator("NoSuchThing", params), nullptr);
}

TEST(FactoryTest, BaselinePropertiesMatchTable2) {
  auto model = ThreeNodeModel();
  AllocatorParams params;
  params.cost_model = model.get();
  // Table 2: Greedy/BNQRD/TwoProbes violate autonomy; Random/RoundRobin
  // respect it; all conflict with distributed query optimization except
  // QA-NT.
  auto greedy = CreateAllocator("Greedy", params);
  EXPECT_FALSE(greedy->properties().respects_autonomy);
  EXPECT_TRUE(greedy->properties().conflicts_with_query_optimization);
  auto random = CreateAllocator("Random", params);
  EXPECT_TRUE(random->properties().respects_autonomy);
  auto bnqrd = CreateAllocator("BNQRD", params);
  EXPECT_FALSE(bnqrd->properties().respects_autonomy);
}

TEST(AllocatorTest, NoFeasibleNodeReturnsNoNode) {
  auto model = std::make_unique<query::MatrixCostModel>(1, 2);
  // Class 0 evaluable nowhere.
  FakeContext ctx(model.get());
  RandomAllocator random(42);
  EXPECT_EQ(random.Allocate(MakeArrival(0), ctx).node, kNoNode);
  GreedyAllocator greedy;
  EXPECT_EQ(greedy.Allocate(MakeArrival(0), ctx).node, kNoNode);
  BnqrdAllocator bnqrd;
  EXPECT_EQ(bnqrd.Allocate(MakeArrival(0), ctx).node, kNoNode);
}

TEST(MarkovAllocatorTest, RoutingProbabilitiesValid) {
  auto model = ThreeNodeModel();
  MarkovAllocator alloc(model.get(), {2.0, 1.0}, 42);
  for (int k = 0; k < 2; ++k) {
    double sum = 0.0;
    for (catalog::NodeId j = 0; j < 3; ++j) {
      double p = alloc.RoutingProbability(k, j);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      // No probability mass on infeasible nodes.
      if (!model->CanEvaluate(k, j)) {
        EXPECT_EQ(p, 0.0);
      }
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MarkovAllocatorTest, FasterNodesGetLargerShare) {
  auto model = ThreeNodeModel();
  // Class 0 costs 100/200/400 ms on nodes 0/1/2: under queueing-optimal
  // routing node 0 must carry at least as much as node 2.
  MarkovAllocator alloc(model.get(), {4.0, 0.5}, 42);
  EXPECT_GE(alloc.RoutingProbability(0, 0),
            alloc.RoutingProbability(0, 2));
}

TEST(MarkovAllocatorTest, AllocatesOnlyFeasibleNodes) {
  auto model = ThreeNodeModel();
  MarkovAllocator alloc(model.get(), {2.0, 1.0}, 42);
  FakeContext ctx(model.get());
  for (int i = 0; i < 100; ++i) {
    AllocationDecision d = alloc.Allocate(MakeArrival(1), ctx);
    EXPECT_EQ(d.node, 2);  // the only node able to run class 1
    EXPECT_EQ(d.messages, 1);
  }
}

TEST(MarkovAllocatorTest, ZeroRateClassFallsBackToCheapest) {
  auto model = ThreeNodeModel();
  MarkovAllocator alloc(model.get(), {2.0, 0.0}, 42);
  FakeContext ctx(model.get());
  EXPECT_EQ(alloc.Allocate(MakeArrival(1), ctx).node, 2);
}

TEST(MarkovAllocatorTest, PropertiesMatchTable2) {
  auto model = ThreeNodeModel();
  MarkovAllocator alloc(model.get(), {1.0, 1.0}, 42);
  MechanismProperties p = alloc.properties();
  EXPECT_FALSE(p.distributed);
  EXPECT_FALSE(p.handles_dynamic_workload);
  EXPECT_FALSE(p.respects_autonomy);
}

TEST(OfflineNodeTest, MechanismsRouteAroundOfflineNodes) {
  // A context where node 0 (the fastest) is offline: probing mechanisms
  // must pick someone else.
  class OfflineContext : public FakeContext {
   public:
    using FakeContext::FakeContext;
    bool NodeOnline(catalog::NodeId node) const override {
      return node != 0;
    }
  };
  auto model = ThreeNodeModel();
  OfflineContext ctx(model.get());
  GreedyAllocator greedy;
  EXPECT_EQ(greedy.Allocate(MakeArrival(0), ctx).node, 1);
  QaNtAllocator qa_nt(model.get(), 500 * kMillisecond);
  EXPECT_EQ(qa_nt.Allocate(MakeArrival(0), ctx).node, 1);
  BnqrdAllocator bnqrd;
  EXPECT_NE(bnqrd.Allocate(MakeArrival(0), ctx).node, 0);
  // Random is blind to liveness: it will still pick node 0 sometimes (the
  // federation bounces those assignments).
  RandomAllocator random(42);
  bool picked_offline = false;
  for (int i = 0; i < 100; ++i) {
    if (random.Allocate(MakeArrival(0), ctx).node == 0) {
      picked_offline = true;
    }
  }
  EXPECT_TRUE(picked_offline);
}

}  // namespace
}  // namespace qa::allocation
