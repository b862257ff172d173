// Tests of the hierarchical two-tier market (DESIGN.md §12): ClusterPlan
// validation, the aggregate-supply ledger, hand-computed two-cluster
// routing, the incremental publish against a from-scratch member sum, the
// allocation bounds of activation and of the per-tick upkeep, and the
// central equivalence anchor — a 1-cluster hierarchy reproduces flat QA-NT
// byte for byte (trace + metrics) at every shard/thread combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "allocation/cluster_market.h"
#include "allocation/cluster_plan.h"
#include "allocation/qa_nt_allocator.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"
#include "market/cluster_supply.h"
#include "obs/recorder.h"
#include "obs/trace_reader.h"
#include "query/cost_model.h"
#include "sim/federation.h"
#include "sim/metrics_json.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/task_runner.h"
#include "workload/sinusoid.h"

namespace {

/// Heap allocations made by this test binary so far (see operator new
/// below); the allocation-bound tests read it around the calls they pin.
std::atomic<int64_t> g_allocations{0};

}  // namespace

// The nothrow form (std::stable_sort's temporary buffer) is replaced too,
// so every block the deletes below free() came from malloc(). The deletes
// stay out of line: inlined next to a std::vector's allocation, GCC would
// pair the free() with the builtin operator new and warn about a
// mismatched deallocation.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qa::allocation {
namespace {

using util::kMillisecond;
using util::kSecond;

// --------------------------------------------------- ClusterPlan::Validate

TEST(ClusterPlanTest, PlanWithoutClustersIsFlatAndAlwaysValid) {
  ClusterPlan plan;  // lists no cluster: `top` is ignored
  plan.top.policy = SolicitationPolicy::kUniformSample;
  plan.top.fanout = 0;  // would be rejected in a plan with clusters
  EXPECT_TRUE(plan.Validate(10).ok());
  EXPECT_FALSE(plan.hierarchical());
}

TEST(ClusterPlanTest, SingleClusterPlanIsFlatButChecked) {
  ClusterPlan plan;
  plan.clusters = {{99}};  // one cluster runs flat, but its list is checked
  EXPECT_FALSE(plan.hierarchical());
  util::Status status = plan.Validate(10);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("outside [0, 10)"), std::string::npos);
  plan.clusters = {{0, 1, 2, 3}};
  EXPECT_TRUE(plan.Validate(4).ok());
  EXPECT_FALSE(plan.hierarchical());
}

TEST(ClusterPlanTest, NodeInNoClusterIsRejected) {
  ClusterPlan plan;
  plan.clusters = {{0, 1}, {3}};  // node 2 unplaced
  util::Status status = plan.Validate(4);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no cluster"), std::string::npos);
}

TEST(ClusterPlanTest, NodeInTwoClustersIsRejected) {
  ClusterPlan plan;
  plan.clusters = {{0, 1}, {1, 2, 3}};
  util::Status status = plan.Validate(4);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("more than one"), std::string::npos);
}

TEST(ClusterPlanTest, OutOfRangeMemberIsRejected) {
  ClusterPlan plan;
  plan.clusters = {{0, 1, 2, 3}, {4}};
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.clusters = {{0, 1, 2, -1}};
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(ClusterPlanTest, BadTopTierFanoutIsRejected) {
  ClusterPlan plan;
  plan.clusters = {{0, 1}, {2, 3}};
  plan.top.policy = SolicitationPolicy::kUniformSample;
  plan.top.fanout = 0;  // sampled top tier needs fanout >= 1
  util::Status status = plan.Validate(4);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("top tier"), std::string::npos);
}

TEST(ClusterPlanTest, EmptyClusterIsLegal) {
  ClusterPlan plan;
  plan.clusters = {{0, 1, 2, 3}, {}};  // empty cluster: never offers
  EXPECT_TRUE(plan.Validate(4).ok());
  EXPECT_TRUE(plan.hierarchical());
}

TEST(ClusterPlanTest, UniformBuilderPartitionsEveryNode) {
  ClusterPlan plan = ClusterPlan::Uniform(10, 3, /*top_fanout=*/2);
  EXPECT_TRUE(plan.Validate(10).ok());
  EXPECT_EQ(plan.num_clusters(), 3);
  EXPECT_TRUE(plan.hierarchical());
  EXPECT_EQ(plan.top.policy, SolicitationPolicy::kUniformSample);
  EXPECT_EQ(plan.top.fanout, 2);
  size_t total = 0;
  for (const auto& members : plan.clusters) total += members.size();
  EXPECT_EQ(total, 10u);
  // top_fanout <= 0 selects top-tier broadcast.
  EXPECT_EQ(ClusterPlan::Uniform(10, 3, 0).top.policy,
            SolicitationPolicy::kBroadcast);
}

// ValidateConfig funnels plan validation: a federation run can never start
// on a malformed cluster plan at either tier.
TEST(ClusterPlanTest, ValidateConfigRejectsMalformedPlans) {
  sim::FederationConfig config;
  EXPECT_TRUE(sim::ValidateConfig(config, 4).ok());  // flat default

  config.cluster_plan.clusters = {{0, 1}, {3}};  // node 2 unplaced
  EXPECT_FALSE(sim::ValidateConfig(config, 4).ok());

  config.cluster_plan.clusters = {{0, 1}, {2, 3}};
  EXPECT_TRUE(sim::ValidateConfig(config, 4).ok());

  config.cluster_plan.top.policy = SolicitationPolicy::kStratifiedSample;
  config.cluster_plan.top.fanout = -1;  // fanout <= 0 at the top tier
  EXPECT_FALSE(sim::ValidateConfig(config, 4).ok());
  config.cluster_plan.top.fanout = 1;
  EXPECT_TRUE(sim::ValidateConfig(config, 4).ok());

  // fanout <= 0 at the member tier is still rejected too.
  config.solicitation.policy = SolicitationPolicy::kUniformSample;
  config.solicitation.fanout = 0;
  EXPECT_FALSE(sim::ValidateConfig(config, 4).ok());
}

// -------------------------------------------------------- supply ledger

TEST(ClusterSupplyAgentTest, LedgerTracksPublishSellExhaust) {
  market::ClusterSupplyAgent agent(/*cluster=*/3, /*num_classes=*/2);
  EXPECT_EQ(agent.cluster(), 3);
  EXPECT_FALSE(agent.OnSolicited(0));  // nothing published yet

  market::QuantityVector aggregate(2);
  aggregate[0] = 2;
  aggregate[1] = 0;
  agent.Publish(aggregate);
  EXPECT_TRUE(agent.OnSolicited(0));
  EXPECT_FALSE(agent.OnSolicited(1));  // zero supply for class 1

  agent.OnSold(0);
  EXPECT_EQ(agent.remaining()[0], 1);
  EXPECT_EQ(agent.published()[0], 2);  // published is the period's plan
  agent.OnSold(0);
  EXPECT_FALSE(agent.OnSolicited(0));  // sold out
  EXPECT_EQ(agent.sold()[0], 2);

  agent.Publish(aggregate);  // next period restores the ledger
  EXPECT_EQ(agent.remaining()[0], 2);  // both sold units are back
  EXPECT_TRUE(agent.OnSolicited(0));
  agent.MarkExhausted(0);  // tier-2 all-decline correction
  EXPECT_FALSE(agent.OnSolicited(0));
  EXPECT_EQ(agent.remaining()[0], 0);
  EXPECT_EQ(agent.published()[0], 2);  // the plan is not rewritten
  EXPECT_EQ(agent.sold()[0], 2);       // nor is what was sold
}

TEST(ClusterSupplyAgentTest, DefaultPlannedSupplyMatchesFreshAgent) {
  std::vector<util::VDuration> costs = {50 * kMillisecond,
                                        200 * kMillisecond};
  market::QaNtConfig config;
  market::QaNtAgent fresh(7, costs, 500 * kMillisecond, config);
  fresh.BeginPeriod();
  // The default plan is the fresh agent's eq.-4 plan, floored at 1 for
  // every evaluable class (budget-elastic admission accepts a first query
  // of any evaluable class, even into debt).
  market::DefaultPlanScratch scratch(2, 500 * kMillisecond, config);
  const market::QuantityVector& plan =
      market::DefaultPlannedSupply(costs, &scratch);
  for (int k = 0; k < plan.num_classes(); ++k) {
    EXPECT_EQ(plan[k], std::max(fresh.planned_supply()[k],
                                market::Quantity{1}))
        << "class " << k;
  }
}

// One scratch plans member after member: nothing of one node's plan (its
// class list, costs or supply) may leak into the next one's.
TEST(ClusterSupplyAgentTest, DefaultPlannedSupplyReusesScratchExactly) {
  constexpr int kClasses = 5;
  constexpr util::VDuration kMenu[] = {
      market::CapacitySupplySet::kCannotEvaluate, 60 * kMillisecond,
      125 * kMillisecond, 250 * kMillisecond, 700 * kMillisecond};
  market::QaNtConfig config;
  config.initial_price = 0.5;
  config.price_floor = 2.0;  // the clamp decides the starting prices
  market::DefaultPlanScratch scratch(kClasses, 500 * kMillisecond, config);
  util::Rng rng(5);
  for (int node = 0; node < 200; ++node) {
    std::vector<util::VDuration> costs(kClasses);
    for (util::VDuration& cost : costs) cost = kMenu[rng.UniformInt(0, 4)];
    market::QaNtAgent fresh(node, costs, 500 * kMillisecond, config);
    fresh.BeginPeriod();
    const market::QuantityVector& plan =
        market::DefaultPlannedSupply(costs, &scratch);
    for (int k = 0; k < kClasses; ++k) {
      market::Quantity expected = fresh.planned_supply()[k];
      if (fresh.CanEvaluate(k)) {
        expected = std::max(expected, market::Quantity{1});
      }
      ASSERT_EQ(plan[k], expected) << "node " << node << " class " << k;
    }
  }
}

TEST(ClusterSupplyAgentTest, DefaultPlannedSupplyFloorsEvaluableClasses) {
  // Class 0 cannot fit in the budget (cost > budget) but is evaluable, so
  // the floor advertises 1; class 1 is infeasible and stays 0.
  std::vector<util::VDuration> costs = {
      800 * kMillisecond, market::CapacitySupplySet::kCannotEvaluate};
  market::QaNtConfig config;
  market::DefaultPlanScratch scratch(2, 500 * kMillisecond, config);
  const market::QuantityVector& plan =
      market::DefaultPlannedSupply(costs, &scratch);
  EXPECT_EQ(plan[0], 1);
  EXPECT_EQ(plan[1], 0);
}

// ------------------------------------------------- two-cluster routing

/// Minimal read-only context (every node online, no live state).
class IdleContext : public AllocationContext {
 public:
  explicit IdleContext(const query::CostModel* model) : model_(model) {}
  int num_nodes() const override { return model_->num_nodes(); }
  const query::CostModel& cost_model() const override { return *model_; }
  util::VDuration NodeBacklog(catalog::NodeId) const override { return 0; }
  double NodeCumulativeWork(catalog::NodeId) const override { return 0.0; }
  util::VTime now() const override { return 0; }

 private:
  const query::CostModel* model_;
};

// Hand-computed routing over known aggregate supplies: with T = 500 ms and
// one class, cluster 0 = {node0: 100ms, node1: 50ms} publishes 5 + 10 = 15
// units, cluster 1 = {node2: 10ms, node3: 200ms} publishes 50 + 2 = 52.
// Both offer; cluster 1 quotes 10 ms < cluster 0's 50 ms, so the query
// routes to cluster 1 and lands on node 2 in the tier-2 auction.
TEST(ClusterMarketTest, RoutesToCheapestOfferingCluster) {
  query::MatrixCostModel model(/*num_classes=*/1, /*num_nodes=*/4);
  model.SetCost(0, 0, 100 * kMillisecond);
  model.SetCost(0, 1, 50 * kMillisecond);
  model.SetCost(0, 2, 10 * kMillisecond);
  model.SetCost(0, 3, 200 * kMillisecond);

  ClusterPlan plan;
  plan.clusters = {{0, 1}, {2, 3}};  // top tier broadcasts by default
  ASSERT_TRUE(plan.Validate(4).ok());

  QaNtAllocator allocator(&model, 500 * kMillisecond, {},
                          market::OfferSelection::kCheapest, {},
                          /*seed=*/1, plan);
  IdleContext context(&model);
  workload::Arrival arrival;
  arrival.class_id = 0;

  AllocationDecision decision = allocator.Allocate(arrival, context);
  EXPECT_EQ(decision.cluster, 1);
  EXPECT_EQ(decision.node, 2);
  EXPECT_EQ(decision.clusters_solicited, 2);
  EXPECT_EQ(decision.solicited, 2);
  // 2 messages per solicited sub-mediator + 2 per asked member + accept.
  EXPECT_EQ(decision.messages, 2 * 2 + 2 * 2 + 1);

  const ClusterMarket* market = allocator.cluster_market();
  ASSERT_NE(market, nullptr);
  EXPECT_EQ(market->Quote(0, 0), 50 * kMillisecond);
  EXPECT_EQ(market->Quote(1, 0), 10 * kMillisecond);
  EXPECT_EQ(market->agent(1).published()[0], 52);
  EXPECT_EQ(market->agent(1).remaining()[0], 51);  // one unit sold
  EXPECT_EQ(market->agent(1).sold()[0], 1);
  EXPECT_EQ(market->cluster_of(1), 0);
  EXPECT_EQ(market->cluster_of(3), 1);
}

// Once the preferred cluster's ledger runs dry the top market routes
// follow-up queries to the other cluster — no member messages are wasted
// on a cluster that published zero remaining supply.
TEST(ClusterMarketTest, ExhaustedClusterRoutesElsewhere) {
  query::MatrixCostModel model(/*num_classes=*/1, /*num_nodes=*/2);
  model.SetCost(0, 0, 100 * kMillisecond);  // cluster 0: supply 1
  model.SetCost(0, 1, 50 * kMillisecond);   // cluster 1: supply 2

  ClusterPlan plan;
  plan.clusters = {{0}, {1}};
  QaNtAllocator allocator(&model, 100 * kMillisecond, {},
                          market::OfferSelection::kCheapest, {},
                          /*seed=*/1, plan);
  IdleContext context(&model);
  workload::Arrival arrival;
  arrival.class_id = 0;

  // Two sales drain cluster 1's published aggregate of 2 units...
  EXPECT_EQ(allocator.Allocate(arrival, context).cluster, 1);
  EXPECT_EQ(allocator.Allocate(arrival, context).cluster, 1);
  EXPECT_EQ(allocator.cluster_market()->agent(1).remaining()[0], 0);
  // ...so the third query routes to cluster 0 without soliciting node 1.
  AllocationDecision third = allocator.Allocate(arrival, context);
  EXPECT_EQ(third.cluster, 0);
  EXPECT_EQ(third.node, 0);
}

// ------------------------------------------- incremental publish

/// The default plan of `node`'s fresh agent, from a scratch of its own.
market::QuantityVector FreshDefaultPlan(const query::CostModel& model,
                                        catalog::NodeId node,
                                        util::VDuration period,
                                        const market::QaNtConfig& config) {
  std::vector<util::VDuration> costs(
      static_cast<size_t>(model.num_classes()));
  for (int k = 0; k < model.num_classes(); ++k) {
    util::VDuration c = model.Cost(k, node);
    costs[static_cast<size_t>(k)] =
        c == query::kInfeasibleCost ? market::CapacitySupplySet::kCannotEvaluate
                                    : c;
  }
  market::DefaultPlanScratch scratch(model.num_classes(), period, config);
  return market::DefaultPlannedSupply(costs, &scratch);
}

/// A cluster's aggregate summed from scratch over *all* its members: the
/// live remaining supply of every member with an agent, the default plan
/// of every other one.
market::QuantityVector FromScratchAggregate(
    const QaNtAllocator& allocator, const query::CostModel& model,
    const std::vector<catalog::NodeId>& members, util::VDuration period,
    const market::QaNtConfig& config) {
  obs::AllocatorSnapshot snapshot = allocator.Snapshot();
  market::QuantityVector sum(model.num_classes());
  for (catalog::NodeId node : members) {
    auto agent = std::find_if(
        snapshot.agents.begin(), snapshot.agents.end(),
        [node](const obs::AgentStateSnapshot& a) { return a.node == node; });
    if (agent == snapshot.agents.end()) {
      sum += FreshDefaultPlan(model, node, period, config);
    } else {
      sum += market::QuantityVector(agent->remaining_supply);
    }
  }
  return sum;
}

// The published aggregate is kept incrementally (idle default plans summed
// once, members moved to the live list as their agents appear); after
// every global boundary it must equal the sum over all members. Members
// go live every way an agent can appear: first contact in the tier-2
// auction, the agent() accessor and restarts — of members of inactive
// clusters, of never-contacted members of active clusters, and of live
// members.
TEST(ClusterMarketTest, IncrementalPublishEqualsFromScratchSum) {
  constexpr int kClasses = 2;
  constexpr int kNodes = 48;
  constexpr int kClusters = 4;
  constexpr util::VDuration kPeriod = 500 * kMillisecond;
  query::MatrixCostModel model(kClasses, kNodes);
  util::Rng rng(21);
  for (int k = 0; k < kClasses; ++k) {
    for (int node = 0; node < kNodes; ++node) {
      // Costs above the period exercise the floor at 1.
      if (rng.Bernoulli(0.8)) {
        model.SetCost(k, node, rng.UniformInt(40, 700) * kMillisecond);
      }
    }
  }
  ClusterPlan plan = ClusterPlan::Uniform(kNodes, kClusters, /*top_fanout=*/1);
  SolicitationConfig members;
  members.policy = SolicitationPolicy::kUniformSample;
  members.fanout = 3;
  market::QaNtConfig config;
  QaNtAllocator allocator(&model, kPeriod, config,
                          market::OfferSelection::kCheapest, members,
                          /*seed=*/3, plan);
  const ClusterMarket& market = *allocator.cluster_market();
  IdleContext context(&model);

  // Agents that exist before their cluster activates.
  allocator.OnNodeRestart(plan.clusters[3][0], 0);
  allocator.agent(plan.clusters[2][1]);

  int checks = 0;
  bool restarted_idle_member = false;
  catalog::NodeId served = kNoNode;
  for (int step = 1; step <= 60; ++step) {
    util::VTime now = step * 100 * kMillisecond;
    for (int a = 0; a < 3; ++a) {
      workload::Arrival arrival;
      arrival.class_id = static_cast<int>(rng.UniformInt(0, kClasses - 1));
      catalog::NodeId node = allocator.Allocate(arrival, context).node;
      if (node != kNoNode) served = node;
    }
    if (step % 7 == 0) {
      allocator.OnNodeRestart(
          static_cast<catalog::NodeId>(rng.UniformInt(0, kNodes - 1)), now);
    }
    if (step == 23) {
      ASSERT_NE(served, kNoNode);
      allocator.OnNodeRestart(served, now);  // a live member
    }
    if (!restarted_idle_member) {
      // Restart a never-contacted member of an already active cluster.
      obs::AllocatorSnapshot snapshot = allocator.Snapshot();
      for (int c = 0; c < kClusters && !restarted_idle_member; ++c) {
        if (!market.active(c)) continue;
        for (catalog::NodeId node : plan.clusters[static_cast<size_t>(c)]) {
          bool built = std::any_of(
              snapshot.agents.begin(), snapshot.agents.end(),
              [node](const obs::AgentStateSnapshot& a) {
                return a.node == node;
              });
          if (built) continue;
          allocator.OnNodeRestart(node, now);
          restarted_idle_member = true;
          break;
        }
      }
    }
    allocator.OnPeriodStart(now);
    if (now % kPeriod != 0) continue;  // not a global boundary
    for (int c = 0; c < kClusters; ++c) {
      if (!market.active(c)) continue;
      ++checks;
      EXPECT_EQ(market.agent(c).published().ToString(),
                FromScratchAggregate(allocator, model,
                                     plan.clusters[static_cast<size_t>(c)],
                                     kPeriod, config)
                    .ToString())
          << "cluster " << c << " at t=" << now;
    }
  }
  EXPECT_TRUE(restarted_idle_member);
  for (int c = 0; c < kClusters; ++c) {
    EXPECT_TRUE(market.active(c)) << "cluster " << c;
  }
  EXPECT_GE(checks, 30);
}

// ------------------------------------------------ allocation bounds

/// Heap allocations made by the first Allocate into a federation of two
/// `members`-member clusters, K = 2: it activates one cluster (top fanout
/// 1) and builds one member agent (member fanout 1).
int64_t FirstAllocateAllocations(int members) {
  int nodes = 2 * members;
  query::MatrixCostModel model(/*num_classes=*/2, nodes);
  for (int node = 0; node < nodes; ++node) {
    model.SetCost(0, node, (100 + 50 * (node % 7)) * kMillisecond);
    if (node % 3 != 0) model.SetCost(1, node, 800 * kMillisecond);
  }
  SolicitationConfig one;
  one.policy = SolicitationPolicy::kUniformSample;
  one.fanout = 1;
  QaNtAllocator allocator(&model, 500 * kMillisecond, {},
                          market::OfferSelection::kCheapest, one,
                          /*seed=*/1, ClusterPlan::Uniform(nodes, 2, 1));
  IdleContext context(&model);
  workload::Arrival arrival;
  arrival.class_id = 0;
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  AllocationDecision decision = allocator.Allocate(arrival, context);
  int64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_NE(decision.node, kNoNode);
  EXPECT_NE(allocator.cluster_market()->active(0),
            allocator.cluster_market()->active(1));
  return made;
}

// Activation sums its idle members' default plans without building an
// agent or a plan vector per member, so a 1,000-member cluster costs the
// same number of heap allocations as a 250-member one.
TEST(ClusterMarketAllocationTest, ActivationAllocationsDoNotGrowWithMembers) {
  int64_t small = FirstAllocateAllocations(250);
  int64_t large = FirstAllocateAllocations(1000);
  EXPECT_EQ(large, small);
  EXPECT_LE(large, 64);
}

// Steady-state upkeep: a tick that rolls agents over and republishes every
// active cluster allocates nothing.
TEST(ClusterMarketAllocationTest, TickMakesNoHeapAllocation) {
  constexpr int kNodes = 48;
  constexpr util::VDuration kPeriod = 500 * kMillisecond;
  query::MatrixCostModel model(/*num_classes=*/2, kNodes);
  for (int node = 0; node < kNodes; ++node) {
    model.SetCost(0, node, (100 + 25 * (node % 5)) * kMillisecond);
    if (node % 2 == 0) model.SetCost(1, node, 300 * kMillisecond);
  }
  SolicitationConfig members;
  members.policy = SolicitationPolicy::kUniformSample;
  members.fanout = 4;
  QaNtAllocator allocator(&model, kPeriod, {},
                          market::OfferSelection::kCheapest, members,
                          /*seed=*/2,
                          ClusterPlan::Uniform(kNodes, 4, /*top_fanout=*/0));
  IdleContext context(&model);
  workload::Arrival arrival;
  arrival.class_id = 0;
  catalog::NodeId served = allocator.Allocate(arrival, context).node;
  ASSERT_NE(served, kNoNode);
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(allocator.cluster_market()->active(c)) << "cluster " << c;
  }
  allocator.OnPeriodStart(kPeriod);  // first boundary: warm every buffer
  // Sell into every cluster, so that each ledger shows a unit sold since
  // its last publish.
  for (int i = 0; i < 64; ++i) allocator.Allocate(arrival, context);
  const ClusterMarket& market = *allocator.cluster_market();
  for (int c = 0; c < 4; ++c) {
    ASSERT_LT(market.agent(c).remaining()[0], market.agent(c).published()[0])
        << "cluster " << c;
  }

  int64_t periods = allocator.agent(served).stats().periods;
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  allocator.OnPeriodStart(2 * kPeriod);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(allocator.agent(served).stats().periods, periods + 1);
  // Every cluster republished: its sold units are back in the ledger.
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(market.agent(c).remaining()[0], market.agent(c).published()[0])
        << "cluster " << c;
  }
}

// ------------------------------------------------ construction cost

/// Counts CostModel::Cost calls made through it.
class CountingCostModel : public query::CostModel {
 public:
  explicit CountingCostModel(const query::CostModel* inner) : inner_(inner) {}
  int num_classes() const override { return inner_->num_classes(); }
  int num_nodes() const override { return inner_->num_nodes(); }
  util::VDuration Cost(query::QueryClassId k,
                       catalog::NodeId node) const override {
    ++calls_;
    return inner_->Cost(k, node);
  }
  int64_t calls() const { return calls_; }

 private:
  const query::CostModel* inner_;
  mutable int64_t calls_ = 0;
};

// A hierarchical market reads costs O(1) times per (class, node): for the
// cluster quotes, each activated cluster's member index and its members'
// default plans, and, for a member whose agent is built, the agent and the
// default plan it takes out of the idle sum. It builds no federation-wide
// candidate index (only the flat market solicits from one), and the
// indexes it does build sort on costs read once rather than calling the
// model per comparison.
TEST(ClusterMarketTest, ConstructionReadsEachCostAConstantNumberOfTimes) {
  constexpr int kClasses = 3;
  constexpr int kNodes = 4096;
  query::MatrixCostModel model(kClasses, kNodes);
  util::Rng rng(11);
  for (int k = 0; k < kClasses; ++k) {
    for (int node = 0; node < kNodes; ++node) {
      // Class 0 runs everywhere, so one class-0 arrival under a
      // broadcast top tier activates every cluster.
      if (k == 0 || rng.Bernoulli(0.7)) {
        model.SetCost(k, node, rng.UniformInt(50, 900) * kMillisecond);
      }
    }
  }
  CountingCostModel counting(&model);
  ClusterPlan plan = ClusterPlan::Uniform(kNodes, 64, /*top_fanout=*/0);
  QaNtAllocator allocator(&counting, 500 * kMillisecond, {},
                          market::OfferSelection::kCheapest, {},
                          /*seed=*/1, plan);
  IdleContext context(&model);
  workload::Arrival arrival;
  arrival.class_id = 0;
  allocator.Allocate(arrival, context);
  for (int c = 0; c < plan.num_clusters(); ++c) {
    ASSERT_TRUE(allocator.cluster_market()->active(c)) << "cluster " << c;
  }
  EXPECT_LE(counting.calls(), 4 * kClasses * kNodes);
}

// ------------------------------------------------ flat/hier equivalence

struct RunOutput {
  std::string trace;
  std::string metrics;
  /// Fork-joins the run issued on its runner.
  int parallel_fors = 0;
};

/// Forwards to a pool runner and counts the fork-joins issued on it. Only
/// the mediator thread issues them, so the count needs no atomic.
class CountingRunner final : public util::TaskRunner {
 public:
  explicit CountingRunner(const util::TaskRunner* inner) : inner_(inner) {}
  int concurrency() const override { return inner_->concurrency(); }
  void ParallelFor(int n,
                   const std::function<void(int)>& fn) const override {
    ++calls_;
    inner_->ParallelFor(n, fn);
  }
  int calls() const { return calls_; }

 private:
  const util::TaskRunner* inner_;
  mutable int calls_ = 0;
};

/// Federation size and member-tier solicitation of RunScenario.
struct Shape {
  int num_nodes = 12;
  SolicitationConfig solicitation = {SolicitationPolicy::kUniformSample, 4};
};

/// Runs a two-class federation under QA-NT (by default 12 nodes,
/// uniform-4), optionally under a cluster plan, at the given shard/thread
/// layout, and returns the full trace bytes plus the metrics JSON.
RunOutput RunScenario(const ClusterPlan& plan, int shards, int threads,
                      const Shape& shape = {}) {
  util::Rng rng(11);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = shape.num_nodes;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  workload::SinusoidConfig workload;
  workload.q1_peak_rate = 30.0;
  workload.frequency_hz = 0.5;
  workload.duration = 2 * kSecond;
  workload.num_origin_nodes = shape.num_nodes;
  util::Rng wl_rng(12);
  workload::Trace trace = workload::GenerateSinusoidWorkload(workload, wl_rng);

  RunOutput out;
  std::ostringstream sink;
  {
    exec::ThreadPool pool(threads);
    exec::PoolRunner pool_runner(&pool);
    CountingRunner runner(&pool_runner);
    obs::Recorder recorder(&sink);
    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.mechanism = "QA-NT";
    spec.trace = &trace;
    spec.period = 500 * kMillisecond;
    spec.seed = 11;
    spec.config.solicitation = shape.solicitation;
    spec.config.cluster_plan = plan;
    spec.config.recorder = &recorder;
    spec.config.shards = shards;
    if (threads > 1 || shards > 1) spec.config.runner = &runner;
    exec::RunResult result = exec::RunSpecOnce(spec);
    recorder.Finish();
    out.metrics = sim::MetricsToJson(result.metrics).Dump();
    out.parallel_fors = runner.calls();
  }
  out.trace = std::move(sink).str();
  return out;
}

// The equivalence anchor: a 1-cluster hierarchy is the flat market — same
// trace bytes, same metrics — at every shard/thread combination. This is
// what guarantees that a plan with nothing to cluster can never perturb
// a federation.
TEST(HierarchyEquivalenceTest, OneClusterHierarchyIsByteIdenticalToFlat) {
  ClusterPlan one_cluster;
  one_cluster.clusters.resize(1);
  for (catalog::NodeId node = 0; node < 12; ++node) {
    one_cluster.clusters[0].push_back(node);
  }
  one_cluster.top.policy = SolicitationPolicy::kUniformSample;
  one_cluster.top.fanout = 2;

  RunOutput flat = RunScenario(ClusterPlan{}, /*shards=*/1, /*threads=*/1);
  ASSERT_GT(flat.trace.size(), 0u);
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      RunOutput hier = RunScenario(one_cluster, shards, threads);
      EXPECT_EQ(hier.trace, flat.trace)
          << "1-cluster hierarchy diverged from flat QA-NT at shards="
          << shards << " threads=" << threads;
      EXPECT_EQ(hier.metrics, flat.metrics)
          << "metrics diverged at shards=" << shards
          << " threads=" << threads;
    }
  }
}

// The genuinely hierarchical run must itself be placement-independent:
// identical bytes at every shard/thread layout (the two-stage dispatch
// lives on the mediator lane, so sharding stays an execution detail).
TEST(HierarchyEquivalenceTest, ThreeClusterRunIsByteIdenticalAcrossShards) {
  ClusterPlan plan = ClusterPlan::Uniform(12, 3, /*top_fanout=*/2);
  RunOutput inline_run = RunScenario(plan, /*shards=*/1, /*threads=*/1);
  ASSERT_GT(inline_run.trace.size(), 0u);

  // A hierarchical run actually is different from the flat market.
  RunOutput flat = RunScenario(ClusterPlan{}, /*shards=*/1, /*threads=*/1);
  EXPECT_NE(inline_run.trace, flat.trace);

  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      if (shards == 1 && threads == 1) continue;
      RunOutput other = RunScenario(plan, shards, threads);
      EXPECT_EQ(other.trace, inline_run.trace)
          << "hierarchical run diverged at shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(other.metrics, inline_run.metrics);
    }
  }

  // The hierarchical trace carries the v5 cluster observability: meta
  // cluster fields, per-attempt cluster routing, and snapshot records.
  std::istringstream stream(inline_run.trace);
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->meta.clusters, 3);
  EXPECT_EQ(parsed->meta.top_fanout, 2);
  EXPECT_GT(parsed->clusters.size(), 0u);
  bool saw_routed_assign = false;
  for (const obs::EventRecord& event : parsed->events) {
    if (event.kind == obs::EventRecord::Kind::kAssign &&
        event.cluster >= 0) {
      saw_routed_assign = true;
      EXPECT_GT(event.clusters_asked, 0);
    }
  }
  EXPECT_TRUE(saw_routed_assign);
}

// A wide member auction never forks: two 256-member clusters under member
// broadcast put every class-0 auction, first contacts included, at 192 or
// more solicited members, yet a shards=1 run (one lane, so a lane drain
// with nothing to fan out) issues no fork-join on its concurrency-8
// runner. The run must not depend on the layout either.
TEST(HierarchyEquivalenceTest,
     WideTierTwoAuctionNeverForksAndIsLayoutInvariant) {
  Shape shape;
  shape.num_nodes = 512;
  shape.solicitation = {};  // broadcast
  ClusterPlan plan = ClusterPlan::Uniform(512, 2, /*top_fanout=*/1);
  RunOutput serial = RunScenario(plan, /*shards=*/1, /*threads=*/1, shape);
  for (int shards : {1, 4}) {
    RunOutput parallel = RunScenario(plan, shards, /*threads=*/8, shape);
    EXPECT_EQ(parallel.trace, serial.trace) << "shards=" << shards;
    EXPECT_EQ(parallel.metrics, serial.metrics) << "shards=" << shards;
    if (shards == 1) {
      EXPECT_EQ(parallel.parallel_fors, 0);
    }
  }

  std::istringstream stream(serial.trace);
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  int widest = 0;
  for (const obs::EventRecord& event : parsed->events) {
    widest = std::max(widest, event.solicited);
  }
  EXPECT_GE(widest, 192);
}

}  // namespace
}  // namespace qa::allocation
