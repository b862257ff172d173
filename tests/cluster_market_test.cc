// Tests of the hierarchical two-tier market (DESIGN.md §12): ClusterPlan
// validation, idle members' default plans, the top tier's ledger and
// routing rule (density ranking, the first-solicited fallback, settling),
// hand-computed two-cluster routing through the allocator, the
// incremental publish against a from-scratch member sum, the
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
#include "lone_agent.h"
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

/// Heap allocations made and blocks freed by this test binary so far (see
/// operator new and delete below); the allocation-bound tests read them
/// around the calls they pin.
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_frees{0};

void CountFree(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

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
[[gnu::noinline]] void operator delete(void* p) noexcept { CountFree(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  CountFree(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  CountFree(p);
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

// ----------------------------------------------------- default plans

TEST(DefaultPlanTest, DefaultPlannedSupplyMatchesFreshAgent) {
  std::vector<util::VDuration> costs = {50 * kMillisecond,
                                        200 * kMillisecond};
  market::QaNtConfig config;
  market::LoneAgent fresh(7, costs, 500 * kMillisecond, config);
  fresh.BeginPeriod();
  // The default plan is the fresh agent's eq.-4 plan, floored at 1 for
  // every evaluable class (budget-elastic admission accepts a first query
  // of any evaluable class, even into debt).
  DefaultPlanScratch scratch(2, 500 * kMillisecond, config);
  const market::QuantityVector& plan = DefaultPlannedSupply(costs, &scratch);
  for (int k = 0; k < plan.num_classes(); ++k) {
    EXPECT_EQ(plan[k], std::max(fresh.planned_supply()[k],
                                market::Quantity{1}))
        << "class " << k;
  }
}

// One scratch plans member after member: nothing of one node's plan (its
// class list, costs or supply) may leak into the next one's.
TEST(DefaultPlanTest, DefaultPlannedSupplyReusesScratchExactly) {
  constexpr int kClasses = 5;
  constexpr util::VDuration kMenu[] = {
      query::kInfeasibleCost, 60 * kMillisecond, 125 * kMillisecond,
      250 * kMillisecond, 700 * kMillisecond};
  market::QaNtConfig config;
  config.initial_price = 0.5;
  config.price_floor = 2.0;  // the clamp decides the starting prices
  DefaultPlanScratch scratch(kClasses, 500 * kMillisecond, config);
  util::Rng rng(5);
  for (int node = 0; node < 200; ++node) {
    std::vector<util::VDuration> costs(kClasses);
    for (util::VDuration& cost : costs) cost = kMenu[rng.UniformInt(0, 4)];
    market::LoneAgent fresh(node, costs, 500 * kMillisecond, config);
    fresh.BeginPeriod();
    const market::QuantityVector& plan =
        DefaultPlannedSupply(costs, &scratch);
    for (int k = 0; k < kClasses; ++k) {
      market::Quantity expected = fresh.planned_supply()[k];
      if (fresh.CanEvaluate(k)) {
        expected = std::max(expected, market::Quantity{1});
      }
      ASSERT_EQ(plan[k], expected) << "node " << node << " class " << k;
    }
  }
}

TEST(DefaultPlanTest, DefaultPlannedSupplyFloorsEvaluableClasses) {
  // Class 0 cannot fit in the budget (cost > budget) but is evaluable, so
  // the floor advertises 1; class 1 is infeasible and stays 0.
  std::vector<util::VDuration> costs = {800 * kMillisecond,
                                        query::kInfeasibleCost};
  market::QaNtConfig config;
  DefaultPlanScratch scratch(2, 500 * kMillisecond, config);
  const market::QuantityVector& plan = DefaultPlannedSupply(costs, &scratch);
  EXPECT_EQ(plan[0], 1);
  EXPECT_EQ(plan[1], 0);
}

// ------------------------------------------- top-tier ledger and routing

constexpr util::VDuration kPeriod = 500 * kMillisecond;

/// The ledger `market` reports for `cluster`; cluster -1 and no entries
/// when the cluster is not active.
obs::ClusterStateSnapshot Ledger(const ClusterMarket& market, int cluster) {
  for (const obs::ClusterStateSnapshot& ledger : market.Snapshot()) {
    if (ledger.cluster == cluster) return ledger;
  }
  return {};
}

/// The clusters `market` has activated, in id order.
std::vector<int> ActiveClusters(const ClusterMarket& market) {
  std::vector<int> active;
  for (const obs::ClusterStateSnapshot& ledger : market.Snapshot()) {
    active.push_back(ledger.cluster);
  }
  return active;
}

// A top tier over `plan` whose members have no agent: a book with a row
// for every node that lists nothing and builds none, as under a cluster
// plan, so every cluster publishes its members' default plans.
struct TopTier {
  TopTier(const query::CostModel* model, const ClusterPlan& plan)
      : book(model->num_nodes(), model->num_classes(), kPeriod, {}),
        market(model, plan, {}, kPeriod, SolicitationConfig{},
               /*seed=*/1) {}

  market::ClearingBook book;
  ClusterMarket market;
};

// With T = 500 ms, cluster 1 = {node 1: 250 ms} publishes 2 units of
// class 0 and none of class 1, which no member can run. A sale takes one
// unit off the ledger (none past zero, where the fallback route still
// sells), a failed member auction zeroes the class, and the next global
// boundary's publish restores it; neither rewrites the published plan or
// what was sold.
TEST(ClusterMarketTest, LedgerTracksPublishSellExhaust) {
  query::MatrixCostModel model(/*num_classes=*/2, /*num_nodes=*/2);
  model.SetCost(0, 0, 100 * kMillisecond);
  model.SetCost(1, 0, 100 * kMillisecond);
  model.SetCost(0, 1, 250 * kMillisecond);
  ClusterPlan plan;
  plan.clusters = {{0}, {1}};
  TopTier top(&model, plan);
  EXPECT_TRUE(top.market.Snapshot().empty());  // nothing published yet

  top.market.EnsureActive(1, top.book);
  obs::ClusterStateSnapshot ledger = Ledger(top.market, 1);
  EXPECT_EQ(ledger.cluster, 1);
  EXPECT_EQ(ledger.published, (std::vector<int64_t>{2, 0}));
  EXPECT_EQ(ledger.remaining, (std::vector<int64_t>{2, 0}));
  EXPECT_EQ(ledger.sold, (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(ActiveClusters(top.market), std::vector<int>{1});

  top.market.Settle(1, 0, /*sold=*/true);
  ledger = Ledger(top.market, 1);
  EXPECT_EQ(ledger.remaining[0], 1);
  EXPECT_EQ(ledger.published[0], 2);  // published is the period's plan
  top.market.Settle(1, 0, /*sold=*/true);
  top.market.Settle(1, 0, /*sold=*/true);  // sold past the ledger
  ledger = Ledger(top.market, 1);
  EXPECT_EQ(ledger.remaining[0], 0);  // sold out
  EXPECT_EQ(ledger.sold[0], 3);

  top.market.OnTick(kPeriod, top.book);  // next period restores the ledger
  ledger = Ledger(top.market, 1);
  EXPECT_EQ(ledger.remaining[0], 2);
  top.market.Settle(1, 0, /*sold=*/false);  // tier-2 all-decline correction
  ledger = Ledger(top.market, 1);
  EXPECT_EQ(ledger.remaining[0], 0);
  EXPECT_EQ(ledger.published[0], 2);  // the plan is not rewritten
  EXPECT_EQ(ledger.sold[0], 3);       // nor is what was sold
}

// Density, not quote, ranks the offers. With T = 500 ms, cluster 0 =
// {node 0: 50 ms} publishes 10 units at a 50 ms quote and cluster 1 =
// {nodes 1, 2: 100 ms} publishes 5 + 5 = 10 units at 100 ms. Cluster 0 is
// the denser until five sales leave it 5 / 50 ms, a tie that goes to the
// earlier solicited; after a sixth, the dearer cluster, with more left,
// takes the arrival though the cheap one still offers.
TEST(ClusterMarketTest, DensityNotQuotePicksTheCluster) {
  query::MatrixCostModel model(/*num_classes=*/1, /*num_nodes=*/3);
  model.SetCost(0, 0, 50 * kMillisecond);
  model.SetCost(0, 1, 100 * kMillisecond);
  model.SetCost(0, 2, 100 * kMillisecond);
  ClusterPlan plan;
  plan.clusters = {{0}, {1, 2}};  // top tier broadcasts by default
  TopTier top(&model, plan);

  int asked = 0;
  EXPECT_EQ(top.market.Route(0, /*seq=*/0, top.book, &asked), 0);
  EXPECT_EQ(asked, 2);
  EXPECT_EQ(Ledger(top.market, 0).published[0], 10);
  EXPECT_EQ(Ledger(top.market, 1).published[0], 10);
  EXPECT_LT(top.market.Quote(0, 0), top.market.Quote(1, 0));

  for (int sale = 0; sale < 5; ++sale) top.market.Settle(0, 0, true);
  EXPECT_EQ(top.market.Route(0, /*seq=*/1, top.book, &asked), 0);  // tie
  top.market.Settle(0, 0, true);
  EXPECT_EQ(Ledger(top.market, 0).remaining[0], 4);
  EXPECT_EQ(top.market.Route(0, /*seq=*/2, top.book, &asked), 1);
  EXPECT_EQ(asked, 2);
}

// When every solicited ledger is empty, the first solicited cluster takes
// the arrival — not the cheapest: an empty aggregate says nothing about a
// member mid-period, and the member auction settles the round.
TEST(ClusterMarketTest, EmptyLedgersFallBackToTheFirstSolicitedCluster) {
  query::MatrixCostModel model(/*num_classes=*/1, /*num_nodes=*/3);
  model.SetCost(0, 0, 100 * kMillisecond);  // cluster 0: 5 units
  model.SetCost(0, 1, 50 * kMillisecond);   // cluster 1: 10 + 10 units
  model.SetCost(0, 2, 50 * kMillisecond);
  ClusterPlan plan;
  plan.clusters = {{0}, {1, 2}};
  TopTier top(&model, plan);

  int asked = 0;
  EXPECT_EQ(top.market.Route(0, /*seq=*/0, top.book, &asked), 1);
  top.market.Settle(1, 0, /*sold=*/false);
  EXPECT_EQ(top.market.Route(0, /*seq=*/1, top.book, &asked), 0);
  top.market.Settle(0, 0, /*sold=*/false);
  EXPECT_EQ(Ledger(top.market, 0).remaining[0], 0);
  EXPECT_EQ(Ledger(top.market, 1).remaining[0], 0);
  EXPECT_EQ(top.market.Route(0, /*seq=*/2, top.book, &asked), 0);
  EXPECT_EQ(asked, 2);
}

// A class no member of any cluster can evaluate routes nowhere: the top
// index lists no cluster for it, so no cluster is asked or activated.
TEST(ClusterMarketTest, ClassNoClusterCanEvaluateRoutesNowhere) {
  query::MatrixCostModel model(/*num_classes=*/2, /*num_nodes=*/2);
  model.SetCost(0, 0, 100 * kMillisecond);
  model.SetCost(0, 1, 100 * kMillisecond);  // class 1 runs nowhere
  ClusterPlan plan;
  plan.clusters = {{0}, {1}};
  TopTier top(&model, plan);

  int asked = -1;
  EXPECT_EQ(top.market.Route(1, /*seq=*/0, top.book, &asked), -1);
  EXPECT_EQ(asked, 0);
  EXPECT_TRUE(top.market.Snapshot().empty());
  EXPECT_EQ(top.market.Quote(0, 1), query::kInfeasibleCost);
}

// A failed member auction zeroes the routed cluster's class, so the next
// arrival goes to the other cluster; the next global boundary's publish
// (and not an earlier tick) restores it.
TEST(ClusterMarketTest, FailedAuctionZeroesTheClassUntilTheNextPublish) {
  query::MatrixCostModel model(/*num_classes=*/1, /*num_nodes=*/2);
  model.SetCost(0, 0, 100 * kMillisecond);  // cluster 0: 5 units
  model.SetCost(0, 1, 50 * kMillisecond);   // cluster 1: 10 units
  ClusterPlan plan;
  plan.clusters = {{0}, {1}};
  TopTier top(&model, plan);

  int asked = 0;
  EXPECT_EQ(top.market.Route(0, /*seq=*/0, top.book, &asked), 1);
  top.market.Settle(1, 0, /*sold=*/false);
  EXPECT_EQ(Ledger(top.market, 1).remaining[0], 0);
  EXPECT_EQ(Ledger(top.market, 1).published[0], 10);
  EXPECT_EQ(top.market.Route(0, /*seq=*/1, top.book, &asked), 0);

  top.market.OnTick(kPeriod - 1, top.book);  // before the boundary
  EXPECT_EQ(Ledger(top.market, 1).remaining[0], 0);
  top.market.OnTick(kPeriod, top.book);
  EXPECT_EQ(Ledger(top.market, 1).remaining[0], 10);
  EXPECT_EQ(top.market.Route(0, /*seq=*/2, top.book, &asked), 1);
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
// units at a 50 ms quote, cluster 1 = {node2: 10ms, node3: 200ms} 50 + 2 =
// 52 at 10 ms. Both offer; cluster 1's density, 52 units / 10 ms, beats
// cluster 0's 15 / 50 ms, so the query routes to cluster 1 and lands on
// node 2 in the tier-2 auction.
TEST(ClusterMarketTest, RoutesToDensestOfferingCluster) {
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
  obs::ClusterStateSnapshot ledger = Ledger(*market, 1);
  EXPECT_EQ(ledger.published[0], 52);
  EXPECT_EQ(ledger.remaining[0], 51);  // one unit sold
  EXPECT_EQ(ledger.sold[0], 1);
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
  EXPECT_EQ(Ledger(*allocator.cluster_market(), 1).remaining[0], 0);
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
    costs[static_cast<size_t>(k)] = model.Cost(k, node);
  }
  DefaultPlanScratch scratch(model.num_classes(), period, config);
  return DefaultPlannedSupply(costs, &scratch);
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
      for (int c : ActiveClusters(market)) {
        if (restarted_idle_member) break;
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
    for (const obs::ClusterStateSnapshot& ledger : market.Snapshot()) {
      ++checks;
      EXPECT_EQ(market::QuantityVector(ledger.published).ToString(),
                FromScratchAggregate(
                    allocator, model,
                    plan.clusters[static_cast<size_t>(ledger.cluster)],
                    kPeriod, config)
                    .ToString())
          << "cluster " << ledger.cluster << " at t=" << now;
    }
  }
  EXPECT_TRUE(restarted_idle_member);
  EXPECT_EQ(ActiveClusters(market), (std::vector<int>{0, 1, 2, 3}));
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
  EXPECT_EQ(ActiveClusters(*allocator.cluster_market()).size(), 1u);
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
  const ClusterMarket& market = *allocator.cluster_market();
  ASSERT_EQ(ActiveClusters(market), (std::vector<int>{0, 1, 2, 3}));
  allocator.OnPeriodStart(kPeriod);  // first boundary: warm every buffer
  // Sell into every cluster, so that each ledger shows a unit sold since
  // its last publish.
  for (int i = 0; i < 64; ++i) allocator.Allocate(arrival, context);
  for (const obs::ClusterStateSnapshot& ledger : market.Snapshot()) {
    ASSERT_LT(ledger.remaining[0], ledger.published[0])
        << "cluster " << ledger.cluster;
  }

  int64_t periods = allocator.agent(served).stats().periods;
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  allocator.OnPeriodStart(2 * kPeriod);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(allocator.agent(served).stats().periods, periods + 1);
  // Every cluster republished: its sold units are back in the ledger.
  std::vector<obs::ClusterStateSnapshot> ledgers = market.Snapshot();
  ASSERT_EQ(ledgers.size(), 4u);
  for (const obs::ClusterStateSnapshot& ledger : ledgers) {
    EXPECT_EQ(ledger.remaining[0], ledger.published[0])
        << "cluster " << ledger.cluster;
  }
}

/// Heap allocations made while a flat QaNtAllocator over `nodes` nodes
/// builds every agent, in shuffled node order, and blocks freed when it is
/// torn down.
struct BuildCost {
  int64_t allocations;
  int64_t frees;
};
BuildCost BuildEveryAgent(int nodes) {
  query::MatrixCostModel model(/*num_classes=*/2, nodes);
  std::vector<catalog::NodeId> order;
  for (catalog::NodeId node = 0; node < nodes; ++node) {
    model.SetCost(0, node, (100 + 50 * (node % 7)) * kMillisecond);
    if (node % 3 != 0) model.SetCost(1, node, 800 * kMillisecond);
    order.push_back(node);
  }
  util::Rng rng(3);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  SolicitationConfig one;
  one.policy = SolicitationPolicy::kUniformSample;
  one.fanout = 1;
  auto allocator = std::make_unique<QaNtAllocator>(
      &model, 500 * kMillisecond, market::QaNtConfig{},
      market::OfferSelection::kCheapest, one, /*seed=*/1);
  allocator->OnPeriodStart(kSecond);  // a build replays two rollovers
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (catalog::NodeId node : order) allocator->agent(node);
  BuildCost cost;
  cost.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocator->agent(order.back()).stats().periods, 3);
  before = g_frees.load(std::memory_order_relaxed);
  allocator.reset();
  cost.frees = g_frees.load(std::memory_order_relaxed) - before;
  return cost;
}

// The agents are rows of one pool, whose block the allocator's clearing
// book allocates once, at construction, with a row for every node; what a
// build still allocates is the allocator's next-boundary array, which
// grows geometrically: building N agents makes O(log N) heap allocations,
// and tearing them down frees as many blocks for 10,000 agents as for
// 1,000.
TEST(ClusterMarketAllocationTest, BuildingAgentsAllocatesLogarithmically) {
  BuildCost small = BuildEveryAgent(1000);
  BuildCost large = BuildEveryAgent(10000);
  EXPECT_LE(large.allocations, 64);
  EXPECT_LT(large.allocations, small.allocations + 16);
  EXPECT_EQ(large.frees, small.frees);
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

// A hierarchical market reads each (class, node) cost at most three
// times: once for the cluster quotes, once when the member's cluster
// activates (its member index and, for a member without an agent, its
// default plan share that read), and once when the member's agent is
// built (the agent, and the default plan it takes out of the idle sum,
// share that read). It builds no federation-wide candidate index (only
// the flat market solicits from one), and no index calls the model per
// comparison.
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
  ASSERT_EQ(ActiveClusters(*allocator.cluster_market()).size(),
            static_cast<size_t>(plan.num_clusters()));
  EXPECT_LE(counting.calls(), 3 * kClasses * kNodes);
}

// Only a stratified sampler reads a cost order, so only the indexes one
// solicits from keep one: the top index under a stratified top tier, and
// the member indexes under a stratified member tier.
TEST(ClusterMarketTest, CostOrderOnlyWhereAStratifiedSamplerReadsIt) {
  constexpr int kNodes = 48;
  query::MatrixCostModel model(/*num_classes=*/2, kNodes);
  for (int node = 0; node < kNodes; ++node) {
    model.SetCost(0, node, (100 + 25 * (node % 5)) * kMillisecond);
    if (node % 2 == 0) model.SetCost(1, node, 300 * kMillisecond);
  }
  for (bool top_stratified : {false, true}) {
    for (bool member_stratified : {false, true}) {
      ClusterPlan plan = ClusterPlan::Uniform(kNodes, 4, /*top_fanout=*/2);
      if (top_stratified) {
        plan.top.policy = SolicitationPolicy::kStratifiedSample;
      }
      SolicitationConfig members;
      members.policy = member_stratified
                           ? SolicitationPolicy::kStratifiedSample
                           : SolicitationPolicy::kUniformSample;
      members.fanout = 3;
      QaNtAllocator allocator(&model, 500 * kMillisecond, {},
                              market::OfferSelection::kCheapest, members,
                              /*seed=*/5, plan);
      IdleContext context(&model);
      workload::Arrival arrival;
      for (int i = 0; i < 16; ++i) {
        arrival.class_id = i % 2;
        allocator.Allocate(arrival, context);
      }
      const ClusterMarket& market = *allocator.cluster_market();
      EXPECT_EQ(market.cluster_candidates().has_cost_order(), top_stratified);
      std::vector<int> active = ActiveClusters(market);
      for (int c : active) {
        EXPECT_EQ(market.member_candidates(c).has_cost_order(),
                  member_stratified)
            << "cluster " << c;
      }
      EXPECT_GT(active.size(), 1u);
    }
  }
}

// ------------------------------------------------ flat/hier equivalence

struct RunOutput {
  std::string trace;
  std::string metrics;
  sim::SimMetrics totals;
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
    out.totals = result.metrics;
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

// A stratified top tier, the one reader of the top index's cost order:
// its run keeps the accounting identities, and shards 1 and 4 give the
// same bytes at any thread count.
TEST(HierarchyEquivalenceTest, StratifiedTopTierKeepsAccountingAcrossShards) {
  ClusterPlan plan = ClusterPlan::Uniform(12, 3, /*top_fanout=*/2);
  RunOutput uniform_top = RunScenario(plan, /*shards=*/1, /*threads=*/1);
  plan.top.policy = SolicitationPolicy::kStratifiedSample;
  RunOutput inline_run = RunScenario(plan, /*shards=*/1, /*threads=*/1);
  ASSERT_GT(inline_run.trace.size(), 0u);
  EXPECT_NE(inline_run.trace, uniform_top.trace);

  const sim::SimMetrics& m = inline_run.totals;
  EXPECT_GT(m.arrivals, 0);
  EXPECT_GT(m.completed, 0);
  EXPECT_EQ(m.arrivals, m.completed + m.dropped);
  EXPECT_LE(m.expired, m.dropped);
  EXPECT_LE(m.shed, m.dropped);
  EXPECT_GE(m.assigned, m.completed);
  int64_t per_class_drops = 0;
  for (int64_t d : m.dropped_per_class) per_class_drops += d;
  EXPECT_EQ(per_class_drops, m.dropped);

  std::istringstream stream(inline_run.trace);
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  int64_t arrivals = 0;
  int64_t completes = 0;
  int64_t routed = 0;
  for (const obs::EventRecord& event : parsed->events) {
    switch (event.kind) {
      case obs::EventRecord::Kind::kArrival:
        ++arrivals;
        break;
      case obs::EventRecord::Kind::kComplete:
        ++completes;
        break;
      case obs::EventRecord::Kind::kAssign:
        // Two of the three clusters asked: a draw from the strata of the
        // quote order, not a broadcast.
        EXPECT_EQ(event.clusters_asked, 2);
        ++routed;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(arrivals, m.arrivals);
  EXPECT_EQ(completes, m.completed);
  EXPECT_EQ(routed, m.assigned);

  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      if (shards == 1 && threads == 1) continue;
      RunOutput other = RunScenario(plan, shards, threads);
      EXPECT_EQ(other.trace, inline_run.trace)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(other.metrics, inline_run.metrics)
          << "shards=" << shards << " threads=" << threads;
    }
  }
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
