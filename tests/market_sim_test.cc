#include <gtest/gtest.h>

#include "market/market_sim.h"
#include "market/pareto.h"
#include "market/tatonnement.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::market {
namespace {

using util::kMillisecond;

/// Fig. 1's two-node, two-class cost matrix.
std::unique_ptr<query::MatrixCostModel> Fig1Model() {
  auto model = std::make_unique<query::MatrixCostModel>(2, 2);
  model->SetCost(0, 0, 400 * kMillisecond);
  model->SetCost(1, 0, 100 * kMillisecond);
  model->SetCost(0, 1, 450 * kMillisecond);
  model->SetCost(1, 1, 500 * kMillisecond);
  return model;
}

TEST(MarketSimTest, UnderloadedMarketServesAllDemand) {
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  MarketSimulator sim(model.get(), config);

  // Small demand well within capacity.
  std::vector<QuantityVector> demand = {QuantityVector({1, 2}),
                                        QuantityVector({0, 0})};
  MarketSimulator::PeriodResult result = sim.RunPeriod(demand);
  EXPECT_EQ(result.aggregate_consumption.Total(), 3);
  EXPECT_TRUE(result.unserved.IsZero());
}

TEST(MarketSimTest, SupplyEqualsConsumptionEveryPeriod) {
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  MarketSimulator sim(model.get(), config);
  std::vector<QuantityVector> demand = {QuantityVector({2, 3}),
                                        QuantityVector({1, 1})};
  for (int t = 0; t < 10; ++t) {
    MarketSimulator::PeriodResult result = sim.RunPeriod(demand);
    // Eq. (3): aggregate supply == aggregate consumption <= demand.
    EXPECT_EQ(Aggregate(result.supplies), result.aggregate_consumption);
    EXPECT_TRUE(result.aggregate_consumption.ComponentwiseLeq(
        result.aggregate_demand));
  }
}

TEST(MarketSimTest, UnservedQueriesRollOver) {
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 500 * kMillisecond;
  MarketSimulator sim(model.get(), config);
  // Overwhelm the q1 capacity in one burst; leftovers must persist.
  std::vector<QuantityVector> burst = {QuantityVector({20, 0}),
                                       QuantityVector({0, 0})};
  MarketSimulator::PeriodResult r1 = sim.RunPeriod(burst);
  EXPECT_GT(r1.unserved.Total(), 0);
  std::vector<QuantityVector> nothing = {QuantityVector(2),
                                         QuantityVector(2)};
  MarketSimulator::PeriodResult r2 = sim.RunPeriod(nothing);
  // Demand in period 2 is exactly period 1's leftovers.
  EXPECT_EQ(r2.aggregate_demand, r1.unserved);
}

TEST(MarketSimTest, Proposition31ExcessDemandVanishes) {
  // Steady feasible demand: limt z(p) = 0 in the long-run trading sense —
  // the backlog of unserved queries must stay bounded (every injected
  // query is eventually served), even though the integer-valued supply
  // vectors make individual periods oscillate around equilibrium.
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  config.agent.lambda = 0.1;
  MarketSimulator sim(model.get(), config);

  // Demand (2, 6) per period is well within capacity: N1 can serve the six
  // q2 (600 ms) and N2 the two q1 (900 ms).
  std::vector<QuantityVector> demand = {QuantityVector({1, 6}),
                                        QuantityVector({1, 0})};
  const int periods = 60;
  Quantity injected = 0;
  Quantity consumed = 0;
  Quantity max_backlog = 0;
  for (int t = 0; t < periods; ++t) {
    MarketSimulator::PeriodResult r = sim.RunPeriod(demand);
    injected += Aggregate(demand).Total();
    consumed += r.aggregate_consumption.Total();
    max_backlog = std::max(max_backlog, r.unserved.Total());
  }
  // Nearly everything injected is served, and the rolling backlog never
  // exceeds a couple of periods' worth of demand (bounded, not divergent).
  EXPECT_GE(consumed, injected - 3 * Aggregate(demand).Total());
  EXPECT_LE(max_backlog, 3 * Aggregate(demand).Total());
}

TEST(MarketSimTest, EquilibriumAllocationIsParetoOptimal) {
  // The First Theorem of Welfare Economics, checked constructively: compute
  // the market equilibrium with the tatonnement reference process, build
  // the corresponding solution, and verify it is Pareto optimal via the
  // exhaustive oracle. (Disequilibrium *trading* periods need not be
  // optimal -- FTWE speaks about equilibrium allocations.)
  CapacitySupplySet n1({400 * kMillisecond, 100 * kMillisecond},
                       1000 * kMillisecond);
  CapacitySupplySet n2({450 * kMillisecond, 500 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};
  std::vector<QuantityVector> demands = {QuantityVector({4, 0}),
                                         QuantityVector({0, 2})};

  TatonnementConfig config;
  config.lambda = 0.02;
  config.max_iterations = 20000;
  util::StatusOr<TatonnementResult> run =
      RunTatonnement(Aggregate(demands), sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& eq = *run;
  ASSERT_TRUE(eq.converged);

  Solution solution;
  solution.supplies = eq.supplies;
  // The market cleared (z = 0), so every node consumes exactly its demand.
  solution.consumptions = demands;
  ASSERT_TRUE(IsFeasible(solution, demands, sets));
  EXPECT_TRUE(IsParetoOptimal(solution, demands, sets));
}

TEST(MarketSimTest, SteadyStatePeriodsFeasibleAndMarketClears) {
  // The trading loop itself: every period's allocation must respect the
  // (strict, un-banked) supply sets, and over a long horizon the market
  // serves essentially everything injected.
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  config.agent.lambda = 0.05;
  config.agent.bank_leftover_capacity = false;
  MarketSimulator sim(model.get(), config);
  std::vector<QuantityVector> demand = {QuantityVector({1, 5}),
                                        QuantityVector({1, 0})};

  CapacitySupplySet n1({400 * kMillisecond, 100 * kMillisecond},
                       1000 * kMillisecond);
  CapacitySupplySet n2({450 * kMillisecond, 500 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};

  Quantity injected = 0;
  Quantity consumed = 0;
  const int periods = 80;
  for (int t = 0; t < periods; ++t) {
    MarketSimulator::PeriodResult r = sim.RunPeriod(demand);
    injected += Aggregate(demand).Total();
    consumed += r.aggregate_consumption.Total();
    Solution solution;
    solution.supplies = r.supplies;
    solution.consumptions = r.consumptions;
    ASSERT_TRUE(IsFeasible(solution, r.demands, sets)) << "period " << t;
  }
  EXPECT_GE(static_cast<double>(consumed),
            0.95 * static_cast<double>(injected));
}

TEST(MarketSimTest, PricesOfScarceClassRise) {
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 500 * kMillisecond;
  MarketSimulator sim(model.get(), config);
  // q1 demanded far beyond capacity, q2 idle.
  std::vector<QuantityVector> demand = {QuantityVector({10, 0}),
                                        QuantityVector({0, 0})};
  for (int t = 0; t < 20; ++t) sim.RunPeriod(demand);
  for (int n = 0; n < 2; ++n) {
    EXPECT_GT(sim.agent(n).prices()[0], sim.agent(n).prices()[1])
        << "node " << n;
  }
}

TEST(MarketSimTest, InfeasibleClassNeverConsumed) {
  auto model = std::make_unique<query::MatrixCostModel>(2, 2);
  model->SetCost(0, 0, 100 * kMillisecond);
  model->SetCost(0, 1, 100 * kMillisecond);
  // Class 1 evaluable nowhere.
  MarketSimConfig config;
  MarketSimulator sim(model.get(), config);
  std::vector<QuantityVector> demand = {QuantityVector({1, 3}),
                                        QuantityVector({0, 0})};
  MarketSimulator::PeriodResult result = sim.RunPeriod(demand);
  EXPECT_EQ(result.aggregate_consumption[1], 0);
  EXPECT_EQ(result.unserved[1], 3);
}

TEST(MarketSimTest, ThroughputMaximizedUnderOverload) {
  // Under heavy symmetric overload, the market should keep every node busy
  // with its densest class: N1 all q2, N2 all q1 (the QA story of Fig. 1).
  auto model = Fig1Model();
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  config.agent.lambda = 0.05;
  MarketSimulator sim(model.get(), config);
  std::vector<QuantityVector> demand = {QuantityVector({3, 12}),
                                        QuantityVector({3, 0})};
  QuantityVector consumed(2);
  int periods = 40;
  for (int t = 0; t < periods; ++t) {
    // Top up demand to keep the market saturated without queue blowup.
    MarketSimulator::PeriodResult r = sim.RunPeriod(
        {QuantityVector({1, 4}), QuantityVector({1, 0})});
    consumed += r.aggregate_consumption;
  }
  // Upper bound per period: N1 runs 10 q2/s, N2 runs 2 q1/s (1000 ms).
  // The market should get close to ~5-6 q2 + 2 q1 per period given demand.
  double per_period = static_cast<double>(consumed.Total()) / periods;
  EXPECT_GT(per_period, 5.0);
}

TEST(MarketSimDeathTest, RunPeriodAbortsOnDemandMismatch) {
  auto model = Fig1Model();
  MarketSimulator sim(model.get(), MarketSimConfig{});
  // One demand vector for two nodes, then two vectors of the wrong width.
  EXPECT_DEATH(sim.RunPeriod({QuantityVector({1, 0})}),
               "FATAL: MarketSimulator::RunPeriod");
  EXPECT_DEATH(sim.RunPeriod({QuantityVector(3), QuantityVector(3)}),
               "one 2-class vector per node");
}

}  // namespace
}  // namespace qa::market
