#include <gtest/gtest.h>

#include "lone_agent.h"
#include "market/market_sim.h"
#include "market/pareto.h"
#include "market/qa_nt.h"
#include "market/tatonnement.h"
#include "query/cost_model.h"
#include "util/rng.h"

namespace qa::market {
namespace {

using util::kMillisecond;

/// Randomized small-market sweeps: each parameter value seeds a different
/// instance, every invariant must hold on all of them.
class RandomMarketTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    util::Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
    num_classes_ = static_cast<int>(rng.UniformInt(1, 3));
    num_nodes_ = static_cast<int>(rng.UniformInt(1, 4));
    model_ = std::make_unique<query::MatrixCostModel>(num_classes_,
                                                      num_nodes_);
    // Each node can evaluate each class with probability 0.7; ensure every
    // class has at least one evaluator.
    for (int k = 0; k < num_classes_; ++k) {
      int guaranteed =
          static_cast<int>(rng.UniformInt(0, num_nodes_ - 1));
      for (int j = 0; j < num_nodes_; ++j) {
        if (j == guaranteed || rng.Bernoulli(0.7)) {
          model_->SetCost(k, j,
                          rng.UniformInt(50, 900) * kMillisecond);
        }
      }
    }
    rng_ = std::make_unique<util::Rng>(rng.Fork());
  }

  int num_classes_ = 0;
  int num_nodes_ = 0;
  std::unique_ptr<query::MatrixCostModel> model_;
  std::unique_ptr<util::Rng> rng_;
};

TEST_P(RandomMarketTest, EveryPeriodSatisfiesMarketIdentities) {
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;
  MarketSimulator sim(model_.get(), config);
  for (int t = 0; t < 15; ++t) {
    std::vector<QuantityVector> demand;
    for (int i = 0; i < num_nodes_; ++i) {
      QuantityVector d(num_classes_);
      for (int k = 0; k < num_classes_; ++k) {
        d[k] = rng_->UniformInt(0, 4);
      }
      demand.push_back(std::move(d));
    }
    MarketSimulator::PeriodResult r = sim.RunPeriod(demand);
    // Eq. (3): aggregate supply == aggregate consumption <= demand.
    EXPECT_EQ(Aggregate(r.supplies), r.aggregate_consumption);
    EXPECT_TRUE(
        r.aggregate_consumption.ComponentwiseLeq(r.aggregate_demand));
    // Per node: consumption never exceeds that node's demand.
    for (int i = 0; i < num_nodes_; ++i) {
      EXPECT_TRUE(r.consumptions[static_cast<size_t>(i)].ComponentwiseLeq(
          r.demands[static_cast<size_t>(i)]));
    }
    // Nothing negative anywhere.
    for (const QuantityVector& v : r.supplies) {
      for (int k = 0; k < num_classes_; ++k) EXPECT_GE(v[k], 0);
    }
    // Prices stay positive on every agent.
    for (int i = 0; i < num_nodes_; ++i) {
      for (int k = 0; k < num_classes_; ++k) {
        EXPECT_GT(sim.agent(i).prices()[k], 0.0);
      }
    }
  }
}

TEST_P(RandomMarketTest, InfeasibleClassesNeverSupplied) {
  MarketSimConfig config;
  MarketSimulator sim(model_.get(), config);
  std::vector<QuantityVector> demand(
      static_cast<size_t>(num_nodes_), QuantityVector(num_classes_));
  for (int k = 0; k < num_classes_; ++k) demand[0][k] = 3;
  for (int t = 0; t < 5; ++t) {
    MarketSimulator::PeriodResult r = sim.RunPeriod(demand);
    for (int j = 0; j < num_nodes_; ++j) {
      for (int k = 0; k < num_classes_; ++k) {
        if (!model_->CanEvaluate(k, j)) {
          EXPECT_EQ(r.supplies[static_cast<size_t>(j)][k], 0);
        }
      }
    }
  }
}

TEST_P(RandomMarketTest, LongRunAcceptanceRespectsCapacity) {
  // One agent under saturation: accepted work per period converges to at
  // most the period budget (debt/banking bookkeeping cannot create
  // capacity out of thin air).
  util::VDuration period = 500 * kMillisecond;
  std::vector<util::VDuration> costs;
  for (int k = 0; k < num_classes_; ++k) {
    costs.push_back(rng_->UniformInt(100, 2500) * kMillisecond);
  }
  LoneAgent agent(0, costs, period);
  util::VDuration accepted = 0;
  const int periods = 400;
  for (int t = 0; t < periods; ++t) {
    agent.BeginPeriod();
    // Saturate: request every class round-robin until all declined.
    bool any = true;
    while (any) {
      any = false;
      for (int k = 0; k < num_classes_; ++k) {
        if (agent.OnRequest(k)) {
          agent.OnOfferAccepted(k);
          accepted += costs[static_cast<size_t>(k)];
          any = true;
        }
      }
    }
    agent.EndPeriod();
  }
  double utilization = static_cast<double>(accepted) /
                       (static_cast<double>(period) * periods);
  // At most 100% capacity plus a small slack for the final period's
  // overshoot; and saturation should achieve most of the capacity.
  EXPECT_LE(utilization, 1.02 + 5.0 / periods);
  EXPECT_GE(utilization, 0.7);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMarketTest, ::testing::Range(0, 25));

/// Tatonnement invariants on random two-node instances.
class RandomTatonnementTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomTatonnementTest, PricesPositiveAndSupplyFeasible) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  CapacitySupplySet n1({rng.UniformInt(50, 500) * kMillisecond,
                        rng.UniformInt(50, 500) * kMillisecond},
                       1000 * kMillisecond);
  CapacitySupplySet n2({rng.UniformInt(50, 500) * kMillisecond,
                        rng.UniformInt(50, 500) * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};
  QuantityVector demand(
      {rng.UniformInt(0, 10), rng.UniformInt(0, 10)});

  TatonnementConfig config;
  config.lambda = rng.UniformReal(0.005, 0.1);
  config.max_iterations = 2000;
  util::StatusOr<TatonnementResult> run = RunTatonnement(demand, sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& r = *run;
  for (int k = 0; k < 2; ++k) {
    EXPECT_GE(r.prices[k], config.price_floor);
  }
  ASSERT_EQ(r.supplies.size(), 2u);
  EXPECT_TRUE(n1.Contains(r.supplies[0]));
  EXPECT_TRUE(n2.Contains(r.supplies[1]));
  // If the process converged, excess demand really is zero.
  if (r.converged) {
    EXPECT_TRUE(r.excess_demand.IsZero());
    EXPECT_EQ(r.aggregate_supply, demand);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomTatonnementTest,
                         ::testing::Range(0, 30));

/// Pareto-oracle consistency on random tiny instances.
class RandomParetoTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomParetoTest, OracleSelfConsistent) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 1);
  CapacitySupplySet s1({rng.UniformInt(1, 3), rng.UniformInt(1, 3)}, 4);
  CapacitySupplySet s2({rng.UniformInt(1, 3), rng.UniformInt(1, 3)}, 4);
  std::vector<const SupplySet*> sets{&s1, &s2};
  std::vector<QuantityVector> demands = {
      QuantityVector({rng.UniformInt(0, 2), rng.UniformInt(0, 2)}),
      QuantityVector({rng.UniformInt(0, 2), rng.UniformInt(0, 2)})};

  std::vector<Solution> all = EnumerateFeasibleSolutions(demands, sets);
  ASSERT_FALSE(all.empty());  // the all-zero solution always exists
  Quantity max_total = MaxTotalConsumption(demands, sets);

  Quantity best_seen = 0;
  int optimal_count = 0;
  for (const Solution& sol : all) {
    // Everything enumerated must be feasible.
    ASSERT_TRUE(IsFeasible(sol, demands, sets));
    Quantity total = sol.AggregateConsumption().Total();
    best_seen = std::max(best_seen, total);
    // Dominance is irreflexive.
    EXPECT_FALSE(ParetoDominates(sol, sol));
    if (IsParetoOptimalAmong(sol, all)) {
      ++optimal_count;
    } else if (total == max_total) {
      ADD_FAILURE() << "max-total solution dominated";
    }
  }
  // The enumeration's best total agrees with the dedicated oracle.
  EXPECT_EQ(best_seen, max_total);
  // At least one Pareto-optimal solution exists.
  EXPECT_GE(optimal_count, 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomParetoTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace qa::market
