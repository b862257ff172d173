#include <gtest/gtest.h>

#include <string>

#include "market/tatonnement.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::market {
namespace {

using util::kMillisecond;

TEST(TatonnementTest, SingleClassMatchesSupplyToDemand) {
  // Two nodes, one class costing 100 ms, period 1000 ms => each node can
  // supply up to 10; demand of 12 is satisfiable.
  CapacitySupplySet n1({100 * kMillisecond}, 1000 * kMillisecond);
  CapacitySupplySet n2({100 * kMillisecond}, 1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};

  TatonnementConfig config;
  config.tolerance = 0;
  // One class of 12 (a braced {12} would pick the K-classes constructor).
  util::StatusOr<TatonnementResult> run =
      RunTatonnement(QuantityVector(std::vector<Quantity>{12}), sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& result = *run;
  // A single always-supplied class can never equal demand exactly (each
  // node supplies all-or-bulk); with one class the greedy supplies
  // budget/cost = 10 each => 20 > 12 => excess -8; price falls but supply
  // stays 10 while price > 0. Convergence to z == 0 is impossible, so the
  // run must hit the iteration cap without crashing.
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, config.max_iterations);
}

TEST(TatonnementTest, TwoClassMarketConverges) {
  // Fig. 1 instance with demand (4, 2) and budgets of 1000 ms. At the
  // initial equal prices N1 supplies only q2, so q1 is in excess demand;
  // as p1 rises (and p2 falls) N1 flips to (2 q1 + 2 q2) and together with
  // N2's (2 q1) the market clears exactly: s = (4, 2) = d.
  CapacitySupplySet n1({400 * kMillisecond, 100 * kMillisecond},
                       1000 * kMillisecond);
  CapacitySupplySet n2({450 * kMillisecond, 500 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};

  TatonnementConfig config;
  config.lambda = 0.02;
  config.max_iterations = 20000;
  config.tolerance = 0;
  util::StatusOr<TatonnementResult> run =
      RunTatonnement(QuantityVector({4, 2}), sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& result = *run;
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.excess_demand[0], 0);
  EXPECT_EQ(result.excess_demand[1], 0);
  EXPECT_EQ(result.aggregate_supply, QuantityVector({4, 2}));
}

TEST(TatonnementTest, PricesRemainPositive) {
  CapacitySupplySet n1({10 * kMillisecond, 10 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1};
  TatonnementConfig config;
  config.max_iterations = 500;
  // Demand far below what the node wants to supply: prices crash but must
  // stay at the floor, not go negative.
  util::StatusOr<TatonnementResult> run =
      RunTatonnement(QuantityVector({1, 1}), sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& result = *run;
  for (int k = 0; k < 2; ++k) {
    EXPECT_GE(result.prices[k], config.price_floor);
  }
}

TEST(TatonnementTest, ExcessDemandRaisesRelativePrice) {
  // Two classes, two specialist nodes. Class 0 is demanded heavily; its
  // price must end up above class 1's.
  CapacitySupplySet n1({100 * kMillisecond, 100 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1};
  TatonnementConfig config;
  config.max_iterations = 200;
  util::StatusOr<TatonnementResult> run =
      RunTatonnement(QuantityVector({50, 1}), sets, config);
  ASSERT_TRUE(run.ok()) << run.status();
  const TatonnementResult& result = *run;
  EXPECT_GT(result.prices[0], result.prices[1]);
}

TEST(TatonnementTest, LargerLambdaConvergesInFewerIterations) {
  CapacitySupplySet n1({400 * kMillisecond, 100 * kMillisecond},
                       1000 * kMillisecond);
  CapacitySupplySet n2({450 * kMillisecond, 500 * kMillisecond},
                       1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&n1, &n2};

  TatonnementConfig slow;
  slow.lambda = 0.005;
  slow.max_iterations = 50000;
  slow.tolerance = 0;
  TatonnementConfig fast = slow;
  fast.lambda = 0.05;

  util::StatusOr<TatonnementResult> run_slow =
      RunTatonnement(QuantityVector({4, 2}), sets, slow);
  util::StatusOr<TatonnementResult> run_fast =
      RunTatonnement(QuantityVector({4, 2}), sets, fast);
  ASSERT_TRUE(run_slow.ok()) << run_slow.status();
  ASSERT_TRUE(run_fast.ok()) << run_fast.status();
  const TatonnementResult& r_slow = *run_slow;
  const TatonnementResult& r_fast = *run_fast;
  ASSERT_TRUE(r_slow.converged);
  ASSERT_TRUE(r_fast.converged);
  EXPECT_LT(r_fast.iterations, r_slow.iterations);
}

// A demand vector and supply sets that disagree on K are a caller error
// reported as a Status, never an out-of-bounds read of the aggregate.
TEST(TatonnementTest, RejectsSupplySetsOfADifferentClassCount) {
  CapacitySupplySet one_class({100 * kMillisecond}, 1000 * kMillisecond);
  CapacitySupplySet two_classes({100 * kMillisecond, 200 * kMillisecond},
                                1000 * kMillisecond);
  std::vector<const SupplySet*> sets{&two_classes, &one_class};

  util::StatusOr<TatonnementResult> run =
      RunTatonnement(QuantityVector({4, 2}), sets);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("supply set 1 has 1 classes"),
            std::string::npos)
      << run.status();

  // The mirror case: one class of demand against a two-class set.
  std::vector<const SupplySet*> wide{&two_classes};
  EXPECT_FALSE(
      RunTatonnement(QuantityVector(std::vector<Quantity>{12}), wide).ok());
}

}  // namespace
}  // namespace qa::market
