#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "market/supply_set.h"
#include "query/cost_model.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::market {
namespace {

using util::kMillisecond;

TEST(CapacitySupplySetTest, ContainsRespectsBudget) {
  // Node can run q1 in 400 ms, q2 in 100 ms; period 500 ms (Fig. 1's N1).
  CapacitySupplySet set({400 * kMillisecond, 100 * kMillisecond},
                        500 * kMillisecond);
  EXPECT_TRUE(set.Contains(QuantityVector({0, 0})));
  EXPECT_TRUE(set.Contains(QuantityVector({1, 1})));
  EXPECT_TRUE(set.Contains(QuantityVector({0, 5})));
  EXPECT_FALSE(set.Contains(QuantityVector({1, 2})));
  EXPECT_FALSE(set.Contains(QuantityVector({2, 0})));
  EXPECT_FALSE(set.Contains(QuantityVector({-1, 0})));
}

TEST(CapacitySupplySetTest, CannotEvaluateClassForcesZero) {
  CapacitySupplySet set({400 * kMillisecond, query::kInfeasibleCost},
                        500 * kMillisecond);
  EXPECT_FALSE(set.CanEvaluateClass(1));
  EXPECT_TRUE(set.Contains(QuantityVector({1, 0})));
  EXPECT_FALSE(set.Contains(QuantityVector({0, 1})));
}

TEST(CapacitySupplySetTest, CostOf) {
  CapacitySupplySet set({100, 200}, 1000);
  EXPECT_EQ(set.CostOf(QuantityVector({2, 3})), 800);
  EXPECT_EQ(set.CostOf(QuantityVector({0, 0})), 0);
}

TEST(CapacitySupplySetTest, MaximizeValuePicksDensestClass) {
  CapacitySupplySet set({400 * kMillisecond, 100 * kMillisecond},
                        500 * kMillisecond);
  // Equal prices: q2 has 4x the value density; expect all q2.
  QuantityVector s = set.MaximizeValue(PriceVector(2, 1.0));
  EXPECT_EQ(s, QuantityVector({0, 5}));
}

TEST(CapacitySupplySetTest, MaximizeValueFollowsPriceShift) {
  CapacitySupplySet set({400 * kMillisecond, 100 * kMillisecond},
                        500 * kMillisecond);
  // Make q1 10x more valuable: density q1 = 10/400 > q2 = 1/100.
  PriceVector p({10.0, 1.0});
  QuantityVector s = set.MaximizeValue(p);
  EXPECT_EQ(s[0], 1);
  // Leftover 100 ms is topped up with one q2.
  EXPECT_EQ(s[1], 1);
}

TEST(CapacitySupplySetTest, MaximizeValueIgnoresZeroPrices) {
  CapacitySupplySet set({100, 100}, 1000);
  PriceVector p({1.0, 0.0});
  QuantityVector s = set.MaximizeValue(p);
  EXPECT_EQ(s[0], 10);
  EXPECT_EQ(s[1], 0);
}

TEST(CapacitySupplySetTest, MaximizeValueOverBudget) {
  std::vector<util::VDuration> costs = {100, 100};
  CapacitySupplySet set(costs, 1000);
  std::vector<int> classes = {1, 0};
  QuantityVector s(2);
  MaximizeValueOver(PriceVector(2, 1.0).values(), costs, 250, classes,
                    s.mutable_values());
  EXPECT_EQ(s.Total(), 2);
  EXPECT_TRUE(set.Contains(s));
  // Equal densities tie-break by class id.
  EXPECT_EQ(classes, (std::vector<int>{0, 1}));
}

TEST(CapacitySupplySetTest, GreedyResultAlwaysFeasible) {
  util::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    int k = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<util::VDuration> costs;
    for (int i = 0; i < k; ++i) {
      costs.push_back(rng.Bernoulli(0.2) ? query::kInfeasibleCost
                                         : rng.UniformInt(1, 500));
    }
    CapacitySupplySet set(std::move(costs), rng.UniformInt(1, 2000));
    PriceVector p(k);
    for (int i = 0; i < k; ++i) p[i] = rng.UniformReal(0.0, 10.0);
    QuantityVector s = set.MaximizeValue(p);
    EXPECT_TRUE(set.Contains(s)) << "trial " << trial;
  }
}

// The greedy over any list holding every evaluable class (in any order,
// with or without unevaluable extras) plans exactly what the greedy over
// all classes does, and leaves unlisted entries alone.
TEST(CapacitySupplySetTest, GreedyOverCandidateListMatchesAllClasses) {
  util::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    int k = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<util::VDuration> costs;
    for (int i = 0; i < k; ++i) {
      costs.push_back(rng.Bernoulli(0.3) ? query::kInfeasibleCost
                                         : 50 * rng.UniformInt(1, 8));
    }
    CapacitySupplySet set(costs, rng.UniformInt(1, 2000));
    PriceVector p(k);
    for (int i = 0; i < k; ++i) {
      p[i] = rng.Bernoulli(0.2) ? 0.0
                                : 0.5 * static_cast<double>(
                                            rng.UniformInt(1, 4));
    }
    std::vector<int> classes;
    for (int i : rng.Permutation(k)) {
      if (set.CanEvaluateClass(i) || rng.Bernoulli(0.5)) {
        classes.push_back(i);
      }
    }
    QuantityVector expected = set.MaximizeValue(p);
    constexpr Quantity kUntouched = -7;
    QuantityVector s(std::vector<Quantity>(static_cast<size_t>(k),
                                           kUntouched));
    MaximizeValueOver(p.values(), costs, set.budget(), classes,
                      s.mutable_values());
    for (int i = 0; i < k; ++i) {
      bool listed =
          std::find(classes.begin(), classes.end(), i) != classes.end();
      EXPECT_EQ(s[i], listed ? expected[i] : kUntouched)
          << "trial " << trial << " class " << i;
    }
  }
}

TEST(FiniteSupplySetTest, ExactMaximization) {
  FiniteSupplySet set({QuantityVector({0, 0}), QuantityVector({1, 0}),
                       QuantityVector({0, 2})});
  EXPECT_TRUE(set.Contains(QuantityVector({0, 2})));
  EXPECT_FALSE(set.Contains(QuantityVector({1, 1})));
  EXPECT_EQ(set.MaximizeValue(PriceVector({3.0, 1.0})),
            QuantityVector({1, 0}));
  EXPECT_EQ(set.MaximizeValue(PriceVector({1.0, 1.0})),
            QuantityVector({0, 2}));
}

TEST(EnumerateSupplyVectorsTest, MatchesContains) {
  CapacitySupplySet set({200, 300}, 700);
  std::vector<QuantityVector> all =
      EnumerateSupplyVectors(set, QuantityVector({5, 5}));
  // (0,0),(1,0),(2,0),(3,0),(0,1),(1,1),(2,1),(0,2) — note (1,2) costs 800.
  EXPECT_EQ(all.size(), 8u);
  for (const QuantityVector& v : all) EXPECT_TRUE(set.Contains(v));
}

// Property sweep: the density greedy never beats the exact enumeration and
// is exact for single-class instances.
class GreedyVsExactTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsExactTest, GreedyWithinToleranceOfExact) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  int k = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<util::VDuration> costs;
  for (int i = 0; i < k; ++i) costs.push_back(rng.UniformInt(50, 400));
  util::VDuration budget = rng.UniformInt(200, 1500);
  CapacitySupplySet set(std::move(costs), budget);
  PriceVector p(k);
  for (int i = 0; i < k; ++i) p[i] = rng.UniformReal(0.1, 5.0);

  QuantityVector ceil(k);
  for (int i = 0; i < k; ++i) ceil[i] = budget / set.unit_cost(i) + 1;
  std::vector<QuantityVector> all = EnumerateSupplyVectors(set, ceil);
  double exact = 0.0;
  for (const QuantityVector& v : all) exact = std::max(exact, Dot(p, v));

  double greedy = Dot(p, set.MaximizeValue(p));
  EXPECT_LE(greedy, exact + 1e-9);
  // Density greedy for unbounded knapsack is at least 1/2 of optimal.
  EXPECT_GE(greedy, 0.5 * exact - 1e-9);
  if (k == 1) {
    EXPECT_DOUBLE_EQ(greedy, exact);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyVsExactTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace qa::market
