#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "lone_agent.h"
#include "market/qa_nt.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::market {
namespace {

using util::kMillisecond;

LoneAgent MakeFig1N1Agent(QaNtConfig config = {}) {
  // Fig. 1's N1: q1 400 ms, q2 100 ms; period 500 ms.
  return LoneAgent(0, {400 * kMillisecond, 100 * kMillisecond},
                   500 * kMillisecond, config);
}

TEST(QaNtAgentTest, InitialSupplyPrefersDensestClass) {
  LoneAgent agent = MakeFig1N1Agent();
  agent.BeginPeriod();
  // Equal prices: q2 is 4x denser. All budget goes to q2 (paper's example:
  // "node N1 will supply only q2 queries").
  EXPECT_EQ(agent.planned_supply(), QuantityVector({0, 5}));
}

TEST(QaNtAgentTest, OffersWhileSupplyLastsThenDeclines) {
  LoneAgent agent = MakeFig1N1Agent();
  agent.BeginPeriod();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(agent.OnRequest(1)) << "offer " << i;
    agent.OnOfferAccepted(1);
  }
  // Supply exhausted: decline and raise the price of q2.
  double price_before = agent.prices()[1];
  EXPECT_FALSE(agent.OnRequest(1));
  EXPECT_GT(agent.prices()[1], price_before);
}

TEST(QaNtAgentTest, DeclineRaisesPriceMultiplicatively) {
  QaNtConfig config;
  config.lambda = 0.1;
  // Force the first-order-condition gate on so the fresh (uncontended)
  // agent already restricts supply to its densest class.
  config.density_gate_when_idle = true;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  // q1 has no planned supply at equal prices.
  double p0 = agent.prices()[0];
  EXPECT_FALSE(agent.OnRequest(0));
  EXPECT_DOUBLE_EQ(agent.prices()[0], p0 * 1.1);
  EXPECT_FALSE(agent.OnRequest(0));
  EXPECT_DOUBLE_EQ(agent.prices()[0], p0 * 1.1 * 1.1);
}

TEST(QaNtAgentTest, EndPeriodDecaysLeftoverSupplyPrices) {
  QaNtConfig config;
  config.lambda = 0.05;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  ASSERT_EQ(agent.planned_supply()[1], 5);
  // Sell only 2 of the 5 planned q2.
  agent.OnRequest(1);
  agent.OnOfferAccepted(1);
  agent.OnRequest(1);
  agent.OnOfferAccepted(1);
  double p1 = agent.prices()[1];
  agent.EndPeriod();
  // Leftover 3 units: p -= 3 * lambda * p.
  EXPECT_DOUBLE_EQ(agent.prices()[1], p1 * (1.0 - 3 * 0.05));
}

TEST(QaNtAgentTest, PriceFloorHolds) {
  QaNtConfig config;
  config.lambda = 0.5;
  config.price_floor = 1e-6;
  LoneAgent agent = MakeFig1N1Agent(config);
  // Never sell anything for many periods: price decays but stays >= floor.
  for (int t = 0; t < 100; ++t) {
    agent.BeginPeriod();
    agent.EndPeriod();
  }
  EXPECT_GE(agent.prices()[1], config.price_floor);
}

TEST(QaNtAgentTest, PriceCapHolds) {
  QaNtConfig config;
  config.lambda = 1.0;
  config.price_cap = 100.0;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  for (int i = 0; i < 50; ++i) agent.OnRequest(0);
  EXPECT_LE(agent.prices()[0], config.price_cap);
}

TEST(QaNtAgentTest, InitialPriceAboveTheCapStartsAtTheCap) {
  QaNtConfig config;
  config.initial_price = 5.0;
  config.price_cap = 3.0;
  LoneAgent agent = MakeFig1N1Agent(config);
  EXPECT_EQ(agent.prices()[0], 3.0);
  EXPECT_EQ(agent.prices()[1], 3.0);
  agent.BeginPeriod();
  // Sell the whole planned q2 supply: the next q2 request is declined, and
  // its bump cannot lower the price.
  for (int i = 0; i < agent.planned_supply()[1]; ++i) {
    ASSERT_TRUE(agent.OnRequest(1)) << "offer " << i;
    agent.OnOfferAccepted(1);
  }
  EXPECT_FALSE(agent.OnRequest(1));
  EXPECT_EQ(agent.prices()[1], 3.0);
  // SetPrices clamps both ends too.
  agent.SetPrices(PriceVector({7.0, 1e-9}));
  EXPECT_EQ(agent.prices()[0], 3.0);
  EXPECT_EQ(agent.prices()[1], config.price_floor);
}

TEST(QaNtAgentTest, PersistentDemandShiftsSupplyToScarceClass) {
  // The paper's §3.3 narrative: demand for q1 cannot be satisfied, its
  // price rises until N1 starts supplying q1 too.
  QaNtConfig config;
  config.lambda = 0.2;
  LoneAgent agent = MakeFig1N1Agent(config);
  bool supplies_q1 = false;
  for (int period = 0; period < 50 && !supplies_q1; ++period) {
    agent.BeginPeriod();
    if (agent.planned_supply()[0] > 0) {
      supplies_q1 = true;
      break;
    }
    // Clients keep asking for q1; the agent keeps declining (no supply).
    for (int i = 0; i < 5; ++i) agent.OnRequest(0);
    // q2 demand exists but small: sell one unit only.
    if (agent.OnRequest(1)) agent.OnOfferAccepted(1);
    agent.EndPeriod();
  }
  EXPECT_TRUE(supplies_q1);
}

TEST(QaNtAgentTest, CannotEvaluateClassNeverOffersAndNoPriceMove) {
  LoneAgent agent(0, {400 * kMillisecond, query::kInfeasibleCost},
                  500 * kMillisecond);
  agent.BeginPeriod();
  double p1 = agent.prices()[1];
  EXPECT_FALSE(agent.OnRequest(1));
  EXPECT_DOUBLE_EQ(agent.prices()[1], p1);
  EXPECT_FALSE(agent.CanEvaluate(1));
}

TEST(QaNtAgentTest, OvershootOfferForQueriesLongerThanPeriod) {
  // Query costs 2 s against a 500 ms period: the per-period knapsack is
  // empty, but the agent must still offer one query and repay the
  // overshoot via debt.
  LoneAgent agent(0, {2000 * kMillisecond}, 500 * kMillisecond);
  agent.BeginPeriod();
  EXPECT_TRUE(agent.WouldAccept(0));
  EXPECT_TRUE(agent.OnRequest(0));
  agent.OnOfferAccepted(0);
  // Budget is spent (deeply negative): a second request is declined.
  EXPECT_LT(agent.remaining_budget(), 0);
  EXPECT_FALSE(agent.OnRequest(0));

  // The next three periods are consumed paying off the 2 s debt.
  int blocked_periods = 0;
  for (int t = 0; t < 3; ++t) {
    agent.EndPeriod();
    agent.BeginPeriod();
    if (!agent.WouldAccept(0)) ++blocked_periods;
  }
  EXPECT_EQ(blocked_periods, 3);
  // Debt paid: the agent offers again.
  agent.EndPeriod();
  agent.BeginPeriod();
  EXPECT_TRUE(agent.WouldAccept(0));
}

TEST(QaNtAgentTest, OvershootAcceptsAnyNearDensityClass) {
  // Two classes, both longer than the period: the overshoot offer must
  // serve whichever class is requested first (its density is within the
  // tolerance of the best), not only the densest one.
  LoneAgent agent(0, {2000 * kMillisecond, 1500 * kMillisecond},
                  500 * kMillisecond);
  agent.BeginPeriod();
  // Class 0 is *not* the densest (1/2000 < 1/1500), but 0.75 >= 0.5.
  EXPECT_TRUE(agent.OnRequest(0));
  agent.OnOfferAccepted(0);
  EXPECT_FALSE(agent.OnRequest(1));
}

TEST(QaNtAgentTest, DensityGateDeclinesFarBelowBestClass) {
  // q1's density (1/400) is a quarter of q2's (1/100) at equal prices —
  // below the 0.5 tolerance, so q1 is declined even though it would fit
  // the remaining budget (the steering that parks cheap classes on the
  // node and leaves q1 to nodes where it is relatively attractive).
  QaNtConfig config;
  config.density_gate_when_idle = true;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  EXPECT_FALSE(agent.WouldAccept(0));
  EXPECT_TRUE(agent.WouldAccept(1));
  // Raise q1's price: once its density crosses half of q2's, it is
  // accepted.
  agent.SetPrices(PriceVector({2.5, 1.0}));
  agent.BeginPeriod();
  EXPECT_TRUE(agent.WouldAccept(0));
}

TEST(QaNtAgentTest, DensityGateArmsOnlyUnderContention) {
  // Fresh agent: gate disarmed, any evaluable class is admitted while
  // budget remains (zero shadow price on idle capacity)...
  LoneAgent agent = MakeFig1N1Agent();
  agent.BeginPeriod();
  EXPECT_FALSE(agent.density_gate_active());
  EXPECT_TRUE(agent.WouldAccept(0));
  // ...but a period that exhausts the budget arms the gate for the next.
  ASSERT_TRUE(agent.OnRequest(0));  // 400 ms
  agent.OnOfferAccepted(0);
  ASSERT_TRUE(agent.OnRequest(1));  // +100 ms = whole 500 ms budget
  agent.OnOfferAccepted(1);
  agent.EndPeriod();
  agent.BeginPeriod();
  EXPECT_TRUE(agent.density_gate_active());
  EXPECT_FALSE(agent.WouldAccept(0));  // back to densest-only steering
  // An idle period disarms it again.
  agent.EndPeriod();
  agent.BeginPeriod();
  EXPECT_FALSE(agent.density_gate_active());
}

TEST(QaNtAgentTest, BankedCapacityCompensatesRounding) {
  // 300 ms queries, 500 ms period: plain per-period planning strands
  // 200 ms per period; with banking the long-run rate approaches the
  // true capacity of 1/0.3 per period.
  LoneAgent agent(0, {300 * kMillisecond}, 500 * kMillisecond);
  int accepted = 0;
  const int periods = 600;
  for (int t = 0; t < periods; ++t) {
    agent.BeginPeriod();
    while (agent.OnRequest(0)) {
      agent.OnOfferAccepted(0);
      ++accepted;
    }
    agent.EndPeriod();
  }
  double per_period = static_cast<double>(accepted) / periods;
  EXPECT_NEAR(per_period, 500.0 / 300.0, 0.05);
}

TEST(QaNtAgentTest, MinOneOfferDisabled) {
  QaNtConfig config;
  config.allow_min_one_offer = false;
  LoneAgent agent(0, {2000 * kMillisecond}, 500 * kMillisecond, config);
  agent.BeginPeriod();
  EXPECT_TRUE(agent.planned_supply().IsZero());
  EXPECT_FALSE(agent.WouldAccept(0));
  EXPECT_FALSE(agent.OnRequest(0));
}

TEST(QaNtAgentTest, LongRunThroughputRespectsCapacityWithDebt) {
  // 700 ms queries, 500 ms periods: long-run acceptance rate must be about
  // 500/700 queries per period, not 1 per period.
  LoneAgent agent(0, {700 * kMillisecond}, 500 * kMillisecond);
  int accepted = 0;
  const int periods = 700;
  for (int t = 0; t < periods; ++t) {
    agent.BeginPeriod();
    while (agent.OnRequest(0)) {
      agent.OnOfferAccepted(0);
      ++accepted;
    }
    agent.EndPeriod();
  }
  double per_period = static_cast<double>(accepted) / periods;
  EXPECT_NEAR(per_period, 500.0 / 700.0, 0.05);
}

TEST(QaNtAgentTest, ActivationThresholdDisablesRestrictionWhenPricesLow) {
  QaNtConfig config;
  config.activation_threshold = 10.0;  // initial price 1.0 is far below
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  // q1 has zero planned supply, but restriction is inactive: still offers.
  EXPECT_FALSE(agent.SupplyRestrictionActive());
  EXPECT_TRUE(agent.OnRequest(0));
}

TEST(QaNtAgentTest, StatsAreTracked) {
  QaNtConfig config;
  config.density_gate_when_idle = true;  // make the q1 request a decline
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  agent.OnRequest(1);
  agent.OnOfferAccepted(1);
  agent.OnRequest(0);  // decline
  agent.EndPeriod();
  const QaNtAgentStats& stats = agent.stats();
  EXPECT_EQ(stats.requests_seen, 2);
  EXPECT_EQ(stats.offers_made, 1);
  EXPECT_EQ(stats.offers_accepted, 1);
  EXPECT_EQ(stats.declines_no_supply, 1);
  EXPECT_EQ(stats.periods, 1);
}

TEST(QaNtAgentTest, SetPricesOverrides) {
  LoneAgent agent = MakeFig1N1Agent();
  agent.SetPrices(PriceVector({10.0, 1.0}));
  agent.BeginPeriod();
  // q1 now denser (10/400 > 1/100): supply shifts to q1.
  EXPECT_GE(agent.planned_supply()[0], 1);
}

TEST(QaNtAgentTest, DeclineIsInertOnlyWhileMaxDensityStaysPut) {
  QaNtConfig config;
  config.initial_price = 2.0;
  config.price_cap = 2.0;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  // Both prices sit at the cap; q1's density (2/400 ms) is under q2's.
  EXPECT_TRUE(agent.PriceAtFixedPoint(0));
  EXPECT_TRUE(agent.DeclineIsInert(0));
  // A cost cut puts q1's density (2/50 ms) above max density: the price
  // stays put, but a decline would still raise max density.
  agent.UpdateUnitCost(0, 50 * kMillisecond);
  EXPECT_TRUE(agent.PriceAtFixedPoint(0));
  EXPECT_FALSE(agent.DeclineIsInert(0));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(agent.OnRequest(1));
    agent.OnOfferAccepted(1);
  }
  ASSERT_FALSE(agent.OnRequest(0));  // budget spent: a decline
  EXPECT_DOUBLE_EQ(agent.prices()[0], 2.0);
  EXPECT_TRUE(agent.DeclineIsInert(0));

  QaNtConfig below_cap;
  below_cap.price_cap = 2.0;
  LoneAgent moving = MakeFig1N1Agent(below_cap);
  moving.BeginPeriod();
  EXPECT_FALSE(moving.DeclineIsInert(0));  // price 1 still climbs
}

TEST(QaNtAgentTest, RevisedUnitCostCountsAtOnceButMaxDensityWaits) {
  QaNtConfig config;
  config.initial_price = 2.0;
  config.price_cap = 2.0;
  config.density_gate_when_idle = true;
  LoneAgent agent = MakeFig1N1Agent(config);
  agent.BeginPeriod();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(agent.OnRequest(1));
    agent.OnOfferAccepted(1);
  }
  // 100 ms of budget remain: q1 at 400 ms does not fit.
  EXPECT_FALSE(agent.WouldAccept(0));
  agent.UpdateUnitCost(0, 50 * kMillisecond);
  // The cost, and with it the budget and density tests, change at once.
  EXPECT_EQ(agent.unit_cost(0), 50 * kMillisecond);
  EXPECT_TRUE(agent.WouldAccept(0));
  // Max density is still q2's 2/100 ms, under q1's new 2/50 ms: a decline
  // of q1 would raise it, so it is not inert.
  EXPECT_TRUE(agent.PriceAtFixedPoint(0));
  EXPECT_FALSE(agent.DeclineIsInert(0));
  // The next period's max density is q1's.
  agent.EndPeriod();
  agent.BeginPeriod();
  EXPECT_TRUE(agent.DeclineIsInert(0));
}

TEST(QaNtConfigTest, FloorAboveCapIsRejected) {
  // Unchecked, this config starts the agent at the cap (3), the period-end
  // floor clamp lifts the price to 5 and the next decline drops it to 3.
  QaNtConfig config;
  config.price_floor = 5.0;
  config.price_cap = 3.0;
  util::Status status = config.Validate();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("price_floor"), std::string::npos)
      << status;
  config.price_floor = 3.0;  // a floor equal to the cap pins every price
  EXPECT_TRUE(config.Validate().ok()) << config.Validate();
}

TEST(QaNtConfigTest, EachOutOfRangeFieldIsNamed) {
  EXPECT_TRUE(QaNtConfig().Validate().ok());
  struct Case {
    const char* field;
    void (*set)(QaNtConfig&);
  };
  const Case cases[] = {
      {"lambda", [](QaNtConfig& c) { c.lambda = -0.1; }},
      {"lambda", [](QaNtConfig& c) { c.lambda = std::nan(""); }},
      {"initial_price", [](QaNtConfig& c) { c.initial_price = -1.0; }},
      {"price_floor", [](QaNtConfig& c) { c.price_floor = -1e-6; }},
      {"price_cap",
       [](QaNtConfig& c) {
         c.price_cap = std::numeric_limits<double>::infinity();
       }},
      {"activation_threshold",
       [](QaNtConfig& c) { c.activation_threshold = -2.0; }},
      {"supply_density_tolerance",
       [](QaNtConfig& c) { c.supply_density_tolerance = 1.5; }},
      {"supply_density_tolerance",
       [](QaNtConfig& c) { c.supply_density_tolerance = -0.5; }},
      {"max_leftover_decay_units",
       [](QaNtConfig& c) { c.max_leftover_decay_units = -1; }},
  };
  for (const Case& c : cases) {
    QaNtConfig config;
    c.set(config);
    util::Status status = config.Validate();
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(status.message().find(c.field), std::string::npos) << status;
  }
}

}  // namespace
}  // namespace qa::market
