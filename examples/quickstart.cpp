// Quickstart: the query market in ~60 lines.
//
// Builds the paper's Fig. 1 federation (two nodes, two query classes),
// runs the QA-NT market for a few periods, and shows what each node's
// private prices make it serve.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "market/market_sim.h"
#include "query/cost_model.h"
#include "util/vtime.h"

using qa::market::MarketSimConfig;
using qa::market::MarketSimulator;
using qa::market::QuantityVector;
using qa::util::kMillisecond;

int main() {
  // 1. Describe who can run what, and how fast: node N1 evaluates q1 in
  //    400 ms and q2 in 100 ms; N2 in 450 ms and 500 ms.
  qa::query::MatrixCostModel costs(/*num_classes=*/2, /*num_nodes=*/2);
  costs.SetCost(/*k=*/0, /*node=*/0, 400 * kMillisecond);
  costs.SetCost(/*k=*/1, /*node=*/0, 100 * kMillisecond);
  costs.SetCost(/*k=*/0, /*node=*/1, 450 * kMillisecond);
  costs.SetCost(/*k=*/1, /*node=*/1, 500 * kMillisecond);

  // 2. Start a market: every node gets a QA-NT agent with private prices.
  MarketSimConfig config;
  config.period = 1000 * kMillisecond;  // the paper's time period T
  MarketSimulator market(&costs, config);

  // 3. Each period, node 0's applications pose one q1 and six q2, node 1's
  //    pose one q1 (the Fig. 1 workload). Agents offer/decline per their
  //    prices; unserved queries are resubmitted next period.
  std::vector<QuantityVector> demand = {QuantityVector({1, 6}),
                                        QuantityVector({1, 0})};
  for (int period = 0; period < 8; ++period) {
    MarketSimulator::PeriodResult result = market.RunPeriod(demand);
    std::cout << "period " << period
              << "  consumed=" << result.aggregate_consumption.ToString()
              << "  unserved=" << result.unserved.ToString()
              << "  N1 served=" << result.supplies[0].ToString()
              << "  N2 served=" << result.supplies[1].ToString()
              << "  N1 prices=" << market.agent(0).prices().ToString()
              << "  N1 plan=" << market.agent(0).planned_supply().ToString()
              << "\n";
  }

  // 4. What the run shows. N1's plan holds only q2, its best
  //    price-per-cost density, but a plan is not a contract: N1's density
  //    gate arms only after a period that left it no budget, so otherwise
  //    it offers any class it can evaluate, and at 400 ms against N2's
  //    450 ms it wins q1. N1 serves q1 in six of the eight periods (all
  //    but 1 and 3); N2 serves q1 in periods 1, 3 and 5 and q2 in
  //    periods 0, 2, 6 and 7, and periods 0 and 7 leave two q2 unserved.
  //    Prices move toward Fig. 1's split (N1's q1 price climbs, its q2
  //    price falls), but eight periods do not reach it. No coordinator
  //    and no load disclosure either way; the closing line below is
  //    checked by the `quickstart` ctest.
  std::cout << "\nN1 served " << market.agent(0).stats().offers_accepted
            << " queries, N2 served "
            << market.agent(1).stats().offers_accepted << ".\n";
  return 0;
}
