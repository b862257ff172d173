#include "market/cluster_supply.h"

#include <algorithm>
#include <cassert>

namespace qa::market {

DefaultPlanScratch::DefaultPlanScratch(int num_classes,
                                       util::VDuration period_budget,
                                       const QaNtConfig& config)
    : budget(period_budget),
      prices(num_classes, ClampPrice(config.initial_price, config)),
      plan(num_classes) {
  classes.reserve(static_cast<size_t>(num_classes));
}

const QuantityVector& DefaultPlannedSupply(
    std::span<const util::VDuration> unit_costs, DefaultPlanScratch* scratch) {
  QuantityVector& plan = scratch->plan;
  assert(unit_costs.size() == static_cast<size_t>(plan.num_classes()));
  scratch->classes.clear();
  for (int k = 0; k < plan.num_classes(); ++k) {
    plan[k] = 0;
    if (unit_costs[static_cast<size_t>(k)] != query::kInfeasibleCost) {
      scratch->classes.push_back(k);
    }
  }
  // A fresh agent's first period settles no debt, so it plans against the
  // whole budget.
  MaximizeValueOver(scratch->prices.values(), unit_costs, scratch->budget,
                    scratch->classes, plan.mutable_values());
  // Floor the eq.-4 plan at 1 for every evaluable class: the knapsack
  // plans 0 for a class whose unit cost exceeds the period budget, but
  // budget-elastic admission still accepts such a query into debt on an
  // uncontended node — a fresh member is never truly zero-supply, and a
  // ledger that says otherwise starves the class at the top tier.
  for (int k : scratch->classes) plan[k] = std::max<Quantity>(plan[k], 1);
  return plan;
}

}  // namespace qa::market
