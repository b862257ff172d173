#include "market/cluster_supply.h"

#include <algorithm>
#include <cassert>

namespace qa::market {

DefaultPlanScratch::DefaultPlanScratch(int num_classes,
                                       util::VDuration period_budget,
                                       const QaNtConfig& config)
    : supply_set(std::vector<util::VDuration>(
                     static_cast<size_t>(num_classes),
                     CapacitySupplySet::kCannotEvaluate),
                 period_budget),
      prices(num_classes, ClampPrice(config.initial_price, config)),
      plan(num_classes) {
  classes.reserve(static_cast<size_t>(num_classes));
}

const QuantityVector& DefaultPlannedSupply(
    std::span<const util::VDuration> unit_costs, DefaultPlanScratch* scratch) {
  assert(unit_costs.size() ==
         static_cast<size_t>(scratch->supply_set.num_classes()));
  QuantityVector& plan = scratch->plan;
  scratch->classes.clear();
  for (int k = 0; k < plan.num_classes(); ++k) {
    util::VDuration cost = unit_costs[static_cast<size_t>(k)];
    scratch->supply_set.SetUnitCost(k, cost);
    plan[k] = 0;
    if (cost != CapacitySupplySet::kCannotEvaluate) {
      scratch->classes.push_back(k);
    }
  }
  // A fresh agent's first period settles no debt, so it plans against the
  // whole budget.
  scratch->supply_set.MaximizeValueOver(scratch->prices,
                                        scratch->supply_set.budget(),
                                        scratch->classes, &plan);
  // Floor the eq.-4 plan at 1 for every evaluable class: the knapsack
  // plans 0 for a class whose unit cost exceeds the period budget, but
  // budget-elastic admission still accepts such a query into debt on an
  // uncontended node — a fresh member is never truly zero-supply, and a
  // ledger that says otherwise starves the class at the top tier.
  for (int k : scratch->classes) plan[k] = std::max<Quantity>(plan[k], 1);
  return plan;
}

}  // namespace qa::market
