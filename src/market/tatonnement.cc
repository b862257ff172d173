#include "market/tatonnement.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace qa::market {

util::StatusOr<TatonnementResult> RunTatonnement(
    const QuantityVector& aggregate_demand,
    const std::vector<const SupplySet*>& supply_sets,
    const TatonnementConfig& config) {
  int num_classes = aggregate_demand.num_classes();
  for (size_t i = 0; i < supply_sets.size(); ++i) {
    if (supply_sets[i]->num_classes() != num_classes) {
      return util::Status::InvalidArgument(
          "tatonnement: supply set " + std::to_string(i) + " has " +
          std::to_string(supply_sets[i]->num_classes()) +
          " classes, demand has " + std::to_string(num_classes));
    }
  }
  TatonnementResult result;
  result.prices = PriceVector(num_classes, config.initial_price);

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Collect every seller's optimal supply at the announced prices (eq. 4).
    result.supplies.clear();
    for (const SupplySet* set : supply_sets) {
      result.supplies.push_back(set->MaximizeValue(result.prices));
    }
    result.aggregate_supply = Aggregate(result.supplies);
    result.excess_demand =
        ExcessDemand(aggregate_demand, result.aggregate_supply);

    Quantity max_abs = 0;
    for (int k = 0; k < num_classes; ++k) {
      max_abs = std::max<Quantity>(max_abs,
                                   std::abs(result.excess_demand[k]));
    }
    if (max_abs <= config.tolerance) {
      result.converged = true;
      return result;
    }

    // Price adjustment (eq. 6): raise prices of excess-demanded classes,
    // lower prices of excess-supplied ones.
    for (int k = 0; k < num_classes; ++k) {
      result.prices[k] +=
          config.lambda * static_cast<double>(result.excess_demand[k]);
    }
    result.prices.ClampFloor(config.price_floor);
  }
  return result;
}

}  // namespace qa::market
