#include "market/market_sim.h"

#include <algorithm>
#include <cassert>

namespace qa::market {

MarketSimulator::MarketSimulator(const query::CostModel* cost_model,
                                 MarketSimConfig config)
    : cost_model_(cost_model), config_(config) {
  assert(cost_model_ != nullptr);
  int num_nodes = cost_model_->num_nodes();
  int num_classes = cost_model_->num_classes();
  for (int i = 0; i < num_nodes; ++i) {
    std::vector<util::VDuration> unit_costs(static_cast<size_t>(num_classes));
    for (int k = 0; k < num_classes; ++k) {
      util::VDuration c = cost_model_->Cost(k, i);
      unit_costs[static_cast<size_t>(k)] =
          c == query::kInfeasibleCost ? CapacitySupplySet::kCannotEvaluate : c;
    }
    agents_.push_back(std::make_unique<QaNtAgent>(
        i, std::move(unit_costs), config_.period, config_.agent));
    pending_.emplace_back(num_classes);
  }
}

MarketSimulator::PeriodResult MarketSimulator::RunPeriod(
    const std::vector<QuantityVector>& new_demands) {
  int num_nodes = this->num_nodes();
  int num_classes = this->num_classes();
  assert(static_cast<int>(new_demands.size()) == num_nodes);

  for (int i = 0; i < num_nodes; ++i) {
    pending_[static_cast<size_t>(i)] += new_demands[static_cast<size_t>(i)];
  }

  PeriodResult result;
  result.demands = pending_;
  result.consumptions.assign(static_cast<size_t>(num_nodes),
                             QuantityVector(num_classes));
  result.supplies.assign(static_cast<size_t>(num_nodes),
                         QuantityVector(num_classes));

  for (auto& agent : agents_) agent->BeginPeriod();

  // Clients drain their queues one query at a time, round-robin over nodes,
  // so that no client starves the market within a period.
  bool progress = true;
  std::vector<QuantityVector> to_place = pending_;
  while (progress) {
    progress = false;
    for (int i = 0; i < num_nodes; ++i) {
      QuantityVector& queue = to_place[static_cast<size_t>(i)];
      // Find the next class this client still has to place.
      int k = -1;
      for (int c = 0; c < num_classes; ++c) {
        if (queue[c] > 0) {
          k = c;
          break;
        }
      }
      if (k < 0) continue;
      queue[k] -= 1;
      progress = true;

      // Broadcast the request to every node able to evaluate the class
      // (the query-trading framework collects offers from all relevant
      // servers; declining servers raise their prices, per the listing).
      std::vector<int> offers;
      for (int j = 0; j < num_nodes; ++j) {
        if (!cost_model_->CanEvaluate(k, j)) continue;
        if (agents_[static_cast<size_t>(j)]->OnRequest(k)) {
          offers.push_back(j);
        }
      }
      if (offers.empty()) continue;  // resubmitted next period

      // Accept the cheapest offer (best estimated execution time), reject
      // the rest.
      int best = offers[0];
      for (int j : offers) {
        if (cost_model_->Cost(k, j) < cost_model_->Cost(k, best)) best = j;
      }
      for (int j : offers) {
        if (j == best) {
          agents_[static_cast<size_t>(j)]->OnOfferAccepted(k);
        } else {
          agents_[static_cast<size_t>(j)]->OnOfferRejected(k);
        }
      }
      result.consumptions[static_cast<size_t>(i)][k] += 1;
      result.supplies[static_cast<size_t>(best)][k] += 1;
      pending_[static_cast<size_t>(i)][k] -= 1;
    }
  }

  for (auto& agent : agents_) agent->EndPeriod();

  result.aggregate_demand = Aggregate(result.demands);
  result.aggregate_consumption = Aggregate(result.consumptions);
  result.unserved = result.aggregate_demand - result.aggregate_consumption;
  return result;
}

}  // namespace qa::market
