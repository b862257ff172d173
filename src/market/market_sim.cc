#include "market/market_sim.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <span>

namespace qa::market {

MarketSimulator::MarketSimulator(const query::CostModel* cost_model,
                                 MarketSimConfig config) {
  assert(cost_model != nullptr);
  util::AbortUnlessOk(config.agent.Validate(),
                      "MarketSimulator: invalid QaNtConfig");
  int num_nodes = cost_model->num_nodes();
  num_classes_ = cost_model->num_classes();
  // Each request reaches every node able to evaluate its class.
  std::vector<util::VDuration> unit_costs(
      static_cast<size_t>(num_nodes) * static_cast<size_t>(num_classes_));
  std::vector<std::vector<catalog::NodeId>> members(
      static_cast<size_t>(num_classes_));
  for (int i = 0; i < num_nodes; ++i) {
    for (int k = 0; k < num_classes_; ++k) {
      util::VDuration c = cost_model->Cost(k, i);
      unit_costs[static_cast<size_t>(i) * static_cast<size_t>(num_classes_) +
                 static_cast<size_t>(k)] = c;
      if (c != query::kInfeasibleCost) {
        members[static_cast<size_t>(k)].push_back(i);
      }
    }
    pending_.emplace_back(num_classes_);
  }
  book_ = ClearingBook(num_nodes, num_classes_, config.period, config.agent,
                       members);
  for (int i = 0; i < num_nodes; ++i) {
    book_.Put(i, std::span<const util::VDuration>(unit_costs).subspan(
                     static_cast<size_t>(i) * static_cast<size_t>(num_classes_),
                     static_cast<size_t>(num_classes_)));
  }
  next_class_.resize(static_cast<size_t>(num_nodes));
}

MarketSimulator::PeriodResult MarketSimulator::RunPeriod(
    const std::vector<QuantityVector>& new_demands) {
  int num_nodes = this->num_nodes();
  int num_classes = this->num_classes();
  bool fits = static_cast<int>(new_demands.size()) == num_nodes;
  for (size_t i = 0; fits && i < new_demands.size(); ++i) {
    fits = new_demands[i].num_classes() == num_classes;
  }
  if (!fits) {
    std::fprintf(stderr,
                 "FATAL: MarketSimulator::RunPeriod: new_demands must hold "
                 "one %d-class vector per node (%d nodes), got %zu "
                 "vectors\n",
                 num_classes, num_nodes, new_demands.size());
    std::abort();
  }

  for (int i = 0; i < num_nodes; ++i) {
    pending_[static_cast<size_t>(i)] += new_demands[static_cast<size_t>(i)];
  }

  PeriodResult result;
  result.demands = pending_;
  result.consumptions.assign(static_cast<size_t>(num_nodes),
                             QuantityVector(num_classes));
  result.supplies.assign(static_cast<size_t>(num_nodes),
                         QuantityVector(num_classes));

  // Every agent plans its period, and the book makes lazy whatever answer
  // cannot change.
  book_.BeginPeriod();

  // Clients drain their queues one query at a time, round-robin over the
  // clients that still have one, so that no client starves the market
  // within a period. Each places its lowest class first.
  to_place_ = pending_;
  clients_.clear();
  for (int i = 0; i < num_nodes; ++i) {
    const QuantityVector& queue = to_place_[static_cast<size_t>(i)];
    int k = 0;
    while (k < num_classes && queue[k] <= 0) ++k;
    next_class_[static_cast<size_t>(i)] = k;
    if (k < num_classes) clients_.push_back(i);
  }
  while (!clients_.empty()) {
    size_t kept = 0;
    for (int i : clients_) {
      QuantityVector& queue = to_place_[static_cast<size_t>(i)];
      int& k = next_class_[static_cast<size_t>(i)];
      queue[k] -= 1;
      Clear(i, k, &result);
      while (k < num_classes && queue[k] <= 0) ++k;
      if (k < num_classes) clients_[kept++] = i;
    }
    clients_.resize(kept);
  }

  book_.EndPeriod();

  result.aggregate_demand = Aggregate(result.demands);
  result.aggregate_consumption = Aggregate(result.consumptions);
  result.unserved = result.aggregate_demand - result.aggregate_consumption;
  return result;
}

void MarketSimulator::Clear(int client, int k, PeriodResult* result) {
  // The request reaches every node able to evaluate the class (the
  // query-trading framework collects offers from all relevant servers;
  // declining servers raise their prices, per the listing). Without an
  // offer the query is resubmitted next period.
  catalog::NodeId winner = book_.Clear(k);
  if (winner < 0) return;
  result->consumptions[static_cast<size_t>(client)][k] += 1;
  result->supplies[static_cast<size_t>(winner)][k] += 1;
  pending_[static_cast<size_t>(client)][k] -= 1;
}

}  // namespace qa::market
