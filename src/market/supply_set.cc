#include "market/supply_set.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

namespace qa::market {

CapacitySupplySet::CapacitySupplySet(std::vector<util::VDuration> unit_costs,
                                     util::VDuration budget)
    : unit_costs_(std::move(unit_costs)), budget_(budget) {
  for (util::VDuration c : unit_costs_) {
    assert(c > 0);
    (void)c;
  }
}

util::VDuration CapacitySupplySet::CostOf(const QuantityVector& supply) const {
  assert(supply.num_classes() == num_classes());
  util::VDuration total = 0;
  for (int k = 0; k < num_classes(); ++k) {
    if (supply[k] == 0) continue;
    if (!CanEvaluateClass(k)) return query::kInfeasibleCost;
    total += unit_costs_[static_cast<size_t>(k)] * supply[k];
  }
  return total;
}

bool CapacitySupplySet::Contains(const QuantityVector& supply) const {
  if (supply.num_classes() != num_classes()) return false;
  for (int k = 0; k < num_classes(); ++k) {
    if (supply[k] < 0) return false;
  }
  util::VDuration cost = CostOf(supply);
  return cost != query::kInfeasibleCost && cost <= budget_;
}

QuantityVector CapacitySupplySet::MaximizeValue(
    const PriceVector& prices) const {
  std::vector<int> classes(static_cast<size_t>(num_classes()));
  std::iota(classes.begin(), classes.end(), 0);
  assert(prices.num_classes() == num_classes());
  QuantityVector supply(num_classes());
  MaximizeValueOver(prices.values(), unit_costs_, budget_, classes,
                    supply.mutable_values());
  return supply;
}

double MaximizeValueOver(std::span<const double> prices,
                         std::span<const util::VDuration> unit_costs,
                         util::VDuration budget, std::span<int> classes,
                         std::span<Quantity> supply) {
  assert(prices.size() == unit_costs.size());
  assert(supply.size() == unit_costs.size());
  auto plannable = [&](int k) {
    size_t i = static_cast<size_t>(k);
    return unit_costs[i] != query::kInfeasibleCost && prices[i] > 0.0;
  };
  auto density = [&](int k) {
    size_t i = static_cast<size_t>(k);
    return prices[i] / static_cast<double>(unit_costs[i]);
  };
  // Order plannable classes by descending value density p_k / cost_k.
  auto before = [&](int a, int b) {
    bool pa = plannable(a);
    bool pb = plannable(b);
    if (pa != pb) return pa;
    if (pa) {
      double da = density(a);
      double db = density(b);
      // Exact compare on purpose: an epsilon tie-break would violate
      // strict weak ordering and make the knapsack order
      // non-deterministic.
      // qa-lint: allow(QA-NUM-001)
      if (da != db) return da > db;
    }
    return a < b;
  };
  // The order is total, so every sort yields the same list. A short list
  // (most nodes list a class or two) is insertion-sorted in place, as
  // std::sort would finish it, without its calls.
  constexpr size_t kShortList = 16;
  if (classes.size() > kShortList) {
    std::sort(classes.begin(), classes.end(), before);
  } else {
    for (size_t i = 1; i < classes.size(); ++i) {
      int k = classes[i];
      size_t j = i;
      for (; j > 0 && before(k, classes[j - 1]); --j) {
        classes[j] = classes[j - 1];
      }
      classes[j] = k;
    }
  }
  util::VDuration remaining = budget;
  for (int k : classes) {
    Quantity fit = 0;
    // A class costing more than what remains gets none: no division.
    util::VDuration c = unit_costs[static_cast<size_t>(k)];
    if (plannable(k) && remaining >= c) {
      fit = remaining / c;
      remaining -= fit * c;
    }
    supply[static_cast<size_t>(k)] = fit;
  }
  // The greedy order lists the densest plannable class first.
  return !classes.empty() && plannable(classes.front())
             ? density(classes.front())
             : 0.0;
}

FiniteSupplySet::FiniteSupplySet(std::vector<QuantityVector> vectors)
    : vectors_(std::move(vectors)) {
  assert(!vectors_.empty());
  num_classes_ = vectors_[0].num_classes();
  for (const QuantityVector& v : vectors_) {
    assert(v.num_classes() == num_classes_);
    (void)v;
  }
}

bool FiniteSupplySet::Contains(const QuantityVector& supply) const {
  return std::find(vectors_.begin(), vectors_.end(), supply) !=
         vectors_.end();
}

QuantityVector FiniteSupplySet::MaximizeValue(
    const PriceVector& prices) const {
  assert(prices.num_classes() == num_classes_);
  const QuantityVector* best = &vectors_[0];
  double best_value = Dot(prices, vectors_[0]);
  for (const QuantityVector& v : vectors_) {
    double value = Dot(prices, v);
    if (value > best_value) {
      best_value = value;
      best = &v;
    }
  }
  return *best;
}

std::vector<QuantityVector> EnumerateSupplyVectors(
    const CapacitySupplySet& set, const QuantityVector& ceil) {
  std::vector<QuantityVector> result;
  QuantityVector current(set.num_classes());
  std::function<void(int)> recurse = [&](int k) {
    if (k == set.num_classes()) {
      if (set.Contains(current)) result.push_back(current);
      return;
    }
    Quantity max_k = set.CanEvaluateClass(k) ? ceil[k] : 0;
    for (Quantity q = 0; q <= max_k; ++q) {
      current[k] = q;
      if (!set.CanEvaluateClass(k) && q > 0) break;
      recurse(k + 1);
    }
    current[k] = 0;
  };
  recurse(0);
  return result;
}

}  // namespace qa::market
