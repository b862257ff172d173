#ifndef QAMARKET_MARKET_SUPPLY_SET_H_
#define QAMARKET_MARKET_SUPPLY_SET_H_

#include <memory>
#include <span>
#include <vector>

#include "market/vectors.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::market {

/// The eq.-4 density greedy, the one knapsack of the market: plans the
/// candidate classes `classes` (each at most once) against an arbitrary
/// budget, at `prices` and with `unit_costs` (one entry per class,
/// query::kInfeasibleCost for a class the node cannot run).
/// The QA-NT agent plans each period against its remaining capacity after
/// debt, over only the classes it can supply. Writes the plan of every
/// listed class into `supply` and leaves the other entries untouched.
/// Sorts `classes` in place into greedy order — descending price-per-cost
/// density, ties by class id, then the classes it cannot plan (not
/// evaluable or without a positive price) by id — so a list kept across
/// calls arrives nearly sorted. Returns the highest density of a listed
/// class it can plan, or 0 when it can plan none. Makes no heap
/// allocation.
double MaximizeValueOver(std::span<const double> prices,
                         std::span<const util::VDuration> unit_costs,
                         util::VDuration budget, std::span<int> classes,
                         std::span<Quantity> supply);

/// The supply set S_i of a node: all supply vectors its hardware can realize
/// within one time period (§2.2).
class SupplySet {
 public:
  virtual ~SupplySet() = default;

  virtual int num_classes() const = 0;

  /// True iff `supply` is feasible for this node within one period.
  virtual bool Contains(const QuantityVector& supply) const = 0;

  /// Solves the seller's problem (eq. 4): the feasible supply vector with
  /// the largest virtual value p . s. Ties may be broken arbitrarily.
  virtual QuantityVector MaximizeValue(const PriceVector& prices) const = 0;
};

/// Supply set of a node with a single serial executor: a supply vector is
/// feasible iff the summed execution costs of its queries fit into the
/// period budget, and classes the node cannot evaluate have zero supply.
///
/// MaximizeValue is an unbounded-knapsack instance. We use the classic
/// density greedy (fill by descending price-per-cost, then try to top up
/// with the remaining classes). This matches the paper's "first order
/// conditions" reading of eq. 4: the continuous optimum supplies only the
/// best-density class, and the greedy is its integer rounding. The result is
/// always feasible and is exact whenever one class dominates or costs divide
/// the budget evenly; FiniteSupplySet provides an exact oracle for tests.
class CapacitySupplySet : public SupplySet {
 public:
  /// `unit_costs[k]` is the node's execution time for one k-class query,
  /// which must be positive, or query::kInfeasibleCost for a class the node
  /// cannot run at all. A class costing more than `budget` is evaluable
  /// but fits no supply vector.
  CapacitySupplySet(std::vector<util::VDuration> unit_costs,
                    util::VDuration budget);

  int num_classes() const override {
    return static_cast<int>(unit_costs_.size());
  }
  util::VDuration budget() const { return budget_; }
  util::VDuration unit_cost(int k) const {
    return unit_costs_[static_cast<size_t>(k)];
  }
  bool CanEvaluateClass(int k) const {
    return unit_costs_[static_cast<size_t>(k)] != query::kInfeasibleCost;
  }

  /// Total execution time of `supply`; query::kInfeasibleCost if it uses a
  /// class the node cannot run.
  util::VDuration CostOf(const QuantityVector& supply) const;

  bool Contains(const QuantityVector& supply) const override;
  /// The greedy (market::MaximizeValueOver) over every class against the
  /// period budget.
  QuantityVector MaximizeValue(const PriceVector& prices) const override;

 private:
  std::vector<util::VDuration> unit_costs_;
  util::VDuration budget_;
};

/// An explicitly enumerated supply set, mainly for tests and the paper's
/// small examples: Contains and MaximizeValue are exact by construction.
class FiniteSupplySet : public SupplySet {
 public:
  explicit FiniteSupplySet(std::vector<QuantityVector> vectors);

  int num_classes() const override { return num_classes_; }
  bool Contains(const QuantityVector& supply) const override;
  QuantityVector MaximizeValue(const PriceVector& prices) const override;

  const std::vector<QuantityVector>& vectors() const { return vectors_; }

 private:
  int num_classes_ = 0;
  std::vector<QuantityVector> vectors_;
};

/// Enumerates every feasible supply vector of a CapacitySupplySet (bounded
/// by per-class maxima `ceil`); exponential, for tests on small instances.
std::vector<QuantityVector> EnumerateSupplyVectors(
    const CapacitySupplySet& set, const QuantityVector& ceil);

}  // namespace qa::market

#endif  // QAMARKET_MARKET_SUPPLY_SET_H_
