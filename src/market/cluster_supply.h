#ifndef QAMARKET_MARKET_CLUSTER_SUPPLY_H_
#define QAMARKET_MARKET_CLUSTER_SUPPLY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "market/qa_nt.h"
#include "market/supply_set.h"
#include "market/vectors.h"
#include "util/vtime.h"

namespace qa::market {

/// One cluster's seat at the top-level market. The commodity traded there
/// is the cluster's *aggregate supply vector*: the eq.-4 supply of every
/// member summed per class, published by the sub-mediator at each global
/// period boundary. Between publishes the ledger is decremented as queries
/// are sold into the cluster, so the top market sees a conservative
/// remaining-supply estimate without messaging the members — the same
/// autonomy-preserving trick the per-node agent uses, one level up.
class ClusterSupplyAgent {
 public:
  ClusterSupplyAgent(int cluster, int num_classes)
      : cluster_(cluster),
        published_(num_classes),
        remaining_(num_classes),
        sold_(static_cast<size_t>(num_classes), 0) {}

  /// Period refresh: replaces the ledger with a freshly summed aggregate.
  void Publish(const QuantityVector& aggregate) {
    published_ = aggregate;
    remaining_ = aggregate;
  }

  /// Top-tier solicitation for one k-class query: offer iff the ledger
  /// still shows remaining aggregate supply for the class.
  bool OnSolicited(int k) const { return remaining_[k] > 0; }

  /// A member of this cluster won the tier-2 auction: one unit of the
  /// published aggregate is consumed.
  void OnSold(int k) {
    if (remaining_[k] > 0) remaining_[k] -= 1;
    ++sold_[static_cast<size_t>(k)];
  }

  /// The tier-2 market declined a query the ledger had offered on: the
  /// aggregate was stale (members sold out or went offline mid-period).
  /// Zeroing the class keeps the top market from re-routing follow-up
  /// queries into a cluster that just proved empty; the next publish
  /// restores whatever supply the members actually replan.
  void MarkExhausted(int k) { remaining_[k] = 0; }

  int cluster() const { return cluster_; }
  const QuantityVector& published() const { return published_; }
  const QuantityVector& remaining() const { return remaining_; }
  /// Cumulative units sold through this cluster, per class.
  const std::vector<int64_t>& sold() const { return sold_; }

 private:
  int cluster_;
  QuantityVector published_;
  QuantityVector remaining_;
  std::vector<int64_t> sold_;
};

/// Reusable buffers of DefaultPlannedSupply for one market shape: K
/// classes, one period budget and one agent configuration. Built once per
/// shape (O(K) allocations); every DefaultPlannedSupply call then reuses
/// them and makes no heap allocation.
struct DefaultPlanScratch {
  DefaultPlanScratch(int num_classes, util::VDuration period_budget,
                     const QaNtConfig& config);

  util::VDuration budget;
  /// A fresh agent's prices: the initial price, clamped into
  /// [price_floor, price_cap].
  PriceVector prices;
  /// The evaluable classes of the node being planned (capacity K).
  std::vector<int> classes;
  QuantityVector plan;
};

/// The supply vector a fresh default-state QaNtAgent with these unit costs
/// plans for its first period, floored at 1 for every evaluable class,
/// computed without building the agent: the agent's own eq.-4 knapsack
/// (MaximizeValueOver) at the clamped initial prices
/// against one whole period budget, which is exactly a fresh agent's first
/// BeginPeriod. The cluster market adds this for every member whose agent
/// was never instantiated, and subtracts the same value when the member's
/// agent is built: an uncontacted agent's plan is a pure function of its
/// configuration, so the sub-mediator can publish on behalf of its idle
/// members without building (or messaging) them.
///
/// `unit_costs` holds one entry per class of `scratch`
/// (query::kInfeasibleCost for a class the node cannot run). Returns a
/// view of scratch->plan, valid until the next call with the same scratch.
const QuantityVector& DefaultPlannedSupply(
    std::span<const util::VDuration> unit_costs, DefaultPlanScratch* scratch);

}  // namespace qa::market

#endif  // QAMARKET_MARKET_CLUSTER_SUPPLY_H_
