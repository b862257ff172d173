#ifndef QAMARKET_MARKET_MARKET_SIM_H_
#define QAMARKET_MARKET_MARKET_SIM_H_

#include <memory>
#include <vector>

#include "market/qa_nt.h"
#include "market/vectors.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::market {

/// Configuration of the synchronous market loop.
struct MarketSimConfig {
  /// Length T of one time period.
  util::VDuration period = 500 * util::kMillisecond;
  QaNtConfig agent;
};

/// Synchronous, period-driven execution of the query market: every node
/// runs a QaNtAgent, clients request offers for their queued queries, accept
/// the cheapest offer and resubmit unserved queries in the next period.
///
/// This is the distilled mechanism of §3.3 without queueing or execution
/// delays; the discrete-event simulator in src/sim embeds the same agents
/// into a full timing model. The synchronous loop is what the convergence
/// tests (Proposition 3.1) and the equilibrium experiments run on.
class MarketSimulator {
 public:
  /// One node per cost-model column; node i's agent prices all K classes
  /// and can evaluate class k iff cost_model->CanEvaluate(k, i).
  MarketSimulator(const query::CostModel* cost_model, MarketSimConfig config);

  struct PeriodResult {
    /// Demand faced this period (new arrivals + carryover), per node.
    std::vector<QuantityVector> demands;
    /// What each client node got evaluated this period (c_i).
    std::vector<QuantityVector> consumptions;
    /// What each server node actually supplied this period (s_i).
    std::vector<QuantityVector> supplies;
    QuantityVector aggregate_demand;
    QuantityVector aggregate_consumption;
    /// demand - consumption (queries rolled over to the next period).
    QuantityVector unserved;
  };

  /// Runs one period: injects `new_demands` (per client node), lets every
  /// agent plan its supply, brokers requests/offers/accepts, applies the
  /// end-of-period price decay and returns the period's bookkeeping.
  PeriodResult RunPeriod(const std::vector<QuantityVector>& new_demands);

  int num_nodes() const { return static_cast<int>(agents_.size()); }
  int num_classes() const { return cost_model_->num_classes(); }
  const QaNtAgent& agent(int node) const {
    return *agents_[static_cast<size_t>(node)];
  }
  QaNtAgent& mutable_agent(int node) {
    return *agents_[static_cast<size_t>(node)];
  }
  /// Queries still waiting, per client node.
  const std::vector<QuantityVector>& pending() const { return pending_; }

 private:
  const query::CostModel* cost_model_;
  MarketSimConfig config_;
  std::vector<std::unique_ptr<QaNtAgent>> agents_;
  std::vector<QuantityVector> pending_;
};

}  // namespace qa::market

#endif  // QAMARKET_MARKET_MARKET_SIM_H_
