#ifndef QAMARKET_MARKET_MARKET_SIM_H_
#define QAMARKET_MARKET_MARKET_SIM_H_

#include <utility>
#include <vector>

#include "market/clearing_book.h"
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
///
/// The agents live in a ClearingBook that lists every node for each class
/// it can evaluate: every request clears through the book's broadcast
/// auction, which asks only the agents whose answer can still change
/// (DESIGN.md §13). The results are those of asking every agent, bit for
/// bit. The simulator keeps only the clients' round-robin and the period
/// loop.
class MarketSimulator {
 public:
  /// One node per cost-model column; node i's agent prices all K classes
  /// and can evaluate class k iff cost_model->CanEvaluate(k, i). The costs
  /// are read here, once. Aborts with a FATAL message unless
  /// `config.agent` validates.
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
  /// Aborts with a FATAL message unless `new_demands` holds one K-class
  /// vector per node.
  PeriodResult RunPeriod(const std::vector<QuantityVector>& new_demands);

  int num_nodes() const { return book_.num_nodes(); }
  int num_classes() const { return num_classes_; }
  QaNtAgentView agent(int node) const { return book_.agent(node); }
  /// Queries still waiting, per client node.
  const std::vector<QuantityVector>& pending() const { return pending_; }

  /// Overrides one agent's prices between periods (warm starts, tests).
  void SetPrices(int node, PriceVector prices) {
    book_.mutable_agent(node).SetPrices(prices);
  }

 private:
  /// Places one class-`k` query of `client` through the book and records
  /// its placement.
  void Clear(int client, int k, PeriodResult* result);

  int num_classes_ = 0;
  std::vector<QuantityVector> pending_;
  ClearingBook book_;
  /// Per-period scratch: queries each client has still to place, the
  /// lowest class it may still hold, and the clients with any left.
  std::vector<QuantityVector> to_place_;
  std::vector<int> next_class_;
  std::vector<int> clients_;
};

}  // namespace qa::market

#endif  // QAMARKET_MARKET_MARKET_SIM_H_
