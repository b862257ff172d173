#ifndef QAMARKET_MARKET_MARKET_SIM_H_
#define QAMARKET_MARKET_MARKET_SIM_H_

#include <cstdint>
#include <utility>
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
///
/// Every request goes to every node able to evaluate its class, but only
/// the agents whose answer can still change are asked; the answers that
/// repeat are replayed the next time the agent's state is read (DESIGN.md
/// §13). The results are those of asking every agent, bit for bit.
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

  int num_nodes() const { return static_cast<int>(agents_.size()); }
  int num_classes() const { return num_classes_; }
  const QaNtAgent& agent(int node) const {
    return agents_[static_cast<size_t>(node)];
  }
  /// Queries still waiting, per client node.
  const std::vector<QuantityVector>& pending() const { return pending_; }

  /// Overrides one agent's prices between periods (warm starts, tests).
  void SetPrices(int node, PriceVector prices) {
    agents_[static_cast<size_t>(node)].SetPrices(std::move(prices));
  }

 private:
  /// How a period reaches one agent for one class.
  enum class Lane : uint8_t {
    kCannot,  // the node cannot evaluate the class: never asked
    kPolled,  // the answer can change: asked on every request
    kSticky,  // declines for the rest of the period (DeclineSticks)
    kQuiet,   // offers until its own state moves (WouldAccept)
  };
  struct Slot {
    /// Class requests this agent has answered this period; a lazy lane owes
    /// the rest of the class's count.
    int64_t seen = 0;
    /// Index in the class's polled list while kPolled.
    int32_t polled_at = -1;
    Lane lane = Lane::kCannot;
    /// Whether the class's quiet heap holds an entry for this agent.
    bool in_heap = false;
  };
  /// An offer's rank: the cheapest execution time wins, ties go to the
  /// lowest node id.
  struct Offer {
    util::VDuration cost;
    int node;
    friend bool operator<(const Offer& a, const Offer& b) {
      return a.cost != b.cost ? a.cost < b.cost : a.node < b.node;
    }
    friend bool operator>(const Offer& a, const Offer& b) { return b < a; }
  };
  /// One class's requests within the running period.
  struct ClassBook {
    int64_t requests = 0;
    std::vector<int> polled;
    /// Min-heap of the quiet offerers; entries whose agent left kQuiet are
    /// dropped when they surface.
    std::vector<Offer> quiet;
  };

  Slot& slot(int node, int k) {
    return slots_[static_cast<size_t>(node) *
                      static_cast<size_t>(num_classes_) +
                  static_cast<size_t>(k)];
  }
  Offer OfferOf(int node, int k) const {
    return {agents_[static_cast<size_t>(node)].unit_cost(k), node};
  }

  /// Places one class-`k` query of `client`: asks the polled agents, picks
  /// the cheapest offer and settles it.
  void Clear(int client, int k, PeriodResult* result);
  /// Replays the answers `node` owes on its lazy lanes.
  void Sync(int node);
  /// Puts every class of `node` on the lane its current state allows.
  /// Requires Sync first: the lanes start owing nothing.
  void Reclassify(int node);
  void SetLane(int node, int k, Lane lane);
  /// The cheapest quiet offerer of class `k`, or -1.
  int CheapestQuiet(int k);

  int num_classes_ = 0;
  std::vector<QaNtAgent> agents_;
  std::vector<QuantityVector> pending_;
  /// Node-major (node x class).
  std::vector<Slot> slots_;
  std::vector<ClassBook> books_;
  /// Per-period scratch: queries each client has still to place, the
  /// lowest class it may still hold, and the clients with any left.
  std::vector<QuantityVector> to_place_;
  std::vector<int> next_class_;
  std::vector<int> clients_;
  /// Per-request scratch: the agents a request polls; Reclassify's
  /// scratch: one lane per class.
  std::vector<int> asked_;
  std::vector<Lane> lanes_;
};

}  // namespace qa::market

#endif  // QAMARKET_MARKET_MARKET_SIM_H_
