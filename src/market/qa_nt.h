#ifndef QAMARKET_MARKET_QA_NT_H_
#define QAMARKET_MARKET_QA_NT_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "catalog/catalog.h"
#include "market/supply_set.h"
#include "market/vectors.h"
#include "query/cost_model.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::market {

/// Tuning knobs of the QA-NT non-tâtonnement agent (§3.3).
struct QaNtConfig {
  /// Price adjustment step lambda. Each trading failure moves the affected
  /// price by a factor (1 +/- lambda-ish); larger values react faster but
  /// estimate equilibrium prices less accurately.
  double lambda = 0.05;
  /// Every class's starting price, moved into [price_floor, price_cap]
  /// when outside it. A class the node has never been able to evaluate
  /// keeps this price unless SetPrices overrides it: the rollover skips
  /// such a class, floor clamp included.
  double initial_price = 1.0;
  /// Prices stay within [price_floor, price_cap] (R_+ with guards against
  /// collapse to zero and runaway growth during long overloads): every
  /// place that sets a price clamps both ends (ClampPrice), a decline bump
  /// clamps at the cap and the period-end decay at the floor.
  double price_floor = 1e-6;
  double price_cap = 1e12;
  /// Optional overload-activation threshold (§5.1 closing remark): when the
  /// node's maximum price is below the threshold the agent keeps tracking
  /// prices but offers to evaluate any feasible query, i.e. supply
  /// restriction only kicks in when prices signal system overload.
  /// 0 disables the feature (supply restriction always active).
  double activation_threshold = 0.0;
  /// Queries costing more than the period T would make the per-period
  /// knapsack supply zero forever (the paper's workloads have 1-14 s
  /// queries against T = 500 ms). With this enabled (default), an agent
  /// whose knapsack came out empty while budget remains still offers one
  /// query of any acceptable-density class; the overshoot is carried as
  /// debt that suppresses supply in following periods, so long-run
  /// capacity is respected.
  bool allow_min_one_offer = true;
  /// Relaxation of the first-order conditions used for admission: a class
  /// is supplied while budget remains iff its price-per-cost density is at
  /// least this fraction of the node's best density. 1.0 supplies only the
  /// densest class (fully rigid; with many classes and ~1 query per period
  /// the node would decline almost everything while idle); 0 disables the
  /// gate (plain admission control). The default keeps the market steering
  /// of the two-class experiments while staying elastic with 100 classes.
  ///
  /// The gate only arms itself when capacity is actually contended: by
  /// complementary slackness the shadow price of capacity is zero while
  /// budget goes unsold, so an agent whose previous period left budget on
  /// the table admits any evaluable class (see density_gate_when_idle to
  /// force the gate permanently on).
  double supply_density_tolerance = 0.5;
  /// Keep the density gate armed even after idle periods (paper-rigid
  /// behaviour; mainly for tests and ablations).
  bool density_gate_when_idle = false;
  /// Cap on the leftover quantity used in the end-of-period decay
  /// p_k -= s_ik * lambda * p_k. With planned supplies of 10-20 units an
  /// uncapped decay crashes a price to the floor in one period, and the
  /// one-bump-per-decline recovery then takes dozens of periods: the
  /// classic tatonnement-overshoot oscillation. Bounded per-period price
  /// moves are the standard stabilization.
  market::Quantity max_leftover_decay_units = 3;
  /// Bank one period's worth of unused capacity as negative debt. The
  /// integer knapsack always strands a fractional budget remainder; without
  /// banking that remainder is lost every period and the market
  /// systematically under-supplies. Disable for strict per-period supply
  /// sets (some tests and the Pareto oracle need that).
  bool bank_leftover_capacity = true;

  /// OK, or InvalidArgument naming the first field out of range: every
  /// numeric field must be finite and non-negative, price_floor at most
  /// price_cap and supply_density_tolerance at most 1.
  util::Status Validate() const;
};

/// `price` moved into [config.price_floor, config.price_cap]. Construction
/// and SetPrices set prices through it, so a decline bump never lowers a
/// price and the period-end decay never raises one.
inline double ClampPrice(double price, const QaNtConfig& config) {
  return std::min(std::max(price, config.price_floor), config.price_cap);
}

/// Counters exposed for the experiments (autonomy/message accounting).
struct QaNtAgentStats {
  int64_t requests_seen = 0;
  int64_t offers_made = 0;
  int64_t offers_accepted = 0;
  int64_t declines_no_supply = 0;
  int64_t periods = 0;
};

class QaNtAgent;
class QaNtAgentView;

/// The storage of one market's QA-NT agents: one row per agent, appended
/// in build order, all sharing one QaNtConfig and one period budget. Each
/// agent field is a parallel array, and all the arrays share one heap
/// block, allocated once at construction with room for `capacity` rows
/// (a clearing book's node count). The per-class fields (unit costs,
/// prices, planned and remaining supply, and the rollover's class list)
/// are K-strided, so a walk over rows in order streams through each array.
///
/// QaNtAgent and QaNtAgentView are the handles to a row, and the only way
/// to read or move an agent. The block never moves, so a handle, and a
/// PriceView or QuantityView of a row, stays valid until the pool is
/// destroyed or moved from. A moved-from pool may only be destroyed or
/// assigned to.
class AgentPool {
 public:
  /// An empty pool of no row and no class.
  AgentPool() = default;
  /// An empty pool with room for `capacity` rows of `num_classes` classes;
  /// `period_budget` is the length T of a time period (a node's serial
  /// execution capacity per period). Requires a `config` that validates
  /// (its owner checks it).
  AgentPool(int32_t capacity, int num_classes, util::VDuration period_budget,
            const QaNtConfig& config);
  AgentPool(AgentPool&&) noexcept = default;
  AgentPool& operator=(AgentPool&&) noexcept = default;

  int num_classes() const { return num_classes_; }
  int32_t size() const { return size_; }

  /// Appends a fresh agent of `node` and returns its row. `unit_costs`
  /// holds one entry per class: the node's execution time for one query
  /// of the class, or query::kInfeasibleCost for a class it cannot run.
  /// Requires room: fewer rows than the capacity.
  int32_t Append(catalog::NodeId node,
                 std::span<const util::VDuration> unit_costs);
  /// Makes `row` a fresh agent of its node again, with `unit_costs`: every
  /// learned price, plan, debt, tally and earning is gone.
  void Reset(int32_t row, std::span<const util::VDuration> unit_costs);

  QaNtAgent agent(int32_t row);
  QaNtAgentView agent(int32_t row) const;

 private:
  friend class QaNtAgentView;
  friend class QaNtAgent;

  size_t K() const { return static_cast<size_t>(num_classes_); }
  size_t At(int32_t row) const {
    assert(row >= 0 && row < size_);
    return static_cast<size_t>(row);
  }
  /// Where the slice of `row` starts in the K-strided arrays.
  size_t Slice(int32_t row) const { return At(row) * K(); }
  /// Index of class `k` of `row` in the K-strided arrays.
  size_t Cell(int32_t row, int k) const {
    assert(k >= 0 && k < num_classes_);
    return Slice(row) + static_cast<size_t>(k);
  }
  /// Calls `f(column, entries_per_row)` for every array of the block.
  template <typename F>
  void ForEachColumn(F f);

  int num_classes_ = 0;
  util::VDuration budget_ = 0;
  QaNtConfig config_;
  int32_t size_ = 0;
  int32_t capacity_ = 0;
  /// Holds every array below.
  std::unique_ptr<std::byte[]> block_;

  // K entries per row: row r's class k sits at r * K + k.
  util::VDuration* unit_costs_ = nullptr;
  double* prices_ = nullptr;
  /// s_i planned at the row's last BeginPeriod, and its unsold part.
  Quantity* planned_ = nullptr;
  Quantity* remaining_ = nullptr;
  /// Every class the row's node has ever been able to evaluate, in the
  /// greedy order of its last BeginPeriod: the first listed_[r] entries of
  /// the row's slice. The period rollover walks only these: a class
  /// outside them has zero supply, and its price moves only through
  /// SetPrices. A class switched off keeps its place, because supply left
  /// over from before the switch still decays.
  int* classes_ = nullptr;

  // One entry per row.
  catalog::NodeId* nodes_ = nullptr;
  int32_t* listed_ = nullptr;
  /// Carryover debt (see QaNtConfig::allow_min_one_offer); negative values
  /// are banked capacity from integer-rounding leftovers.
  util::VDuration* debt_ = nullptr;
  /// Execution time accepted during the current period.
  util::VDuration* accepted_cost_ = nullptr;
  /// Unspent budget of the running period (admission is budget-elastic
  /// within the density gate, not hard-committed to the planned classes).
  util::VDuration* remaining_budget_ = nullptr;
  /// Best price-per-cost density over evaluable classes at period start
  /// (kept fresh as declines bump prices up).
  double* max_density_ = nullptr;
  double* earnings_ = nullptr;
  // QaNtAgentStats, one array per counter: the rollover reads only
  // periods_, the request path the rest.
  int64_t* requests_seen_ = nullptr;
  int64_t* offers_made_ = nullptr;
  int64_t* offers_accepted_ = nullptr;
  int64_t* declines_no_supply_ = nullptr;
  int64_t* periods_ = nullptr;
  /// No period begun yet: the first BeginPeriod settles no debt.
  bool* first_period_ = nullptr;
  /// Armed when the previous period ended with no budget left (capacity
  /// contended => positive shadow price => enforce first-order conditions).
  bool* density_gate_ = nullptr;
};

/// A read-only handle to one agent of an AgentPool: every read of
/// QaNtAgent, and none of its moves. What a clearing book hands out for
/// reads (ClearingBook::agent).
class QaNtAgentView {
 public:
  QaNtAgentView(const AgentPool* pool, int32_t row)
      : pool_(pool), row_(row) {}

  int32_t row() const { return row_; }
  catalog::NodeId node() const { return pool_->nodes_[r()]; }
  PriceView prices() const {
    return PriceView(
        std::span<const double>(pool_->prices_ + slice(), pool_->K()));
  }
  /// s_i computed at the start of the current period.
  QuantityView planned_supply() const {
    return QuantityView(
        std::span<const Quantity>(pool_->planned_ + slice(), pool_->K()));
  }
  /// Remaining (not yet accepted) part of the planned supply.
  QuantityView remaining_supply() const {
    return QuantityView(
        std::span<const Quantity>(pool_->remaining_ + slice(), pool_->K()));
  }
  QaNtAgentStats stats() const {
    size_t r = this->r();
    return {pool_->requests_seen_[r], pool_->offers_made_[r],
            pool_->offers_accepted_[r], pool_->declines_no_supply_[r],
            pool_->periods_[r]};
  }

  bool CanEvaluate(int k) const {
    return unit_cost(k) != query::kInfeasibleCost;
  }
  util::VDuration unit_cost(int k) const {
    return pool_->unit_costs_[cell(k)];
  }

  /// True when the activation threshold (if any) says prices are still low
  /// enough that the agent should not restrict supply.
  bool SupplyRestrictionActive() const;

  /// Capacity debt carried into the current period: execution time accepted
  /// in earlier periods that exceeds the capacity those periods offered.
  util::VDuration debt() const { return pool_->debt_[r()]; }

  /// Unspent execution-time budget of the current period (negative after
  /// an allowed overshoot).
  util::VDuration remaining_budget() const {
    return pool_->remaining_budget_[r()];
  }

  /// Whether a request for class `k` would currently be offered.
  bool WouldAccept(int k) const;

  // Repeated answers. Within a period, budgets only fall, decline bumps
  // only move prices toward the cap and the density gate's bar only rises,
  // so some answers cannot change until something of this agent's own
  // moves. The clearing book (ClearingBook) polls an agent only when its
  // answer can change, and replays the rest with OnRepeatedRequests. Each
  // claim below holds until the next BeginPeriod, SetPrices or
  // UpdateUnitCost.

  /// Whether every OnRequest(k) of the rest of the period declines,
  /// whatever requests and accepted offers for other classes come between:
  /// supply restriction is active for good and either the remaining budget
  /// can no longer cover `k`, or the density gate bars `k` (max density
  /// positive) while its price sits at the bump's fixed point. (A
  /// WouldAccept(k) offer repeats too, but only until this agent accepts a
  /// query or its max density moves.)
  bool DeclineSticks(int k) const;

  /// Whether a decline leaves the price of class `k` where it is:
  /// min(p * (1 + lambda), price_cap) == p.
  bool PriceAtFixedPoint(int k) const;

  /// Whether a decline of class `k` moves nothing but tallies: its price
  /// sits at the fixed point and its density is no higher than max
  /// density. (Only an UpdateUnitCost that cuts a cost mid-period can put
  /// a fixed-point price's density above max density, and its first
  /// decline then raises max density.)
  bool DeclineIsInert(int k) const;

  /// Cumulative virtual value earned by this node: the sum over accepted
  /// queries of their price at acceptance time. This is the node's utility
  /// in the market; the equitable-allocation extension (paper §6) selects
  /// offers so as to equalize it across nodes.
  double earnings() const { return pool_->earnings_[r()]; }

  /// True when the first-order-condition density gate is armed (capacity
  /// was contended in the previous period).
  bool density_gate_active() const { return pool_->density_gate_[r()]; }

 protected:
  /// The row's index in the per-row arrays, its slice in the K-strided
  /// ones, and class `k`'s place there.
  size_t r() const { return pool_->At(row_); }
  size_t slice() const { return pool_->Slice(row_); }
  size_t cell(int k) const { return pool_->Cell(row_, k); }
  /// The rollover's classes, in the greedy order of the last BeginPeriod.
  std::span<int> classes() const {
    return {pool_->classes_ + slice(),
            static_cast<size_t>(pool_->listed_[r()])};
  }
  /// WouldAccept's budget clauses: true when the remaining budget cannot
  /// cover class `k` (no overshoot allowed for it).
  bool BudgetBars(int k) const;
  /// Best price-per-cost density over the currently evaluable classes.
  double MaxDensity() const;

 private:
  const AgentPool* pool_;
  int32_t row_;
};

/// One server node's QA-NT state machine: private prices, the per-period
/// supply vector obtained by solving eq. (4), and the non-tâtonnement price
/// adjustments of the QA-NT algorithm listing (§3.3).
///
/// The agent is deliberately self-contained: it never sees other nodes'
/// prices, loads or capabilities — its only inputs are the requests clients
/// send it and the fate of its own offers. This is what preserves node
/// autonomy (Table 2).
///
/// A QaNtAgent is a handle to one row of an AgentPool, where its state
/// lives; a market's agents share one pool (ClearingBook), and an agent
/// driven on its own is the one row of a pool of its own. A handle owns
/// nothing and copies freely; QaNtAgentView is the read-only one.
class QaNtAgent : public QaNtAgentView {
 public:
  /// The agent in `row` of `pool`.
  QaNtAgent(AgentPool* pool, int32_t row)
      : QaNtAgentView(pool, row), pool_(pool) {}

  /// Step 2: given current prices, recompute the optimal supply vector for
  /// the period that now begins.
  void BeginPeriod();

  /// Steps 4-10: a client asks this node to evaluate a k-class query.
  /// Returns true iff the node offers: the period's execution-time budget
  /// still covers the query (see WouldAccept) and the class's price
  /// density passes the first-order-condition gate. When the node declines
  /// a class it could evaluate in principle, the price of k is raised:
  /// p_k += lambda * p_k (step 9).
  bool OnRequest(int k);

  /// Step 6: the client accepted our offer; one unit of supply is consumed.
  /// An offer the client turns down needs no call: the listing moves no
  /// price when an offer loses, and the unused unit is caught by the
  /// end-of-period decay.
  void OnOfferAccepted(int k);

  /// Steps 12-14: for every class with leftover planned supply, decay the
  /// price: p_k -= s_ik * lambda * p_k (clamped to the floor).
  void EndPeriod();

  /// Answers `n` requests for class `k` at once, exactly as `n` OnRequest(k)
  /// calls in a row would, and returns that answer. Requires WouldAccept(k)
  /// (`n` offers, which move only the tallies) or DeclineSticks(k) (`n`
  /// declines, whose price bumps stop at the fixed point).
  bool OnRepeatedRequests(int k, int64_t n);

  /// Overrides the current prices (tests / warm starts), each moved into
  /// [price_floor, price_cap].
  void SetPrices(PriceView prices);

  /// Revises this node's own execution-time belief for class `k` (fed by
  /// the node's plan-history estimator in the real-DBMS deployment, §5.2);
  /// query::kInfeasibleCost switches the class off. unit_cost(k),
  /// WouldAccept's budget and density tests and the offer ranking read the
  /// new cost at once; max density, the density gate's bar, keeps the old
  /// one until the next decline bump or BeginPeriod. Only the node's
  /// private data is involved, so autonomy is intact.
  void UpdateUnitCost(int k, util::VDuration cost);

 private:
  void BumpPriceUp(int k);

  /// The pool, writable (the base holds it read-only).
  AgentPool* pool_;
};

static_assert(std::is_trivially_copyable_v<QaNtAgent>);

inline bool QaNtAgentView::WouldAccept(int k) const {
  if (!CanEvaluate(k)) return false;
  const QaNtConfig& config = pool_->config_;
  util::VDuration remaining = remaining_budget();
  if (remaining <= 0) return false;
  util::VDuration cost = unit_cost(k);
  if (cost > remaining) {
    // Overshoot: only for classes that can never fit within one period
    // (cost > T), and only if the config allows debt financing. Classes
    // that do fit a period must wait for a period with budget.
    if (!config.allow_min_one_offer || cost <= pool_->budget_) return false;
  }
  // First-order-condition gate (eq. 4, relaxed by the tolerance): supply
  // classes whose price-per-cost density is near the node's best. Armed
  // only while capacity is contended — an uncontended node's capacity has
  // zero shadow price, so it serves whatever it can evaluate.
  if (!density_gate_active() && !config.density_gate_when_idle) return true;
  double max_density = pool_->max_density_[r()];
  if (max_density <= 0.0) return false;
  double density = prices()[k] / static_cast<double>(cost);
  return density >= config.supply_density_tolerance * max_density - 1e-18;
}

inline bool QaNtAgentView::BudgetBars(int k) const {
  util::VDuration remaining = remaining_budget();
  if (remaining <= 0) return true;
  util::VDuration cost = unit_cost(k);
  return cost > remaining && (!pool_->config_.allow_min_one_offer ||
                              cost <= pool_->budget_);
}

inline QaNtAgent AgentPool::agent(int32_t row) {
  assert(row >= 0 && row < size_);
  return QaNtAgent(this, row);
}

inline QaNtAgentView AgentPool::agent(int32_t row) const {
  assert(row >= 0 && row < size_);
  return QaNtAgentView(this, row);
}

}  // namespace qa::market

#endif  // QAMARKET_MARKET_QA_NT_H_
