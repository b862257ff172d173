#include "market/qa_nt.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <type_traits>

namespace qa::market {

util::Status QaNtConfig::Validate() const {
  const double unbounded = std::numeric_limits<double>::max();
  const struct {
    const char* name;
    double value;
    double max;
  } fields[] = {
      {"lambda", lambda, unbounded},
      {"initial_price", initial_price, unbounded},
      {"price_cap", price_cap, unbounded},
      {"price_floor", price_floor, price_cap},
      {"activation_threshold", activation_threshold, unbounded},
      {"supply_density_tolerance", supply_density_tolerance, 1.0},
      {"max_leftover_decay_units",
       static_cast<double>(max_leftover_decay_units), unbounded},
  };
  for (const auto& field : fields) {
    // NaN fails both bounds, and infinity the upper one.
    if (!(field.value >= 0.0 && field.value <= field.max)) {
      std::string bound = field.max < unbounded
                              ? ", at most " + std::to_string(field.max)
                              : "";
      return util::Status::InvalidArgument(
          std::string(field.name) + " is " + std::to_string(field.value) +
          "; it must be finite and non-negative" + bound);
    }
  }
  return util::Status::OK();
}

template <typename F>
void AgentPool::ForEachColumn(F f) {
  f(unit_costs_, K());
  f(prices_, K());
  f(planned_, K());
  f(remaining_, K());
  f(classes_, K());
  f(nodes_, size_t{1});
  f(listed_, size_t{1});
  f(debt_, size_t{1});
  f(accepted_cost_, size_t{1});
  f(remaining_budget_, size_t{1});
  f(max_density_, size_t{1});
  f(earnings_, size_t{1});
  f(requests_seen_, size_t{1});
  f(offers_made_, size_t{1});
  f(offers_accepted_, size_t{1});
  f(declines_no_supply_, size_t{1});
  f(periods_, size_t{1});
  f(first_period_, size_t{1});
  f(density_gate_, size_t{1});
}

AgentPool::AgentPool(int32_t capacity, int num_classes,
                     util::VDuration period_budget, const QaNtConfig& config)
    : num_classes_(num_classes),
      budget_(period_budget),
      config_(config),
      capacity_(capacity) {
  assert(capacity_ >= 0 && num_classes_ >= 0);
  assert(config_.Validate().ok());
  size_t rows = static_cast<size_t>(capacity_);
  // Each array starts on a max_align_t boundary of the block.
  auto align = [](size_t at) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    return (at + kAlign - 1) / kAlign * kAlign;
  };
  // A cache line of padding before each array: a capacity that makes a
  // K-strided array a whole number of 4 KiB pages would otherwise put a
  // row's cells in every such array at one page offset, and so in one L1
  // set.
  constexpr size_t kPad = 64;
  size_t bytes = 0;
  ForEachColumn([&](auto*& column, size_t per_row) {
    bytes = align(bytes) + kPad + sizeof(*column) * per_row * rows;
  });
  // A byte array provides storage for the columns' trivially copyable
  // values; a row's entries are written when it is appended.
  block_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  size_t at = 0;
  ForEachColumn([&](auto*& column, size_t per_row) {
    using T = std::remove_reference_t<decltype(*column)>;
    static_assert(std::is_trivially_copyable_v<T>);
    at = align(at) + kPad;
    column = reinterpret_cast<T*>(block_.get() + at);
    at += sizeof(T) * per_row * rows;
  });
}

int32_t AgentPool::Append(catalog::NodeId node,
                          std::span<const util::VDuration> unit_costs) {
  assert(size_ < capacity_);
  int32_t row = size_++;
  nodes_[At(row)] = node;
  Reset(row, unit_costs);
  return row;
}

void AgentPool::Reset(int32_t row,
                      std::span<const util::VDuration> unit_costs) {
  assert(unit_costs.size() == K());
  size_t r = At(row);
  double price = ClampPrice(config_.initial_price, config_);
  int32_t listed = 0;
  for (int k = 0; k < num_classes_; ++k) {
    util::VDuration cost = unit_costs[static_cast<size_t>(k)];
    assert(cost > 0);
    size_t cell = Cell(row, k);
    unit_costs_[cell] = cost;
    prices_[cell] = price;
    planned_[cell] = 0;
    remaining_[cell] = 0;
    if (cost != query::kInfeasibleCost) {
      classes_[Slice(row) + static_cast<size_t>(listed++)] = k;
    }
  }
  listed_[r] = listed;
  debt_[r] = 0;
  accepted_cost_[r] = 0;
  remaining_budget_[r] = 0;
  max_density_[r] = 0.0;
  earnings_[r] = 0.0;
  requests_seen_[r] = 0;
  offers_made_[r] = 0;
  offers_accepted_[r] = 0;
  declines_no_supply_[r] = 0;
  periods_[r] = 0;
  first_period_[r] = true;
  density_gate_[r] = false;
}

bool QaNtAgentView::SupplyRestrictionActive() const {
  const QaNtConfig& config = pool_->config_;
  if (config.activation_threshold <= 0.0) return true;
  double max_price = 0.0;
  for (double price : prices().values()) {
    max_price = std::max(max_price, price);
  }
  return max_price >= config.activation_threshold;
}

bool QaNtAgentView::PriceAtFixedPoint(int k) const {
  const QaNtConfig& config = pool_->config_;
  double price = prices()[k];
  // Exact compare on purpose: the claim is that BumpPriceUp's own
  // expression maps the price to itself bit for bit.
  // qa-lint: allow(QA-NUM-001)
  return std::min(price * (1.0 + config.lambda), config.price_cap) == price;
}

bool QaNtAgentView::DeclineIsInert(int k) const {
  return PriceAtFixedPoint(k) &&
         (!CanEvaluate(k) || prices()[k] / static_cast<double>(unit_cost(k)) <=
                                 pool_->max_density_[r()]);
}

bool QaNtAgentView::DeclineSticks(int k) const {
  // Restriction stays on: bumps only raise prices (every price already
  // lies at or under the cap), so the top price stays at or above the
  // threshold.
  if (!CanEvaluate(k) || !SupplyRestrictionActive()) return false;
  // The budget only falls.
  if (BudgetBars(k)) return true;
  // Otherwise only the density gate can bar k. Its bar only rises, and
  // once it is positive, k's density can rise no more at the fixed point.
  return !WouldAccept(k) && pool_->max_density_[r()] > 0.0 &&
         PriceAtFixedPoint(k);
}

double QaNtAgentView::MaxDensity() const {
  double best = 0.0;
  for (int k : classes()) {
    if (!CanEvaluate(k)) continue;
    best = std::max(best, prices()[k] / static_cast<double>(unit_cost(k)));
  }
  return best;
}

void QaNtAgent::BeginPeriod() {
  AgentPool& pool = *pool_;
  size_t r = this->r();
  util::VDuration budget = pool.budget_;
  // Settle last period's books: work accepted beyond one period's capacity
  // carries over as debt and eats into this period's budget. Unused
  // capacity is banked as *negative* debt (at most one period's worth):
  // the integer knapsack always strands a fractional budget remainder, and
  // without banking that remainder is lost every period, systematically
  // under-supplying the market. No settlement happens before the first
  // period (there is nothing to bank yet).
  if (pool.first_period_[r]) {
    pool.first_period_[r] = false;
  } else {
    util::VDuration floor = pool.config_.bank_leftover_capacity ? -budget : 0;
    pool.debt_[r] = std::max<util::VDuration>(
        pool.debt_[r] + pool.accepted_cost_[r] - budget, floor);
  }
  pool.accepted_cost_[r] = 0;

  pool.remaining_budget_[r] = budget - pool.debt_[r];
  // Out of budget, the greedy plans nothing. Its top density is
  // MaxDensity(): a listed class it cannot plan has no cost or a zero
  // price.
  size_t slice = this->slice();
  std::span<int> listed = classes();
  pool.max_density_[r] = MaximizeValueOver(
      std::span<const double>(pool.prices_ + slice, pool.K()),
      std::span<const util::VDuration>(pool.unit_costs_ + slice, pool.K()),
      pool.remaining_budget_[r], listed,
      std::span<Quantity>(pool.planned_ + slice, pool.K()));
  for (int k : listed) {
    size_t cell = slice + static_cast<size_t>(k);
    pool.remaining_[cell] = pool.planned_[cell];
  }
  ++pool.periods_[r];
}

bool QaNtAgent::OnRequest(int k) {
  AgentPool& pool = *pool_;
  size_t r = this->r();
  ++pool.requests_seen_[r];
  if (!CanEvaluate(k)) return false;  // no data: not a market event at all
  if (WouldAccept(k)) {
    ++pool.offers_made_[r];
    return true;
  }
  if (!SupplyRestrictionActive()) {
    // Below the activation threshold the node behaves permissively: it
    // offers whenever it can physically evaluate the class, while prices
    // keep tracking demand in the background.
    ++pool.offers_made_[r];
    BumpPriceUp(k);
    return true;
  }
  // Step 8-9: decline and raise the price of the scarce class.
  ++pool.declines_no_supply_[r];
  BumpPriceUp(k);
  return false;
}

bool QaNtAgent::OnRepeatedRequests(int k, int64_t n) {
  assert(WouldAccept(k) || DeclineSticks(k));
  AgentPool& pool = *pool_;
  size_t r = this->r();
  pool.requests_seen_[r] += n;
  if (WouldAccept(k)) {
    pool.offers_made_[r] += n;
    return true;
  }
  pool.declines_no_supply_[r] += n;
  // The first bump from the fixed point may still raise max density;
  // every later one repeats it exactly.
  for (int64_t i = 0; i < n; ++i) {
    bool fixed = PriceAtFixedPoint(k);
    BumpPriceUp(k);
    if (fixed) break;
  }
  return false;
}

void QaNtAgent::OnOfferAccepted(int k) {
  assert(CanEvaluate(k));
  AgentPool& pool = *pool_;
  size_t r = this->r();
  size_t cell = this->cell(k);
  ++pool.offers_accepted_[r];
  pool.earnings_[r] += pool.prices_[cell];
  util::VDuration cost = pool.unit_costs_[cell];
  pool.accepted_cost_[r] += cost;
  pool.remaining_budget_[r] -= cost;
  if (pool.remaining_[cell] > 0) pool.remaining_[cell] -= 1;
}

void QaNtAgent::EndPeriod() {
  AgentPool& pool = *pool_;
  const QaNtConfig& config = pool.config_;
  size_t r = this->r();
  // Complementary slackness: arm the density gate for the next period only
  // if this one consumed the whole budget (capacity was scarce).
  pool.density_gate_[r] = pool.remaining_budget_[r] <= 0;
  // Steps 12-14: leftover supply means the price was too high for the
  // demand this node saw; decay proportionally to the leftover quantity.
  // Unlisted prices need no clamp: construction and SetPrices clamp them,
  // and nothing else moves them.
  size_t slice = this->slice();
  for (int k : classes()) {
    size_t cell = slice + static_cast<size_t>(k);
    double& price = pool.prices_[cell];
    Quantity leftover = std::min<Quantity>(pool.remaining_[cell],
                                           config.max_leftover_decay_units);
    if (leftover > 0) {
      double factor = 1.0 - config.lambda * static_cast<double>(leftover);
      price *= std::max(factor, 0.0);
    }
    price = std::max(price, config.price_floor);
  }
}

void QaNtAgent::BumpPriceUp(int k) {
  AgentPool& pool = *pool_;
  const QaNtConfig& config = pool.config_;
  double& price = pool.prices_[cell(k)];
  price = std::min(price * (1.0 + config.lambda), config.price_cap);
  // A bump can promote this class to the node's best density.
  if (CanEvaluate(k)) {
    double& best = pool.max_density_[r()];
    best = std::max(best, price / static_cast<double>(unit_cost(k)));
  }
}

void QaNtAgent::SetPrices(PriceView prices) {
  AgentPool& pool = *pool_;
  assert(static_cast<size_t>(prices.num_classes()) == pool.K());
  for (int k = 0; k < prices.num_classes(); ++k) {
    pool.prices_[cell(k)] = ClampPrice(prices[k], pool.config_);
  }
  pool.max_density_[r()] = MaxDensity();
}

void QaNtAgent::UpdateUnitCost(int k, util::VDuration cost) {
  AgentPool& pool = *pool_;
  // A class switched on joins the rollover list unless it was listed
  // before (an evaluable class always is).
  if (cost != query::kInfeasibleCost && !CanEvaluate(k)) {
    std::span<int> listed = classes();
    if (std::find(listed.begin(), listed.end(), k) == listed.end()) {
      pool.classes_[slice() + listed.size()] = k;
      ++pool.listed_[r()];
    }
  }
  pool.unit_costs_[cell(k)] = cost;
}

}  // namespace qa::market
