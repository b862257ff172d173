#include "market/qa_nt.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

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

QaNtAgent::QaNtAgent(catalog::NodeId node,
                     std::vector<util::VDuration> unit_costs,
                     util::VDuration period_budget, QaNtConfig config)
    : node_(node),
      supply_set_(std::move(unit_costs), period_budget),
      config_(config),
      prices_(supply_set_.num_classes(),
              ClampPrice(config.initial_price, config)),
      planned_supply_(supply_set_.num_classes()),
      remaining_supply_(supply_set_.num_classes()) {
  assert(config_.Validate().ok());
  for (int k = 0; k < supply_set_.num_classes(); ++k) {
    if (CanEvaluate(k)) classes_.push_back(k);
  }
}

void QaNtAgent::BeginPeriod() {
  // Settle last period's books: work accepted beyond one period's capacity
  // carries over as debt and eats into this period's budget. Unused
  // capacity is banked as *negative* debt (at most one period's worth):
  // the integer knapsack always strands a fractional budget remainder, and
  // without banking that remainder is lost every period, systematically
  // under-supplying the market. No settlement happens before the first
  // period (there is nothing to bank yet).
  if (first_period_) {
    first_period_ = false;
  } else {
    util::VDuration floor =
        config_.bank_leftover_capacity ? -supply_set_.budget() : 0;
    debt_ = std::max<util::VDuration>(
        debt_ + accepted_cost_ - supply_set_.budget(), floor);
  }
  accepted_cost_ = 0;

  remaining_budget_ = supply_set_.budget() - debt_;
  // Out of budget, the greedy plans nothing.
  supply_set_.MaximizeValueOver(prices_, remaining_budget_, classes_,
                                &planned_supply_);
  for (int k : classes_) remaining_supply_[k] = planned_supply_[k];
  max_density_ = MaxDensity();
  ++stats_.periods;
}

double QaNtAgent::MaxDensity() const {
  double best = 0.0;
  for (int k : classes_) {
    if (!CanEvaluate(k)) continue;
    best = std::max(
        best, prices_[k] / static_cast<double>(supply_set_.unit_cost(k)));
  }
  return best;
}

bool QaNtAgent::SupplyRestrictionActive() const {
  if (config_.activation_threshold <= 0.0) return true;
  double max_price = 0.0;
  for (int k = 0; k < prices_.num_classes(); ++k) {
    max_price = std::max(max_price, prices_[k]);
  }
  return max_price >= config_.activation_threshold;
}

bool QaNtAgent::WouldAccept(int k) const {
  if (!CanEvaluate(k)) return false;
  if (remaining_budget_ <= 0) return false;
  util::VDuration cost = supply_set_.unit_cost(k);
  if (cost > remaining_budget_) {
    // Overshoot: only for classes that can never fit within one period
    // (cost > T), and only if the config allows debt financing. Classes
    // that do fit a period must wait for a period with budget.
    if (!config_.allow_min_one_offer || cost <= supply_set_.budget()) {
      return false;
    }
  }
  // First-order-condition gate (eq. 4, relaxed by the tolerance): supply
  // classes whose price-per-cost density is near the node's best. Armed
  // only while capacity is contended — an uncontended node's capacity has
  // zero shadow price, so it serves whatever it can evaluate.
  if (!density_gate_active_ && !config_.density_gate_when_idle) return true;
  if (max_density_ <= 0.0) return false;
  double density = prices_[k] / static_cast<double>(cost);
  return density >= config_.supply_density_tolerance * max_density_ - 1e-18;
}

bool QaNtAgent::OnRequest(int k) {
  ++stats_.requests_seen;
  if (!CanEvaluate(k)) return false;  // no data: not a market event at all
  if (WouldAccept(k)) {
    ++stats_.offers_made;
    return true;
  }
  if (!SupplyRestrictionActive()) {
    // Below the activation threshold the node behaves permissively: it
    // offers whenever it can physically evaluate the class, while prices
    // keep tracking demand in the background.
    ++stats_.offers_made;
    BumpPriceUp(k);
    return true;
  }
  // Step 8-9: decline and raise the price of the scarce class.
  ++stats_.declines_no_supply;
  BumpPriceUp(k);
  return false;
}

bool QaNtAgent::BudgetBars(int k) const {
  if (remaining_budget_ <= 0) return true;
  util::VDuration cost = supply_set_.unit_cost(k);
  return cost > remaining_budget_ &&
         (!config_.allow_min_one_offer || cost <= supply_set_.budget());
}

bool QaNtAgent::PriceAtFixedPoint(int k) const {
  double price = prices_[k];
  // Exact compare on purpose: the claim is that BumpPriceUp's own
  // expression maps the price to itself bit for bit.
  // qa-lint: allow(QA-NUM-001)
  return std::min(price * (1.0 + config_.lambda), config_.price_cap) == price;
}

bool QaNtAgent::DeclineIsInert(int k) const {
  return PriceAtFixedPoint(k) &&
         (!CanEvaluate(k) ||
          prices_[k] / static_cast<double>(supply_set_.unit_cost(k)) <=
              max_density_);
}

bool QaNtAgent::DeclineSticks(int k) const {
  // Restriction stays on: bumps only raise prices (every price already
  // lies at or under the cap), so the top price stays at or above the
  // threshold.
  if (!CanEvaluate(k) || !SupplyRestrictionActive()) return false;
  // The budget only falls.
  if (BudgetBars(k)) return true;
  // Otherwise only the density gate can bar k. Its bar only rises, and
  // once it is positive, k's density can rise no more at the fixed point.
  return !WouldAccept(k) && max_density_ > 0.0 && PriceAtFixedPoint(k);
}

bool QaNtAgent::OnRepeatedRequests(int k, int64_t n) {
  assert(WouldAccept(k) || DeclineSticks(k));
  stats_.requests_seen += n;
  if (WouldAccept(k)) {
    stats_.offers_made += n;
    return true;
  }
  stats_.declines_no_supply += n;
  // The first bump from the fixed point may still raise max_density_;
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
  ++stats_.offers_accepted;
  earnings_ += prices_[k];
  util::VDuration cost = supply_set_.unit_cost(k);
  accepted_cost_ += cost;
  remaining_budget_ -= cost;
  if (remaining_supply_[k] > 0) {
    remaining_supply_[k] -= 1;
  }
}

void QaNtAgent::EndPeriod() {
  // Complementary slackness: arm the density gate for the next period only
  // if this one consumed the whole budget (capacity was scarce).
  density_gate_active_ = remaining_budget_ <= 0;
  // Steps 12-14: leftover supply means the price was too high for the
  // demand this node saw; decay proportionally to the leftover quantity.
  // Unlisted prices need no clamp: construction and SetPrices clamp them,
  // and nothing else moves them.
  for (int k : classes_) {
    Quantity leftover = std::min<Quantity>(
        remaining_supply_[k], config_.max_leftover_decay_units);
    if (leftover > 0) {
      double factor = 1.0 - config_.lambda * static_cast<double>(leftover);
      prices_[k] *= std::max(factor, 0.0);
    }
    prices_[k] = std::max(prices_[k], config_.price_floor);
  }
}

void QaNtAgent::BumpPriceUp(int k) {
  prices_[k] = std::min(prices_[k] * (1.0 + config_.lambda),
                        config_.price_cap);
  // A bump can promote this class to the node's best density.
  if (CanEvaluate(k)) {
    max_density_ = std::max(
        max_density_,
        prices_[k] / static_cast<double>(supply_set_.unit_cost(k)));
  }
}

void QaNtAgent::SetPrices(PriceVector prices) {
  assert(prices.num_classes() == prices_.num_classes());
  prices_ = std::move(prices);
  for (int k = 0; k < prices_.num_classes(); ++k) {
    prices_[k] = ClampPrice(prices_[k], config_);
  }
  max_density_ = MaxDensity();
}

void QaNtAgent::UpdateUnitCost(int k, util::VDuration cost) {
  // A class switched on joins the rollover list unless it was listed
  // before (an evaluable class always is).
  if (cost != CapacitySupplySet::kCannotEvaluate && !CanEvaluate(k) &&
      std::find(classes_.begin(), classes_.end(), k) == classes_.end()) {
    classes_.push_back(k);
  }
  supply_set_.SetUnitCost(k, cost);
}

}  // namespace qa::market
