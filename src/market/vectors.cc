#include "market/vectors.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>

namespace qa::market {

Quantity QuantityView::Total() const {
  return std::accumulate(q_.begin(), q_.end(), Quantity{0});
}

bool QuantityView::IsZero() const {
  return std::all_of(q_.begin(), q_.end(), [](Quantity v) { return v == 0; });
}

std::string QuantityView::ToString() const {
  std::string out = "(";
  for (size_t k = 0; k < q_.size(); ++k) {
    if (k != 0) out += ", ";
    out += std::to_string(q_[k]);
  }
  out += ")";
  return out;
}

bool operator==(QuantityView a, QuantityView b) {
  return std::equal(a.q_.begin(), a.q_.end(), b.q_.begin(), b.q_.end());
}

bool QuantityVector::ComponentwiseLeq(const QuantityVector& other) const {
  assert(num_classes() == other.num_classes());
  for (size_t k = 0; k < q_.size(); ++k) {
    if (q_[k] > other.q_[k]) return false;
  }
  return true;
}

QuantityVector& QuantityVector::operator+=(QuantityView other) {
  assert(num_classes() == other.num_classes());
  for (size_t k = 0; k < q_.size(); ++k) q_[k] += other.values()[k];
  return *this;
}

QuantityVector& QuantityVector::operator-=(QuantityView other) {
  assert(num_classes() == other.num_classes());
  for (size_t k = 0; k < q_.size(); ++k) q_[k] -= other.values()[k];
  return *this;
}

QuantityVector Aggregate(const std::vector<QuantityVector>& vectors) {
  if (vectors.empty()) return QuantityVector();
  QuantityVector sum(vectors[0].num_classes());
  for (const QuantityVector& v : vectors) sum += v;
  return sum;
}

void PriceVector::ClampFloor(double floor) {
  for (double& p : p_) p = std::max(p, floor);
}

std::string PriceView::ToString() const {
  std::string out = "(";
  char buf[32];
  for (size_t k = 0; k < p_.size(); ++k) {
    if (k != 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.4g", p_[k]);
    out += buf;
  }
  out += ")";
  return out;
}

double Dot(const PriceVector& prices, const QuantityVector& quantities) {
  assert(prices.num_classes() == quantities.num_classes());
  double sum = 0.0;
  for (int k = 0; k < prices.num_classes(); ++k) {
    sum += prices[k] * static_cast<double>(quantities[k]);
  }
  return sum;
}

QuantityVector ExcessDemand(const QuantityVector& aggregate_demand,
                            const QuantityVector& aggregate_supply) {
  return aggregate_demand - aggregate_supply;
}

}  // namespace qa::market
