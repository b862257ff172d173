#ifndef QAMARKET_MARKET_VECTORS_H_
#define QAMARKET_MARKET_VECTORS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace qa::market {

/// Number of queries of one class (entries of the demand/consumption/supply
/// vectors of §2.2).
using Quantity = int64_t;

class QuantityVector;

/// A read-only view of K query counts held elsewhere: a QuantityVector, or
/// one agent row of an AgentPool. Valid while what it views is neither
/// resized nor destroyed; an agent row's view, until its pool is destroyed
/// or moved from.
class QuantityView {
 public:
  explicit QuantityView(std::span<const Quantity> values) : q_(values) {}
  /// Implicit, so every QuantityVector reads as a view.
  QuantityView(const QuantityVector& vector);  // NOLINT

  int num_classes() const { return static_cast<int>(q_.size()); }
  Quantity operator[](int k) const { return q_[static_cast<size_t>(k)]; }
  std::span<const Quantity> values() const { return q_; }

  Quantity Total() const;
  bool IsZero() const;
  /// "(1, 6)" — for logs and tests.
  std::string ToString() const;

  friend bool operator==(QuantityView a, QuantityView b);

 private:
  std::span<const Quantity> q_;
};

/// A K-dimensional vector of query counts: one of the paper's demand (d_i),
/// consumption (c_i) or supply (s_i) vectors.
class QuantityVector {
 public:
  QuantityVector() = default;
  explicit QuantityVector(int num_classes)
      : q_(static_cast<size_t>(num_classes), 0) {}
  explicit QuantityVector(std::vector<Quantity> values)
      : q_(std::move(values)) {}

  int num_classes() const { return static_cast<int>(q_.size()); }

  Quantity operator[](int k) const { return q_[static_cast<size_t>(k)]; }
  Quantity& operator[](int k) { return q_[static_cast<size_t>(k)]; }

  /// Total number of queries (the preference relation of §2.2 compares
  /// exactly this: nodes prefer consuming more queries overall).
  Quantity Total() const { return QuantityView(*this).Total(); }

  bool IsZero() const { return QuantityView(*this).IsZero(); }
  /// True iff every component is <= the corresponding component of `other`.
  bool ComponentwiseLeq(const QuantityVector& other) const;

  QuantityVector& operator+=(QuantityView other);
  QuantityVector& operator-=(QuantityView other);
  friend QuantityVector operator+(QuantityVector lhs,
                                  const QuantityVector& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend QuantityVector operator-(QuantityVector lhs,
                                  const QuantityVector& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend bool operator==(const QuantityVector& a,
                         const QuantityVector& b) = default;

  const std::vector<Quantity>& values() const { return q_; }
  std::span<Quantity> mutable_values() { return q_; }

  /// "(1, 6)" — for logs and tests.
  std::string ToString() const { return QuantityView(*this).ToString(); }

 private:
  std::vector<Quantity> q_;
};

inline QuantityView::QuantityView(const QuantityVector& vector)
    : q_(vector.values()) {}

/// Sums a family of per-node vectors into the aggregate vector (eq. 1).
QuantityVector Aggregate(const std::vector<QuantityVector>& vectors);

class PriceVector;

/// A read-only view of K prices held elsewhere: a PriceVector, or one agent
/// row of an AgentPool. The same validity rule as QuantityView.
class PriceView {
 public:
  explicit PriceView(std::span<const double> values) : p_(values) {}
  /// Implicit, so every PriceVector reads as a view.
  PriceView(const PriceVector& vector);  // NOLINT

  int num_classes() const { return static_cast<int>(p_.size()); }
  double operator[](int k) const { return p_[static_cast<size_t>(k)]; }
  std::span<const double> values() const { return p_; }
  /// "(1, 0.25)": each price to four significant digits.
  std::string ToString() const;

 private:
  std::span<const double> p_;
};

/// The paper's virtual price vector p in R^K_+.
class PriceVector {
 public:
  PriceVector() = default;
  explicit PriceVector(int num_classes, double initial = 1.0)
      : p_(static_cast<size_t>(num_classes), initial) {}
  explicit PriceVector(std::vector<double> values) : p_(std::move(values)) {}
  PriceVector(std::initializer_list<double> values) : p_(values) {}

  int num_classes() const { return static_cast<int>(p_.size()); }
  double operator[](int k) const { return p_[static_cast<size_t>(k)]; }
  double& operator[](int k) { return p_[static_cast<size_t>(k)]; }

  /// Clamps every price to at least `floor` (prices live in R_+; the
  /// adjustment process must not drive them to zero or negative).
  void ClampFloor(double floor);

  const std::vector<double>& values() const { return p_; }
  std::string ToString() const { return PriceView(*this).ToString(); }

 private:
  std::vector<double> p_;
};

inline PriceView::PriceView(const PriceVector& vector) : p_(vector.values()) {}

/// Virtual value p . q of a consumption or supply vector (§3.1).
double Dot(const PriceVector& prices, const QuantityVector& quantities);

/// Excess demand z(p) = aggregate demand - aggregate supply (Definition 2).
/// (The dependence on p is through the supply vector the sellers chose.)
QuantityVector ExcessDemand(const QuantityVector& aggregate_demand,
                            const QuantityVector& aggregate_supply);

}  // namespace qa::market

#endif  // QAMARKET_MARKET_VECTORS_H_
