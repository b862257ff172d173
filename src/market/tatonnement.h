#ifndef QAMARKET_MARKET_TATONNEMENT_H_
#define QAMARKET_MARKET_TATONNEMENT_H_

#include <vector>

#include "market/supply_set.h"
#include "market/vectors.h"
#include "util/status.h"

namespace qa::market {

/// Parameters of the centralized tâtonnement process (eq. 6).
struct TatonnementConfig {
  /// Price adjustment step lambda in eq. 6. Larger converges in fewer
  /// iterations but estimates the equilibrium prices less accurately (§3.3).
  double lambda = 0.05;
  double initial_price = 1.0;
  /// Prices are clamped to at least this (they live in R_+).
  double price_floor = 1e-9;
  int max_iterations = 10000;
  /// Convergence: stop when max_k |z_k(p)| <= tolerance.
  Quantity tolerance = 0;
};

/// Outcome of a tâtonnement run.
struct TatonnementResult {
  PriceVector prices;
  /// Per-node supply vectors at the final prices.
  std::vector<QuantityVector> supplies;
  QuantityVector aggregate_supply;
  QuantityVector excess_demand;
  int iterations = 0;
  bool converged = false;
};

/// The classical centralized price-adjustment process: an umpire announces
/// prices, collects the sellers' optimal supply vectors, and moves each
/// price proportionally to its excess demand (eq. 6) until excess demand
/// vanishes. No trading happens before equilibrium.
///
/// The paper uses this only as the conceptual starting point for QA-NT; we
/// implement it as the reference process the decentralized algorithm is
/// validated against in tests.
///
/// Returns InvalidArgument when a supply set's class count K differs from
/// the demand vector's.
util::StatusOr<TatonnementResult> RunTatonnement(
    const QuantityVector& aggregate_demand,
    const std::vector<const SupplySet*>& supply_sets,
    const TatonnementConfig& config = {});

}  // namespace qa::market

#endif  // QAMARKET_MARKET_TATONNEMENT_H_
