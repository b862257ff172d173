#ifndef QAMARKET_OBS_SNAPSHOT_H_
#define QAMARKET_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qa::market {
struct TatonnementResult;
}  // namespace qa::market

namespace qa::obs {

/// One server agent's market state at snapshot time (QA-NT): the private
/// price vector, the supply vector planned at the last period rollover and
/// what is left of it, plus the agent's cumulative offer bookkeeping.
struct AgentStateSnapshot {
  int node = -1;
  std::vector<double> prices;            // per query class
  std::vector<int64_t> planned_supply;   // per query class
  std::vector<int64_t> remaining_supply; // per query class (leftover)
  int64_t requests_seen = 0;
  int64_t offers_made = 0;
  int64_t offers_accepted = 0;
  int64_t declines_no_supply = 0;
  int64_t periods = 0;
  int64_t debt_us = 0;
  int64_t remaining_budget_us = 0;
  double earnings = 0.0;
};

/// One cluster's seat at the hierarchical top market at snapshot time:
/// the aggregate supply its sub-mediator last published, the ledger's
/// remaining estimate and cumulative units sold through the cluster — the
/// per-class series a trace's `cluster` records carry. Only *activated*
/// clusters (ever solicited by the top tier) appear in snapshots.
struct ClusterStateSnapshot {
  int cluster = -1;
  std::vector<int64_t> published;  // per query class
  std::vector<int64_t> remaining;  // per query class
  std::vector<int64_t> sold;       // per query class, cumulative
};

/// What Allocator::Snapshot() exposes for telemetry. Mechanisms fill the
/// parts that exist for them:
///   - QA-NT: one AgentStateSnapshot per node (private prices, supply,
///     rejection/leftover counts);
///   - hierarchical QA-NT additionally: one ClusterStateSnapshot per
///     activated cluster (the top tier's per-tier view);
///   - the tâtonnement reference: umpire prices and excess demand;
///   - baselines: the mechanism name only (message spend is
///     sim::SimMetrics::messages).
struct AllocatorSnapshot {
  std::string mechanism;
  std::vector<AgentStateSnapshot> agents;
  std::vector<ClusterStateSnapshot> clusters;
  std::vector<double> umpire_prices;   // per query class
  std::vector<double> excess_demand;   // per query class

  bool has_agents() const { return !agents.empty(); }
  bool has_umpire() const { return !umpire_prices.empty(); }
};

/// Builds the umpire view of a finished tâtonnement run (the centralized
/// reference process QA-NT is compared against).
AllocatorSnapshot SnapshotFromTatonnement(
    const market::TatonnementResult& result);

}  // namespace qa::obs

#endif  // QAMARKET_OBS_SNAPSHOT_H_
