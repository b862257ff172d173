#include "allocation/cluster_market.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "market/supply_set.h"
#include "util/rng.h"

namespace qa::allocation {

DefaultPlanScratch::DefaultPlanScratch(int num_classes,
                                       util::VDuration period_budget,
                                       const market::QaNtConfig& config)
    : budget(period_budget),
      prices(num_classes, market::ClampPrice(config.initial_price, config)),
      plan(num_classes) {
  classes.reserve(static_cast<size_t>(num_classes));
}

const market::QuantityVector& DefaultPlannedSupply(
    std::span<const util::VDuration> unit_costs, DefaultPlanScratch* scratch) {
  market::QuantityVector& plan = scratch->plan;
  assert(unit_costs.size() == static_cast<size_t>(plan.num_classes()));
  scratch->classes.clear();
  for (int k = 0; k < plan.num_classes(); ++k) {
    plan[k] = 0;
    if (unit_costs[static_cast<size_t>(k)] != query::kInfeasibleCost) {
      scratch->classes.push_back(k);
    }
  }
  // A fresh agent's first period settles no debt, so it plans against the
  // whole budget.
  market::MaximizeValueOver(scratch->prices.values(), unit_costs,
                            scratch->budget, scratch->classes,
                            plan.mutable_values());
  // Floor the eq.-4 plan at 1 for every evaluable class: the knapsack
  // plans 0 for a class whose unit cost exceeds the period budget, but
  // budget-elastic admission still accepts such a query into debt on an
  // uncontended node — a fresh member is never truly zero-supply, and a
  // ledger that says otherwise starves the class at the top tier.
  for (int k : scratch->classes) {
    plan[k] = std::max<market::Quantity>(plan[k], 1);
  }
  return plan;
}

namespace {

/// Salts the top tier's per-arrival sampling stream so its draws never
/// alias the member sampling made for the same arrival.
constexpr uint64_t kTopTierSeedSalt = 0x746965722d746f70ULL;  // "tier-top"

}  // namespace

ClusterMarket::ClusterMarket(const query::CostModel* cost_model,
                             ClusterPlan plan,
                             market::QaNtConfig agent_config,
                             util::VDuration period,
                             const SolicitationConfig& member_solicitation,
                             uint64_t seed)
    : cost_model_(cost_model),
      plan_(std::move(plan)),
      period_(period),
      top_seed_(seed ^ kTopTierSeedSalt),
      member_cost_order_(member_solicitation.reads_cost_order()),
      quotes_(cost_model->num_classes(), plan_.num_clusters()),
      clusters_(static_cast<size_t>(plan_.num_clusters())),
      next_publish_(period),
      plan_scratch_(cost_model->num_classes(), period, agent_config) {
  assert(cost_model_ != nullptr);
  node_cluster_.assign(static_cast<size_t>(cost_model_->num_nodes()), -1);
  for (int c = 0; c < num_clusters(); ++c) {
    for (catalog::NodeId node : plan_.clusters[static_cast<size_t>(c)]) {
      node_cluster_[static_cast<size_t>(node)] = c;
      for (int k = 0; k < quotes_.num_classes(); ++k) {
        util::VDuration cost = cost_model_->Cost(k, node);
        if (cost < quotes_.Cost(k, c)) quotes_.SetCost(k, c, cost);
      }
    }
  }
  cluster_candidates_ = CandidateIndex(quotes_, plan_.top.reads_cost_order());
}

int ClusterMarket::Route(int k, uint64_t seq,
                         const market::ClearingBook& book, int* asked) {
  // Routing on the quote alone would funnel every arrival into the fastest
  // cluster until its ledger drained, burning a retry per mis-route;
  // density is the commodity this tier actually trades (how much eq.-4
  // supply the quoted price buys), so plentiful clusters absorb load
  // before hot ones over-promise. Ties (exact density equality) break
  // toward the earliest-solicited cluster via the strict > below — a pure
  // function of the per-arrival solicitation draw, so byte-deterministic.
  *asked = SolicitNodes(plan_.top, cluster_candidates_, k,
                        util::SplitMix64(util::MixSeed(top_seed_, seq)),
                        &solicited_);
  int best_cluster = -1;
  double best_density = 0.0;
  int fallback_cluster = -1;
  for (catalog::NodeId c : solicited_) {
    EnsureActive(c, book);
    // The top index lists a cluster for a class only when some member can
    // evaluate it, so every solicited cluster quotes.
    util::VDuration quote = Quote(c, k);
    assert(quote != query::kInfeasibleCost);
    market::Quantity left = clusters_[static_cast<size_t>(c)].remaining[k];
    if (left <= 0) {
      // An empty ledger is a worst-possible offer, not a refusal: the
      // first decliner (solicitation order — a fresh uniform draw per
      // arrival, so load spreads) backstops the round when every ledger is
      // drained. The member auction, which knows the real budgets, then
      // settles it like a flat round would.
      if (fallback_cluster < 0) fallback_cluster = c;
      continue;
    }
    double density = static_cast<double>(left) / static_cast<double>(quote);
    if (best_cluster < 0 || density > best_density) {
      best_cluster = c;
      best_density = density;
    }
  }
  return best_cluster >= 0 ? best_cluster : fallback_cluster;
}

void ClusterMarket::Settle(int cluster, int k, bool sold) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  assert(state.active);
  if (!sold) {
    // Zeroing the class keeps the top tier from re-routing follow-up
    // queries into a cluster that just proved empty; the next publish
    // restores whatever supply the members actually replan.
    state.remaining[k] = 0;
    return;
  }
  if (state.remaining[k] > 0) state.remaining[k] -= 1;
  state.sold[k] += 1;
}

std::vector<obs::ClusterStateSnapshot> ClusterMarket::Snapshot() const {
  std::vector<obs::ClusterStateSnapshot> snapshots;
  for (int c = 0; c < num_clusters(); ++c) {
    const Cluster& state = clusters_[static_cast<size_t>(c)];
    if (!state.active) continue;
    obs::ClusterStateSnapshot snapshot;
    snapshot.cluster = c;
    snapshot.published = state.published.values();
    snapshot.remaining = state.remaining.values();
    snapshot.sold = state.sold.values();
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

void ClusterMarket::EnsureActive(int cluster,
                                 const market::ClearingBook& book) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  if (state.active) return;
  state.idle_sum = market::QuantityVector(cost_model_->num_classes());
  state.sold = market::QuantityVector(cost_model_->num_classes());
  // The index build reads each member's costs once and hands them on: a
  // member with an agent goes live, and one without adds the default
  // plan of those costs to the idle sum.
  state.members = CandidateIndex(
      *cost_model_, plan_.clusters[static_cast<size_t>(cluster)],
      member_cost_order_,
      [&](catalog::NodeId node, std::span<const util::VDuration> costs) {
        if (book.built(node)) {
          state.live.push_back(book.row_of(node));
        } else {
          state.idle_sum += DefaultPlannedSupply(costs, &plan_scratch_);
        }
      });
  state.active = true;
  PublishCluster(cluster, book);
}

void ClusterMarket::OnMemberBuilt(int cluster, int32_t row,
                                  std::span<const util::VDuration> unit_costs) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  if (!state.active) return;
  state.idle_sum -= DefaultPlannedSupply(unit_costs, &plan_scratch_);
  state.live.push_back(row);
}

void ClusterMarket::OnTick(util::VTime now,
                           const market::ClearingBook& book) {
  if (now < next_publish_) return;
  for (int c = 0; c < num_clusters(); ++c) {
    if (clusters_[static_cast<size_t>(c)].active) {
      PublishCluster(c, book);
    }
  }
  while (next_publish_ <= now) next_publish_ += period_;
}

void ClusterMarket::PublishCluster(int cluster,
                                   const market::ClearingBook& book) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  // Exact, not an estimate: quantities are integers, so the sum does not
  // depend on the order members went live in.
  state.published = state.idle_sum;
  for (int32_t row : state.live) {
    state.published += book.row_agent(row).remaining_supply();
  }
  state.remaining = state.published;
}

}  // namespace qa::allocation
