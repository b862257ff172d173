#ifndef QAMARKET_ALLOCATION_CLUSTER_MARKET_H_
#define QAMARKET_ALLOCATION_CLUSTER_MARKET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "market/clearing_book.h"
#include "market/qa_nt.h"
#include "market/vectors.h"
#include "obs/snapshot.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::allocation {

/// Reusable buffers of DefaultPlannedSupply for one market shape: K
/// classes, one period budget and one agent configuration. Built once per
/// shape (O(K) allocations); every DefaultPlannedSupply call then reuses
/// them and makes no heap allocation.
struct DefaultPlanScratch {
  DefaultPlanScratch(int num_classes, util::VDuration period_budget,
                     const market::QaNtConfig& config);

  util::VDuration budget;
  /// A fresh agent's prices: the initial price, clamped into
  /// [price_floor, price_cap].
  market::PriceVector prices;
  /// The evaluable classes of the node being planned (capacity K).
  std::vector<int> classes;
  market::QuantityVector plan;
};

/// The supply vector a fresh default-state QaNtAgent with these unit costs
/// plans for its first period, floored at 1 for every evaluable class,
/// computed without building the agent: the agent's own eq.-4 knapsack
/// (market::MaximizeValueOver) at the clamped initial prices against one
/// whole period budget, which is exactly a fresh agent's first
/// BeginPeriod. The cluster market adds this for every member whose agent
/// was never instantiated, and subtracts the same value when the member's
/// agent is built: an uncontacted agent's plan is a pure function of its
/// configuration, so the sub-mediator can publish on behalf of its idle
/// members without building (or messaging) them.
///
/// `unit_costs` holds one entry per class of `scratch`
/// (query::kInfeasibleCost for a class the node cannot run). Returns a
/// view of scratch->plan, valid until the next call with the same scratch.
const market::QuantityVector& DefaultPlannedSupply(
    std::span<const util::VDuration> unit_costs, DefaultPlanScratch* scratch);

/// The top tier of the hierarchical market (DESIGN.md §12), and the only
/// code that knows it. The commodity traded there is each cluster's
/// *aggregate supply vector*: the eq.-4 supply of every member summed per
/// class, published by the cluster's sub-mediator at each global period
/// boundary. Between publishes the cluster's ledger is decremented as
/// queries are sold into it, so the top tier sees a conservative
/// remaining-supply estimate without messaging the members — the same
/// autonomy-preserving trick the per-node agent uses, one level up.
///
/// Per arrival the market routes (Route) over a cluster-level
/// CandidateIndex, so the bounded-fanout solicitation runs unchanged over
/// clusters; the allocator auctions the arrival among the routed
/// cluster's members (member_candidates) and reports the outcome back
/// (Settle).
///
/// Clusters activate lazily, like node agents do: a cluster never
/// solicited by the top tier carries no member index, no idle sum and no
/// ledger — so a million-node federation where a sampled top tier only
/// ever touches a few hundred clusters never pays for the rest. An active
/// cluster's upkeep follows its traded members, not its size: a publish
/// walks only the members whose agents exist, reading their rows from the
/// allocator's book; only activation asks every member whether it is
/// built. Everything here runs on the mediator lane (Allocate /
/// OnPeriodStart): strictly sequential, no cross-shard state.
class ClusterMarket {
 public:
  /// The plan must have passed Validate(cost_model->num_nodes()). The
  /// cost model must outlive the market. `member_solicitation` is how the
  /// member auctions solicit (the federation's member tier); with the
  /// plan's top tier it decides which indexes keep a cost order. `seed`
  /// is the allocator's: the top tier draws from a salted stream of it.
  ClusterMarket(const query::CostModel* cost_model, ClusterPlan plan,
                market::QaNtConfig agent_config, util::VDuration period,
                const SolicitationConfig& member_solicitation, uint64_t seed);

  int num_clusters() const { return plan_.num_clusters(); }
  /// Cluster owning `node` (every node has one in a validated plan).
  int cluster_of(catalog::NodeId node) const {
    return node_cluster_[static_cast<size_t>(node)];
  }

  /// Cluster-level candidate lists: "node" ids are cluster ids, a cluster
  /// is a class-k candidate iff some member can evaluate k, and the cost
  /// order, kept only when the top tier samples stratified, sorts by the
  /// cluster's quote.
  const CandidateIndex& cluster_candidates() const {
    return cluster_candidates_;
  }

  /// The cluster's quoted execution time for class `k`: the best cost any
  /// member advertises (query::kInfeasibleCost when no member can).
  util::VDuration Quote(int cluster, int k) const {
    return quotes_.Cost(k, cluster);
  }

  /// Member candidate lists of an *active* cluster (the tier-2 auction's
  /// solicitation universe).
  const CandidateIndex& member_candidates(int cluster) const {
    return clusters_[static_cast<size_t>(cluster)].members;
  }

  /// Tier 1 for arrival `seq` of class `k`: solicits cluster
  /// sub-mediators (activating each on first contact) and returns the
  /// cluster the arrival routes to, or -1 when no cluster can evaluate
  /// the class. A cluster offers iff its ledger shows remaining supply for
  /// the class, and the arrival goes to the offer with the highest supply
  /// density, remaining[k] / Quote(c, k); when every solicited ledger is
  /// empty, to the first solicited cluster. `*asked` receives the number
  /// of clusters solicited.
  int Route(int k, uint64_t seq, const market::ClearingBook& book,
            int* asked);

  /// The routed cluster's member auction for a class-`k` arrival ended:
  /// `sold` takes one unit off the ledger; an all-decline means the ledger
  /// over-promised (members sold out or went offline since the last
  /// publish), so the class reads zero until the next publish.
  void Settle(int cluster, int k, bool sold);

  /// Every active cluster's ledger, in cluster order.
  std::vector<obs::ClusterStateSnapshot> Snapshot() const;

  /// First-contact activation: builds the cluster's member candidate
  /// index, splits its members into live ones (agent instantiated) and
  /// idle ones (summed as their default plans), and publishes the first
  /// aggregate. The index build reads each member's costs once, and the
  /// idle sum takes its plans from that read; the index keeps a cost
  /// order only when the member tier samples stratified. O(members * K)
  /// with no per-member allocation. Idempotent.
  void EnsureActive(int cluster, const market::ClearingBook& book);

  /// A member of `cluster` just had its agent instantiated in book row
  /// `row` from `unit_costs` (its cost of every class). If the cluster is
  /// active, the member leaves the idle sum (minus exactly the default
  /// plan activation added, computed from the same costs) and joins the
  /// live list. An inactive cluster needs nothing: its activation will
  /// find the agent. The caller names the cluster: a build inside a
  /// cluster's auction knows it, and cluster_of serves the rest.
  void OnMemberBuilt(int cluster, int32_t row,
                     std::span<const util::VDuration> unit_costs);

  /// Market tick: once `now` crosses a global period boundary, every
  /// active cluster's sub-mediator re-publishes its aggregate from the
  /// members' post-rollover supply. Call after the member rollover of the
  /// same tick.
  void OnTick(util::VTime now, const market::ClearingBook& book);

 private:
  struct Cluster {
    /// Built on activation; empty before.
    CandidateIndex members;
    /// Sum of the default plans of the members with no agent. The
    /// published aggregate is always idle_sum + the live members'
    /// remaining supply.
    market::QuantityVector idle_sum;
    /// Book rows of the members with an instantiated agent, in the order
    /// they were found. A restart keeps a member's row.
    std::vector<int32_t> live;
    /// The ledger, sized on activation: the aggregate of the last publish,
    /// what is left of it, and the units sold through the cluster since
    /// activation, per class.
    market::QuantityVector published;
    market::QuantityVector remaining;
    market::QuantityVector sold;
    bool active = false;
  };

  /// Sums idle_sum and the live members' remaining supply into the
  /// cluster's ledger: O(live members * K), allocation-free once the
  /// ledger is sized.
  void PublishCluster(int cluster, const market::ClearingBook& book);

  const query::CostModel* cost_model_;
  ClusterPlan plan_;
  util::VDuration period_;
  /// Seeds the top tier's per-arrival streams (the allocator's seed,
  /// salted).
  uint64_t top_seed_;
  /// Whether member indexes keep a cost order (stratified member tier).
  bool member_cost_order_;
  /// Owning cluster per node id.
  std::vector<int> node_cluster_;
  /// Best-member-cost quotes, with clusters for nodes: the top index is
  /// built from it.
  query::MatrixCostModel quotes_;
  CandidateIndex cluster_candidates_;
  std::vector<Cluster> clusters_;
  /// Next global period boundary at which active clusters re-publish.
  util::VTime next_publish_;
  /// Scratch reused across arrivals, members and publishes.
  DefaultPlanScratch plan_scratch_;
  std::vector<catalog::NodeId> solicited_;
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_CLUSTER_MARKET_H_
