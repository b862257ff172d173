#ifndef QAMARKET_ALLOCATION_CLUSTER_MARKET_H_
#define QAMARKET_ALLOCATION_CLUSTER_MARKET_H_

#include <vector>

#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "market/clearing_book.h"
#include "market/cluster_supply.h"
#include "market/qa_nt.h"
#include "query/cost_model.h"
#include "util/vtime.h"

namespace qa::allocation {

/// The top tier of the hierarchical market: one ClusterSupplyAgent per
/// cluster trading the cluster's aggregate eq.-4 supply, a cluster-level
/// CandidateIndex so the existing bounded-fanout solicitation runs
/// unchanged over clusters, per-cluster member candidate indexes for the
/// tier-2 QA-NT auction, and the per-period publish that refreshes the
/// aggregates.
///
/// Clusters activate lazily, like node agents do: a cluster never
/// solicited by the top tier carries no member index, no idle sum and no
/// published aggregate — so a million-node federation where a sampled top
/// tier only ever touches a few hundred clusters never pays for the rest.
/// An active cluster's upkeep follows its traded members, not its size:
/// a publish walks only the members whose agents exist. It reads the
/// members' agents from the allocator's book: only activation asks every
/// member whether it is built; publishes read the live ones' rows. Everything here runs on the mediator lane (Allocate /
/// OnPeriodStart): strictly sequential, no cross-shard state.
class ClusterMarket {
 public:
  /// The plan must have passed Validate(cost_model->num_nodes()). The
  /// cost model must outlive the market.
  ClusterMarket(const query::CostModel* cost_model, ClusterPlan plan,
                market::QaNtConfig agent_config, util::VDuration period);

  int num_clusters() const { return plan_.num_clusters(); }
  const ClusterPlan& plan() const { return plan_; }
  /// Cluster owning `node` (every node has one in a validated plan).
  int cluster_of(catalog::NodeId node) const {
    return node_cluster_[static_cast<size_t>(node)];
  }

  /// Cluster-level candidate lists: "node" ids are cluster ids, a cluster
  /// is a class-k candidate iff some member can evaluate k, and the cost
  /// order sorts by the cluster's best member cost (its quote).
  const CandidateIndex& cluster_candidates() const {
    return cluster_candidates_;
  }

  /// The cluster's quoted execution time for class `k`: the best cost any
  /// member advertises (query::kInfeasibleCost when no member can).
  util::VDuration Quote(int cluster, int k) const {
    return quotes_[static_cast<size_t>(k) *
                       static_cast<size_t>(num_clusters()) +
                   static_cast<size_t>(cluster)];
  }

  bool active(int cluster) const {
    return clusters_[static_cast<size_t>(cluster)].active;
  }
  market::ClusterSupplyAgent& agent(int cluster) {
    return clusters_[static_cast<size_t>(cluster)].agent;
  }
  const market::ClusterSupplyAgent& agent(int cluster) const {
    return clusters_[static_cast<size_t>(cluster)].agent;
  }
  /// Member candidate lists of an *active* cluster (the tier-2 auction's
  /// solicitation universe).
  const CandidateIndex& member_candidates(int cluster) const {
    return clusters_[static_cast<size_t>(cluster)].members;
  }

  /// First-contact activation: builds the cluster's member candidate
  /// index, splits its members into live ones (agent instantiated) and
  /// idle ones (summed as their default plans), and publishes the first
  /// aggregate. O(members * K) with no per-member allocation. Idempotent.
  void EnsureActive(int cluster, const market::ClearingBook& book);

  /// A member's agent was just instantiated in book row `row`. If its
  /// cluster is active, the member leaves the idle sum (minus exactly the
  /// default plan activation added) and joins the live list. An inactive
  /// cluster needs nothing: its activation will find the agent.
  void OnMemberBuilt(catalog::NodeId node, int32_t row);

  /// Market tick: once `now` crosses a global period boundary, every
  /// active cluster's sub-mediator re-publishes its aggregate from the
  /// members' post-rollover supply. Call after the member rollover of the
  /// same tick.
  void OnTick(util::VTime now, const market::ClearingBook& book);

 private:
  struct Cluster {
    explicit Cluster(market::ClusterSupplyAgent a) : agent(std::move(a)) {}
    market::ClusterSupplyAgent agent;
    /// Built on activation; empty before.
    CandidateIndex members;
    /// Sum of the default plans of the members with no agent. The
    /// published aggregate is always idle_sum + the live members'
    /// remaining supply.
    market::QuantityVector idle_sum;
    /// Book rows of the members with an instantiated agent, in the order
    /// they were found. A restart keeps a member's row.
    std::vector<int32_t> live;
    bool active = false;
  };

  /// The default (first-period) plan of `node`'s fresh agent; a view of
  /// plan_scratch_, valid until the next call.
  const market::QuantityVector& DefaultPlan(catalog::NodeId node);
  /// Sums idle_sum and the live members' remaining supply into publish_
  /// and publishes it: O(live members * K), allocation-free.
  void PublishCluster(int cluster, const market::ClearingBook& book);

  const query::CostModel* cost_model_;
  ClusterPlan plan_;
  util::VDuration period_;
  /// Owning cluster per node id.
  std::vector<int> node_cluster_;
  /// Row-major [class][cluster] best-member-cost quotes.
  std::vector<util::VDuration> quotes_;
  CandidateIndex cluster_candidates_;
  std::vector<Cluster> clusters_;
  /// Next global period boundary at which active clusters re-publish.
  util::VTime next_publish_;
  /// Scratch reused across members and publishes.
  std::vector<util::VDuration> unit_costs_;
  market::DefaultPlanScratch plan_scratch_;
  market::QuantityVector publish_;
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_CLUSTER_MARKET_H_
