#include "allocation/cluster_market.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "market/supply_set.h"

namespace qa::allocation {

namespace {

/// Presents the [class][cluster] quote matrix as a CostModel whose "nodes"
/// are clusters, so CandidateIndex builds the top tier's candidate lists
/// with the exact same code the flat market uses.
class ClusterQuoteModel : public query::CostModel {
 public:
  ClusterQuoteModel(int num_classes, int num_clusters,
                    const std::vector<util::VDuration>* quotes)
      : num_classes_(num_classes),
        num_clusters_(num_clusters),
        quotes_(quotes) {}

  int num_classes() const override { return num_classes_; }
  int num_nodes() const override { return num_clusters_; }
  util::VDuration Cost(query::QueryClassId k,
                       catalog::NodeId cluster) const override {
    return (*quotes_)[static_cast<size_t>(k) *
                          static_cast<size_t>(num_clusters_) +
                      static_cast<size_t>(cluster)];
  }

 private:
  int num_classes_;
  int num_clusters_;
  const std::vector<util::VDuration>* quotes_;
};

}  // namespace

ClusterMarket::ClusterMarket(const query::CostModel* cost_model,
                             ClusterPlan plan,
                             market::QaNtConfig agent_config,
                             util::VDuration period)
    : cost_model_(cost_model),
      plan_(std::move(plan)),
      agent_config_(agent_config),
      period_(period),
      next_publish_(period) {
  assert(cost_model_ != nullptr);
  int num_classes = cost_model_->num_classes();
  int num_clusters = plan_.num_clusters();
  node_cluster_.assign(static_cast<size_t>(cost_model_->num_nodes()), -1);
  quotes_.assign(static_cast<size_t>(num_classes) *
                     static_cast<size_t>(num_clusters),
                 query::kInfeasibleCost);
  for (int c = 0; c < num_clusters; ++c) {
    for (catalog::NodeId node : plan_.clusters[static_cast<size_t>(c)]) {
      node_cluster_[static_cast<size_t>(node)] = c;
      for (int k = 0; k < num_classes; ++k) {
        util::VDuration cost = cost_model_->Cost(k, node);
        util::VDuration& quote =
            quotes_[static_cast<size_t>(k) *
                        static_cast<size_t>(num_clusters) +
                    static_cast<size_t>(c)];
        quote = std::min(quote, cost);
      }
    }
  }
  ClusterQuoteModel quote_model(num_classes, num_clusters, &quotes_);
  cluster_candidates_ = CandidateIndex(quote_model);
  clusters_.reserve(static_cast<size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    clusters_.emplace_back(market::ClusterSupplyAgent(c, num_classes));
  }
}

void ClusterMarket::EnsureActive(int cluster,
                                 const RemainingFn& remaining_of) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  if (state.active) return;
  const std::vector<catalog::NodeId>& members =
      plan_.clusters[static_cast<size_t>(cluster)];
  state.members = CandidateIndex(*cost_model_, members);
  int num_classes = cost_model_->num_classes();
  // One flat block per cluster, not one vector per member: a million
  // members would otherwise mean a million small long-lived allocations.
  state.default_plans.reserve(members.size() *
                              static_cast<size_t>(num_classes));
  for (catalog::NodeId node : members) {
    std::vector<util::VDuration> unit_costs(
        static_cast<size_t>(num_classes));
    for (int k = 0; k < num_classes; ++k) {
      util::VDuration c = cost_model_->Cost(k, node);
      unit_costs[static_cast<size_t>(k)] =
          c == query::kInfeasibleCost
              ? market::CapacitySupplySet::kCannotEvaluate
              : c;
    }
    market::QuantityVector plan = market::DefaultPlannedSupply(
        std::move(unit_costs), period_, agent_config_);
    state.default_plans.insert(state.default_plans.end(),
                               plan.values().begin(), plan.values().end());
  }
  state.active = true;
  PublishCluster(cluster, remaining_of);
}

void ClusterMarket::OnTick(util::VTime now,
                           const RemainingFn& remaining_of) {
  if (now < next_publish_) return;
  for (int c = 0; c < num_clusters(); ++c) {
    if (clusters_[static_cast<size_t>(c)].active) {
      PublishCluster(c, remaining_of);
    }
  }
  while (next_publish_ <= now) next_publish_ += period_;
}

void ClusterMarket::PublishCluster(int cluster,
                                   const RemainingFn& remaining_of) {
  int num_classes = cost_model_->num_classes();
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  const std::vector<catalog::NodeId>& members =
      plan_.clusters[static_cast<size_t>(cluster)];
  market::QuantityVector aggregate(num_classes);
  for (size_t i = 0; i < members.size(); ++i) {
    if (const market::QuantityVector* live = remaining_of(members[i])) {
      aggregate += *live;
      continue;
    }
    const market::Quantity* plan =
        state.default_plans.data() + i * static_cast<size_t>(num_classes);
    for (int k = 0; k < num_classes; ++k) aggregate[k] += plan[k];
  }
  state.agent.Publish(aggregate);
}

}  // namespace qa::allocation
