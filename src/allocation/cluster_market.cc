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
      period_(period),
      next_publish_(period),
      unit_costs_(static_cast<size_t>(cost_model->num_classes())),
      plan_scratch_(cost_model->num_classes(), period, agent_config),
      publish_(cost_model->num_classes()) {
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

void ClusterMarket::EnsureActive(int cluster, const AgentSlots& agents) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  if (state.active) return;
  const std::vector<catalog::NodeId>& members =
      plan_.clusters[static_cast<size_t>(cluster)];
  state.members = CandidateIndex(*cost_model_, members);
  state.idle_sum = market::QuantityVector(cost_model_->num_classes());
  for (catalog::NodeId node : members) {
    if (agents[static_cast<size_t>(node)] != nullptr) {
      state.live.push_back(node);
    } else {
      state.idle_sum += DefaultPlan(node);
    }
  }
  state.active = true;
  PublishCluster(cluster, agents);
}

void ClusterMarket::OnMemberBuilt(catalog::NodeId node) {
  Cluster& state = clusters_[static_cast<size_t>(cluster_of(node))];
  if (!state.active) return;
  state.idle_sum -= DefaultPlan(node);
  state.live.push_back(node);
}

void ClusterMarket::OnTick(util::VTime now, const AgentSlots& agents) {
  if (now < next_publish_) return;
  for (int c = 0; c < num_clusters(); ++c) {
    if (clusters_[static_cast<size_t>(c)].active) {
      PublishCluster(c, agents);
    }
  }
  while (next_publish_ <= now) next_publish_ += period_;
}

const market::QuantityVector& ClusterMarket::DefaultPlan(
    catalog::NodeId node) {
  for (size_t k = 0; k < unit_costs_.size(); ++k) {
    util::VDuration c =
        cost_model_->Cost(static_cast<query::QueryClassId>(k), node);
    unit_costs_[k] = c == query::kInfeasibleCost
                         ? market::CapacitySupplySet::kCannotEvaluate
                         : c;
  }
  return market::DefaultPlannedSupply(unit_costs_, &plan_scratch_);
}

void ClusterMarket::PublishCluster(int cluster, const AgentSlots& agents) {
  Cluster& state = clusters_[static_cast<size_t>(cluster)];
  // Exact, not an estimate: quantities are integers, so the sum does not
  // depend on the order members went live in.
  publish_ = state.idle_sum;
  for (catalog::NodeId node : state.live) {
    publish_ += agents[static_cast<size_t>(node)]->remaining_supply();
  }
  state.agent.Publish(publish_);
}

}  // namespace qa::allocation
