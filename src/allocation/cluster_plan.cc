#include "allocation/cluster_plan.h"

#include <string>

namespace qa::allocation {

util::Status ClusterPlan::Validate(int num_nodes) const {
  if (clusters.empty()) return util::Status::OK();
  std::vector<int> seen(static_cast<size_t>(num_nodes), 0);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (catalog::NodeId node : clusters[c]) {
      if (node < 0 || node >= num_nodes) {
        return util::Status::OutOfRange(
            "cluster_plan: cluster " + std::to_string(c) + " member " +
            std::to_string(node) + " outside [0, " +
            std::to_string(num_nodes) + ")");
      }
      if (++seen[static_cast<size_t>(node)] > 1) {
        return util::Status::InvalidArgument(
            "cluster_plan: node " + std::to_string(node) +
            " appears in more than one cluster");
      }
    }
  }
  for (catalog::NodeId node = 0; node < num_nodes; ++node) {
    if (seen[static_cast<size_t>(node)] == 0) {
      return util::Status::InvalidArgument(
          "cluster_plan: node " + std::to_string(node) +
          " belongs to no cluster");
    }
  }
  util::Status top_status = top.Validate();
  if (!top_status.ok()) {
    return util::Status(top_status.code(),
                        "cluster_plan top tier: " + top_status.message());
  }
  return util::Status::OK();
}

ClusterPlan ClusterPlan::Uniform(int num_nodes, int num_clusters,
                                 int top_fanout) {
  ClusterPlan plan;
  if (num_clusters < 1) num_clusters = 1;
  plan.clusters.resize(static_cast<size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    // Contiguous near-equal blocks: cluster c owns [c*N/C, (c+1)*N/C).
    catalog::NodeId begin = static_cast<catalog::NodeId>(
        static_cast<int64_t>(num_nodes) * c / num_clusters);
    catalog::NodeId end = static_cast<catalog::NodeId>(
        static_cast<int64_t>(num_nodes) * (c + 1) / num_clusters);
    std::vector<catalog::NodeId>& members =
        plan.clusters[static_cast<size_t>(c)];
    members.reserve(static_cast<size_t>(end - begin));
    for (catalog::NodeId node = begin; node < end; ++node) {
      members.push_back(node);
    }
  }
  if (top_fanout > 0) {
    plan.top.policy = SolicitationPolicy::kUniformSample;
    plan.top.fanout = top_fanout;
  } else {
    plan.top.policy = SolicitationPolicy::kBroadcast;
    plan.top.fanout = 0;
  }
  return plan;
}

}  // namespace qa::allocation
