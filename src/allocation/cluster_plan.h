#ifndef QAMARKET_ALLOCATION_CLUSTER_PLAN_H_
#define QAMARKET_ALLOCATION_CLUSTER_PLAN_H_

#include <vector>

#include "allocation/solicitation.h"
#include "catalog/catalog.h"
#include "util/status.h"

namespace qa::allocation {

/// Partition of the federation's nodes into clusters for the two-tier
/// hierarchical market: each cluster runs its own QA-NT sub-mediator over
/// its members, and a top-level market routes each query to a cluster by
/// trading the clusters' aggregate supply vectors. A plan that lists fewer
/// than two clusters (the default lists none) is the classic flat
/// single-mediator market; a plan with a single cluster reproduces it
/// byte for byte (the equivalence anchor of the hierarchy tests).
struct ClusterPlan {
  /// clusters[c] lists the member node ids of cluster c. When the plan
  /// lists any, every node of the federation must appear in exactly one
  /// cluster; an empty cluster is legal (it simply never offers).
  std::vector<std::vector<catalog::NodeId>> clusters;
  /// Bounded-fanout solicitation reused at the top tier: how many cluster
  /// sub-mediators are asked for their aggregate quote per arrival.
  SolicitationConfig top;

  int num_clusters() const { return static_cast<int>(clusters.size()); }

  /// True when allocation actually runs the two-tier protocol. A
  /// single-cluster plan degenerates to the flat market and is executed
  /// as such (same code path, same bytes).
  bool hierarchical() const { return clusters.size() > 1; }

  /// A plan that lists no cluster is always valid (`top` is ignored). A
  /// plan that lists clusters must place every node of [0, num_nodes) in
  /// exactly one of them, keep every member id in range, and carry a
  /// valid top-tier solicitation config.
  util::Status Validate(int num_nodes) const;

  /// Convenience builder: `num_clusters` clusters of near-equal size over
  /// contiguous id blocks, top tier sampling `top_fanout` clusters
  /// uniformly per arrival (top_fanout <= 0 selects top-tier broadcast).
  static ClusterPlan Uniform(int num_nodes, int num_clusters,
                             int top_fanout);
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_CLUSTER_PLAN_H_
