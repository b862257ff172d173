#ifndef QAMARKET_ALLOCATION_FACTORY_H_
#define QAMARKET_ALLOCATION_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "market/qa_nt.h"

namespace qa::allocation {

/// Everything a mechanism might need at construction time.
struct AllocatorParams {
  const query::CostModel* cost_model = nullptr;
  /// Market time period T (QA-NT only).
  util::VDuration period = 500 * util::kMillisecond;
  market::QaNtConfig qa_nt;
  /// Offer-solicitation fanout policy (QA-NT only; baselines have their
  /// own fixed probe counts).
  SolicitationConfig solicitation;
  /// Hierarchical two-tier market plan (QA-NT only). Disabled = flat.
  ClusterPlan cluster_plan;
  uint64_t seed = 1;
};

/// Creates an allocator by name: "QA-NT", "Greedy", "Random", "RoundRobin",
/// "GreedyBlind", "BNQRD", "TwoProbes", "LeastImbalance". Returns nullptr for unknown
/// names.
std::unique_ptr<Allocator> CreateAllocator(const std::string& name,
                                           const AllocatorParams& params);

/// The mechanism names compared in the paper's Fig. 4, in its order.
std::vector<std::string> AllMechanismNames();

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_FACTORY_H_
