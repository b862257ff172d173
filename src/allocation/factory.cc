#include "allocation/factory.h"

#include "allocation/baselines.h"
#include "allocation/qa_nt_allocator.h"

namespace qa::allocation {

std::unique_ptr<Allocator> CreateAllocator(const std::string& name,
                                           const AllocatorParams& params) {
  if (name == "QA-NT") {
    return std::make_unique<QaNtAllocator>(
        params.cost_model, params.period, params.qa_nt,
        QaNtAllocator::OfferSelection::kCheapest, params.solicitation,
        params.seed, params.cluster_plan);
  }
  if (name == "Greedy") {
    return std::make_unique<GreedyAllocator>();
  }
  if (name == "GreedyBlind") {
    return std::make_unique<BlindGreedyAllocator>(params.seed);
  }
  if (name == "Random") {
    return std::make_unique<RandomAllocator>(params.seed);
  }
  if (name == "RoundRobin") {
    return std::make_unique<RoundRobinAllocator>();
  }
  if (name == "BNQRD") {
    return std::make_unique<BnqrdAllocator>();
  }
  if (name == "TwoProbes") {
    return std::make_unique<TwoRandomProbesAllocator>(params.seed);
  }
  if (name == "LeastImbalance") {
    return std::make_unique<LeastImbalanceAllocator>();
  }
  return nullptr;
}

std::vector<std::string> AllMechanismNames() {
  return {"QA-NT", "Greedy", "Random", "RoundRobin", "BNQRD", "TwoProbes"};
}

}  // namespace qa::allocation
