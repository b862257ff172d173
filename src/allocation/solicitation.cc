#include "allocation/solicitation.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace qa::allocation {

std::string_view SolicitationPolicyName(SolicitationPolicy policy) {
  switch (policy) {
    case SolicitationPolicy::kBroadcast:
      return "broadcast";
    case SolicitationPolicy::kUniformSample:
      return "uniform-sample";
    case SolicitationPolicy::kStratifiedSample:
      return "stratified-sample";
  }
  return "broadcast";
}

bool ParseSolicitationPolicy(std::string_view name,
                             SolicitationPolicy* policy) {
  if (name == "broadcast") {
    *policy = SolicitationPolicy::kBroadcast;
    return true;
  }
  if (name == "uniform-sample" || name == "uniform") {
    *policy = SolicitationPolicy::kUniformSample;
    return true;
  }
  if (name == "stratified-sample" || name == "stratified") {
    *policy = SolicitationPolicy::kStratifiedSample;
    return true;
  }
  return false;
}

util::Status SolicitationConfig::Validate() const {
  if (sampled() && fanout < 1) {
    return util::Status::InvalidArgument(
        "solicitation: " + std::string(SolicitationPolicyName(policy)) +
        " requires fanout >= 1, got " + std::to_string(fanout));
  }
  return util::Status::OK();
}

CandidateIndex::CandidateIndex(const query::CostModel& cost_model) {
  std::vector<catalog::NodeId> nodes(
      static_cast<size_t>(cost_model.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), 0);
  Build(cost_model, nodes);
}

CandidateIndex::CandidateIndex(
    const query::CostModel& cost_model,
    const std::vector<catalog::NodeId>& members) {
  // The candidate lists keep ascending id order regardless of how the
  // cluster plan happens to list its members.
  std::vector<catalog::NodeId> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  Build(cost_model, sorted);
}

void CandidateIndex::Build(const query::CostModel& cost_model,
                           const std::vector<catalog::NodeId>& nodes) {
  size_t num_classes = static_cast<size_t>(cost_model.num_classes());
  by_id_.resize(num_classes);
  by_cost_.resize(num_classes);
  // Each class reads its costs once; the cost sort then never calls back
  // into the (virtual) model. Sorting (cost, id) pairs equals a stable
  // sort on cost over the id-ordered list. Both lists are sized exactly
  // from `ranked`, so the allocation count does not grow with the node
  // count.
  std::vector<std::pair<util::VDuration, catalog::NodeId>> ranked;
  ranked.reserve(nodes.size());
  for (size_t k = 0; k < num_classes; ++k) {
    ranked.clear();
    for (catalog::NodeId j : nodes) {
      util::VDuration cost =
          cost_model.Cost(static_cast<query::QueryClassId>(k), j);
      if (cost != query::kInfeasibleCost) ranked.emplace_back(cost, j);
    }
    by_id_[k].reserve(ranked.size());
    for (const auto& [cost, j] : ranked) by_id_[k].push_back(j);
    std::sort(ranked.begin(), ranked.end());
    by_cost_[k].reserve(ranked.size());
    for (const auto& [cost, j] : ranked) by_cost_[k].push_back(j);
  }
}

int SolicitNodes(const SolicitationConfig& config,
                 const CandidateIndex& candidates, query::QueryClassId k,
                 util::SplitMix64 stream,
                 std::vector<catalog::NodeId>* out) {
  out->clear();
  const std::vector<catalog::NodeId>& by_id = candidates.ById(k);
  size_t n = by_id.size();
  // Tiny-federation clamp: a fanout covering every candidate is exactly a
  // broadcast, including the absence of any random draw.
  size_t d = config.sampled()
                 ? std::min(static_cast<size_t>(config.fanout), n)
                 : n;
  if (d == n) {
    out->assign(by_id.begin(), by_id.end());
    return static_cast<int>(out->size());
  }

  if (config.policy == SolicitationPolicy::kUniformSample) {
    // Floyd's O(d) sampling of d distinct indices out of [0, n). The
    // membership test is a linear scan of the (small, <= d) sample — no
    // unordered container, no allocation beyond the caller's buffer.
    for (size_t j = n - d; j < n; ++j) {
      catalog::NodeId pick =
          by_id[static_cast<size_t>(stream.NextBounded(j + 1))];
      if (std::find(out->begin(), out->end(), pick) != out->end()) {
        pick = by_id[j];
      }
      out->push_back(pick);
    }
  } else {
    // Stratified: one uniform pick from each of d contiguous strata of
    // the cost-sorted candidate list. d <= n here, so every stratum is
    // non-empty.
    const std::vector<catalog::NodeId>& by_cost = candidates.ByCost(k);
    for (size_t i = 0; i < d; ++i) {
      size_t lo = i * n / d;
      size_t hi = (i + 1) * n / d;
      out->push_back(
          by_cost[lo + static_cast<size_t>(stream.NextBounded(hi - lo))]);
    }
  }
  // Solicit in id order, like the broadcast protocol: agent interactions
  // and best-offer tie-breaks stay independent of the draw order.
  std::sort(out->begin(), out->end());
  return static_cast<int>(out->size());
}

}  // namespace qa::allocation
