#ifndef QAMARKET_ALLOCATION_SOLICITATION_H_
#define QAMARKET_ALLOCATION_SOLICITATION_H_

#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "query/cost_model.h"
#include "util/rng.h"
#include "util/status.h"

namespace qa::allocation {

/// How a mediator picks the set of nodes it solicits offers from for one
/// arriving query (the QA-NT scale-out knob).
///
/// The paper's QA-NT broadcasts every request to every feasible node, so
/// messages and mediator CPU grow O(N) per query — its own Table 2 flags
/// this as the mechanism's main liability (~500 msgs/query at 100 nodes).
/// Bounded-fanout solicitation asks only d nodes per arrival, the
/// power-of-d-choices insight (Mitzenmacher): a small random fanout
/// captures most of the benefit of full information, and msgs/query stays
/// near-flat as the federation grows to thousands of nodes.
enum class SolicitationPolicy {
  /// Ask every feasible node (the paper's literal §3.3 protocol).
  kBroadcast,
  /// Ask `fanout` feasible nodes drawn uniformly without replacement.
  kUniformSample,
  /// Ask `fanout` feasible nodes, one drawn from each of `fanout`
  /// contiguous strata of the class's cost-sorted candidate list — always
  /// touches the cheap end *and* keeps pressure on the expensive end, so
  /// slow nodes keep receiving the price signals they learn from.
  kStratifiedSample,
};

std::string_view SolicitationPolicyName(SolicitationPolicy policy);

/// The solicitation knobs of a federation run, validated by
/// sim::ValidateConfig before a run starts.
struct SolicitationConfig {
  SolicitationPolicy policy = SolicitationPolicy::kBroadcast;
  /// Number of nodes asked per arrival (the d of power-of-d-choices).
  /// Sampled policies require d >= 1; on tiny federations
  /// (candidates < d) the effective fanout is clamped to the candidate
  /// count, which reproduces broadcast exactly. Ignored by kBroadcast.
  int fanout = 0;

  bool sampled() const { return policy != SolicitationPolicy::kBroadcast; }

  /// Rejects a sampled policy with fanout < 1. (fanout > num_nodes is
  /// legal — it clamps to broadcast semantics at allocation time.)
  util::Status Validate() const;
};

/// Per-class feasible-node candidate lists precomputed from a cost model,
/// so the per-arrival hot path never scans CanEvaluate over all N nodes.
///
/// Two orderings are kept per class: id order (the solicitation order of
/// the broadcast protocol, and what uniform samples are drawn from) and
/// cost order (what stratified sampling stratifies).
class CandidateIndex {
 public:
  CandidateIndex() = default;
  /// Builds both orderings for every class: O(K * N) once.
  explicit CandidateIndex(const query::CostModel& cost_model);
  /// Restriction of the index to `members` (a cluster sub-mediator's view
  /// of the federation): candidate lists contain only feasible nodes from
  /// `members`, in the same (id, cost-stable) orders as the full index.
  CandidateIndex(const query::CostModel& cost_model,
                 const std::vector<catalog::NodeId>& members);

  int num_classes() const { return static_cast<int>(by_id_.size()); }

  /// Feasible nodes of class `k` in node-id order.
  const std::vector<catalog::NodeId>& ById(query::QueryClassId k) const {
    return by_id_[static_cast<size_t>(k)];
  }
  /// Feasible nodes of class `k` sorted by (cost ascending, id ascending).
  const std::vector<catalog::NodeId>& ByCost(query::QueryClassId k) const {
    return by_cost_[static_cast<size_t>(k)];
  }

 private:
  /// Fills both orderings over `nodes` (ascending ids): one Cost call per
  /// (class, node).
  void Build(const query::CostModel& cost_model,
             const std::vector<catalog::NodeId>& nodes);

  std::vector<std::vector<catalog::NodeId>> by_id_;
  std::vector<std::vector<catalog::NodeId>> by_cost_;
};

/// Fills `out` with the node ids the mediator solicits for one arrival of
/// class `k`, in ascending id order, and returns the effective fanout
/// (== out->size()). `stream` must be a fresh per-arrival stream
/// (util::MixSeed of the run seed and the arrival counter) so the draw
/// depends only on (seed, arrival index). When the policy is broadcast —
/// or the clamped fanout covers every candidate — the full id-ordered
/// candidate list is copied and *no* random draw is made, which is what
/// makes `d >= candidates` byte-identical to broadcast.
int SolicitNodes(const SolicitationConfig& config,
                 const CandidateIndex& candidates, query::QueryClassId k,
                 util::SplitMix64 stream,
                 std::vector<catalog::NodeId>* out);

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_SOLICITATION_H_
