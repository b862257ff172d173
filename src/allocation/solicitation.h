#ifndef QAMARKET_ALLOCATION_SOLICITATION_H_
#define QAMARKET_ALLOCATION_SOLICITATION_H_

#include <cassert>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "query/cost_model.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/vtime.h"

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
  /// Whether SolicitNodes reads a CandidateIndex's cost order under this
  /// config: only stratified sampling does.
  bool reads_cost_order() const {
    return policy == SolicitationPolicy::kStratifiedSample;
  }

  /// Rejects a sampled policy with fanout < 1. (fanout > num_nodes is
  /// legal — it clamps to broadcast semantics at allocation time.)
  util::Status Validate() const;
};

/// Per-class feasible-node candidate lists precomputed from a cost model,
/// so the per-arrival hot path never scans CanEvaluate over all N nodes.
///
/// Every index keeps each class's id order: the solicitation order of the
/// broadcast protocol, and what uniform samples are drawn from. The cost
/// order, which only stratified sampling stratifies, is built only when
/// the index's owner asks for it (SolicitationConfig::reads_cost_order of
/// the config that solicits from the index): sorting every class's
/// candidates costs more than the rest of a build, and an index that no
/// stratified sampler reads would pay it for nothing.
class CandidateIndex {
 public:
  /// Called once per indexed node, in ascending id order, with the node's
  /// cost of every class (query::kInfeasibleCost where it cannot run one):
  /// the build's one read of those costs, handed on so that a caller
  /// needing them too does not read the model again.
  using NodeCostsFn =
      std::function<void(catalog::NodeId, std::span<const util::VDuration>)>;

  CandidateIndex() = default;
  /// Indexes every node of the model: O(K * N) once, plus the per-class
  /// sorts when `cost_order`.
  explicit CandidateIndex(const query::CostModel& cost_model,
                          bool cost_order = false);
  /// Restriction of the index to `members` (a cluster sub-mediator's view
  /// of the federation): candidate lists contain only feasible nodes from
  /// `members`, in the same (id, cost-stable) orders as the full index.
  /// `on_member`, when set, receives each member's costs.
  CandidateIndex(const query::CostModel& cost_model,
                 const std::vector<catalog::NodeId>& members, bool cost_order,
                 const NodeCostsFn& on_member = nullptr);

  int num_classes() const { return static_cast<int>(by_id_.size()); }
  bool has_cost_order() const { return !by_cost_.empty(); }

  /// Feasible nodes of class `k` in node-id order.
  const std::vector<catalog::NodeId>& ById(query::QueryClassId k) const {
    return by_id_[static_cast<size_t>(k)];
  }
  /// Feasible nodes of class `k` sorted by (cost ascending, id ascending).
  /// Only an index built with its cost order has one.
  const std::vector<catalog::NodeId>& ByCost(query::QueryClassId k) const {
    assert(static_cast<size_t>(k) < by_cost_.size() &&
           "ByCost on an index built without its cost order");
    return by_cost_[static_cast<size_t>(k)];
  }

 private:
  /// Fills the orderings over `nodes` (ascending ids): one Cost call per
  /// (class, node), made node by node so that `on_node` sees each node's
  /// costs together.
  void Build(const query::CostModel& cost_model,
             const std::vector<catalog::NodeId>& nodes, bool cost_order,
             const NodeCostsFn& on_node);

  std::vector<std::vector<catalog::NodeId>> by_id_;
  /// Empty unless built with the cost order.
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
