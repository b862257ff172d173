#include "allocation/baselines.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace qa::allocation {

namespace {

/// Returns the cached id-ordered feasible-node list of class `k`, building
/// the per-class index on the allocator's first arrival. Replaces the old
/// per-arrival CostModel::FeasibleNodes call, which allocated a fresh
/// vector and scanned CanEvaluate over all N nodes on every query.
const std::vector<catalog::NodeId>& FeasibleNodes(
    CandidateIndex* candidates, const AllocationContext& context,
    query::QueryClassId k) {
  if (candidates->num_classes() == 0) {
    *candidates = CandidateIndex(context.cost_model());
  }
  return candidates->ById(k);
}

}  // namespace

// ---------------------------------------------------------------- Random

MechanismProperties RandomAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = true;
  return p;
}

AllocationDecision RandomAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;
  decision.node = nodes[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(nodes.size()) - 1))];
  decision.messages = 1;  // send the query to the chosen node
  return decision;
}

// ------------------------------------------------------------ RoundRobin

MechanismProperties RoundRobinAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = true;
  return p;
}

AllocationDecision RoundRobinAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;
  size_t k = static_cast<size_t>(arrival.class_id);
  if (next_index_.size() <= k) next_index_.resize(k + 1, 0);
  decision.node = nodes[next_index_[k] % nodes.size()];
  next_index_[k] = (next_index_[k] + 1) % nodes.size();
  decision.messages = 1;
  return decision;
}

// ---------------------------------------------------------------- Greedy

MechanismProperties GreedyAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = false;  // clients unilaterally assign queries
  p.reads_node_state = true;    // probes every node's live backlog
  return p;
}

AllocationDecision GreedyAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;

  double best_completion = std::numeric_limits<double>::infinity();
  for (catalog::NodeId j : nodes) {
    if (!context.NodeOnline(j)) continue;  // probe timed out
    double completion =
        static_cast<double>(context.NodeBacklog(j)) +
        static_cast<double>(context.cost_model().Cost(arrival.class_id, j));
    if (completion < best_completion) {
      best_completion = completion;
      decision.node = j;
    }
  }
  // One probe round-trip per feasible node plus the final assignment.
  decision.messages = 2 * static_cast<int>(nodes.size()) + 1;
  return decision;
}

// ----------------------------------------------------------- GreedyBlind

MechanismProperties BlindGreedyAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = false;  // clients unilaterally assign queries
  return p;
}

AllocationDecision BlindGreedyAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;

  double best_time = std::numeric_limits<double>::infinity();
  for (catalog::NodeId j : nodes) {
    if (!context.NodeOnline(j)) continue;  // estimate request timed out
    double estimate =
        static_cast<double>(context.cost_model().Cost(arrival.class_id, j));
    if (randomization_ > 0.0) {
      estimate *=
          rng_.UniformReal(1.0 - randomization_, 1.0 + randomization_);
    }
    if (estimate < best_time) {
      best_time = estimate;
      decision.node = j;
    }
  }
  // One estimate round-trip per feasible node plus the final assignment.
  decision.messages = 2 * static_cast<int>(nodes.size()) + 1;
  return decision;
}

// ------------------------------------------------------------- TwoProbes

MechanismProperties TwoRandomProbesAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = false;  // probes node load
  p.reads_node_state = true;    // samples two nodes' live backlogs
  return p;
}

void TwoRandomProbesAllocator::MaybeRefresh(
    const AllocationContext& context) {
  if (snapshot_time_ >= 0 &&
      context.now() - snapshot_time_ < staleness_) {
    return;
  }
  load_board_.assign(static_cast<size_t>(context.num_nodes()), 0);
  for (catalog::NodeId j = 0; j < context.num_nodes(); ++j) {
    load_board_[static_cast<size_t>(j)] = context.NodeBacklog(j);
  }
  snapshot_time_ = context.now();
}

AllocationDecision TwoRandomProbesAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;
  MaybeRefresh(context);
  if (nodes.size() == 1) {
    decision.node = nodes[0];
    decision.messages = 1;
    return decision;
  }
  int n = static_cast<int>(nodes.size());
  std::vector<int> picks = rng_.Sample(n, 2);
  catalog::NodeId a = nodes[static_cast<size_t>(picks[0])];
  catalog::NodeId b = nodes[static_cast<size_t>(picks[1])];
  decision.node = load_board_[static_cast<size_t>(a)] <=
                          load_board_[static_cast<size_t>(b)]
                      ? a
                      : b;
  decision.messages = 2 * 2 + 1;  // two probe round-trips + assignment
  return decision;
}

// ----------------------------------------------------------------- BNQRD

MechanismProperties BnqrdAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = false;  // central load collection
  p.reads_node_state = true;    // collects cumulative usage reports
  return p;
}

AllocationDecision BnqrdAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;

  // Spread node-independent resource usage evenly: the chosen node is the
  // one with the least *cumulative* assigned work (the assignment that
  // minimizes the post-assignment unbalance factor). Deliberately blind to
  // how fast each node drains its usage — the flaw the paper calls out on
  // heterogeneous federations.
  double best_work = std::numeric_limits<double>::infinity();
  for (catalog::NodeId j : nodes) {
    if (!context.NodeOnline(j)) continue;  // no usage report
    double w = context.NodeCumulativeWork(j);
    if (w < best_work) {
      best_work = w;
      decision.node = j;
    }
  }
  // Every node periodically reports its load to the coordinator; charge
  // one report per feasible node plus the assignment message.
  decision.messages = static_cast<int>(nodes.size()) + 1;
  return decision;
}

// -------------------------------------------------------- LeastImbalance

MechanismProperties LeastImbalanceAllocator::properties() const {
  MechanismProperties p;
  p.distributed = false;
  p.handles_dynamic_workload = true;
  p.conflicts_with_query_optimization = true;
  p.respects_autonomy = false;
  p.reads_node_state = true;  // recomputes global backlog imbalance
  return p;
}

AllocationDecision LeastImbalanceAllocator::Allocate(
    const workload::Arrival& arrival, const AllocationContext& context) {
  AllocationDecision decision;
  const std::vector<catalog::NodeId>& nodes =
      FeasibleNodes(&candidates_, context, arrival.class_id);
  if (nodes.empty()) return decision;

  double best_imbalance = std::numeric_limits<double>::infinity();
  for (catalog::NodeId candidate : nodes) {
    // Hypothetical backlogs after assigning the query to `candidate`.
    double max_load = 0.0;
    double min_load = std::numeric_limits<double>::infinity();
    for (catalog::NodeId j = 0; j < context.num_nodes(); ++j) {
      double load = static_cast<double>(context.NodeBacklog(j));
      if (j == candidate) {
        load += static_cast<double>(
            context.cost_model().Cost(arrival.class_id, candidate));
      }
      max_load = std::max(max_load, load);
      min_load = std::min(min_load, load);
    }
    double imbalance = max_load - min_load;
    if (imbalance < best_imbalance) {
      best_imbalance = imbalance;
      decision.node = candidate;
    }
  }
  decision.messages = 2 * context.num_nodes() + 1;
  return decision;
}

}  // namespace qa::allocation
