#ifndef QAMARKET_ALLOCATION_BASELINES_H_
#define QAMARKET_ALLOCATION_BASELINES_H_

#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "allocation/solicitation.h"
#include "util/rng.h"

namespace qa::allocation {

/// Client-level random server selection (the commercial-cluster baseline of
/// §4): pick a feasible node uniformly at random, no probing.
class RandomAllocator : public Allocator {
 public:
  explicit RandomAllocator(uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "Random"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  util::Rng rng_;
  CandidateIndex candidates_;
};

/// Client-level round-robin over the feasible nodes of each class.
class RoundRobinAllocator : public Allocator {
 public:
  RoundRobinAllocator() = default;

  std::string name() const override { return "RoundRobin"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  /// Next feasible-list index, per query class.
  std::vector<size_t> next_index_;
  CandidateIndex candidates_;
};

/// Greedy (§4): "immediately assign queries to server nodes that can
/// evaluate them in the least time" — the node with the smallest estimated
/// *completion* time (current backlog + execution estimate). The paper
/// allows "a small amount of randomization" on top; no experiment here
/// uses it, so the choice is deterministic. Violates node autonomy:
/// clients unilaterally assign queries and read node backlogs.
class GreedyAllocator : public Allocator {
 public:
  GreedyAllocator() = default;

  std::string name() const override { return "Greedy"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  CandidateIndex candidates_;
};

/// Queue-blind greedy: assigns by estimated *execution* time only, the way
/// the §5.2 real implementation computed its estimates (EXPLAIN + history;
/// no load disclosure). Included as an ablation baseline — without queue
/// knowledge it piles queries onto the fastest nodes and collapses near
/// capacity unless heavily randomized (see bench_ablation_information).
class BlindGreedyAllocator : public Allocator {
 public:
  /// Execution-time estimates are perturbed by +/- `randomization` so load
  /// spreads over near-fastest nodes. The default minimizes GreedyBlind's
  /// own response time in the Fig. 4 conditions (swept in
  /// bench_ablation_information): the baseline gets its best setting.
  BlindGreedyAllocator(uint64_t seed, double randomization = 1.0)
      : rng_(seed), randomization_(randomization) {}

  std::string name() const override { return "GreedyBlind"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  util::Rng rng_;
  double randomization_;
  CandidateIndex candidates_;
};

/// Mitzenmacher's two-random-probes policy [10] ("How useful is old
/// information"): pick two random feasible nodes and send the query to the
/// one whose *last reported* load is lighter. Load reports are periodic
/// bulletin-board style, so decisions run on stale information — the
/// paper's point, and the reason the policy cannot fully balance a dynamic
/// federation (§5.1).
class TwoRandomProbesAllocator : public Allocator {
 public:
  TwoRandomProbesAllocator(uint64_t seed,
                           util::VDuration staleness =
                               5 * 1000 * util::kMillisecond)
      : rng_(seed), staleness_(staleness) {}

  std::string name() const override { return "TwoProbes"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  /// Refreshes the load board when the snapshot expired.
  void MaybeRefresh(const AllocationContext& context);

  util::Rng rng_;
  util::VDuration staleness_;
  std::vector<util::VDuration> load_board_;
  util::VTime snapshot_time_ = -1;
  CandidateIndex candidates_;
};

/// BNQRD [1,2]: a central coordinator keeps an unbalance factor per node
/// and assigns each query so CPU/IO *work* stays evenly spread. Work is
/// measured in node-independent units (the class's best-case cost), which
/// is exactly why it underperforms on heterogeneous federations: it
/// equalizes the work of fast and slow nodes alike (§5.1).
class BnqrdAllocator : public Allocator {
 public:
  BnqrdAllocator() = default;

  std::string name() const override { return "BNQRD"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  CandidateIndex candidates_;
};

/// The naive greedy load-balancer of the paper's introduction (Fig. 1):
/// assign each query to the node that minimizes the resulting load
/// imbalance (max - min backlog in actual time units).
class LeastImbalanceAllocator : public Allocator {
 public:
  LeastImbalanceAllocator() = default;

  std::string name() const override { return "LeastImbalance"; }
  MechanismProperties properties() const override;
  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

 private:
  CandidateIndex candidates_;
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_BASELINES_H_
