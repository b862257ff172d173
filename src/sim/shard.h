#ifndef QAMARKET_SIM_SHARD_H_
#define QAMARKET_SIM_SHARD_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "util/rng.h"

namespace qa::sim {

/// Canonical event-stamp encoding for the sharded simulator core.
///
/// Events at equal virtual time are ordered by a 64-bit stamp. For the
/// sharded federation the stamp must be a pure function of the *scenario*
/// — never of how nodes are placed on shards or how many threads drain
/// them — so one global event order exists that every (shards, threads)
/// configuration reproduces byte for byte. The encoding:
///
///     [ node+1 : 23 bits ][ sublane : 1 bit ][ counter : 40 bits ]
///
///  - Mediator-lane events (arrivals, resubmissions issued by the
///    mediator, market ticks, restarts) use node = -1: the high bits are
///    zero and the stamp is just the mediator's own scheduling counter.
///    The mediator reads node-lane state only after a fence has merged
///    every earlier node event (DESIGN.md §8), so its scheduling order —
///    and therefore these stamps — is the same at every layout.
///  - Node-lane events carry the target node in the high bits, so at equal
///    time the order is: mediator events first, then node events in node
///    order. Two sublanes per node keep the counters placement-
///    independent: sublane 0 stamps are allocated by the *mediator* (in
///    mediator order: deliveries it ships, fault transitions at setup),
///    sublane 1 stamps by the node's own event processing (in the node's
///    event-key order: completions it schedules, resubmissions of queries
///    it lost). Each allocator's history is mode-invariant, so the stamps
///    are too; had the two shared one counter, the stamp a completion gets
///    would depend on how far the mediator had run ahead — i.e. on the
///    barrier placement.
///
/// FIFO semantics within a (node, sublane) stream are preserved because
/// counters only increase.
struct EventStamp {
  static constexpr int kCounterBits = 40;
  static constexpr int kSublaneBits = 1;
  static constexpr uint64_t kCounterMask = (uint64_t{1} << kCounterBits) - 1;

  /// Mediator-lane stamp: plain scheduling counter, sorts before every
  /// node-lane stamp at equal time.
  static uint64_t Mediator(uint64_t counter) {
    assert(counter <= kCounterMask);
    return counter;
  }

  /// Node-lane stamp. `sublane` 0 = mediator-allocated (deliveries, fault
  /// transitions), 1 = node-allocated (completions, loss resubmissions).
  static uint64_t Node(catalog::NodeId node, int sublane, uint64_t counter) {
    assert(node >= 0);
    assert(sublane == 0 || sublane == 1);
    assert(counter <= kCounterMask);
    assert(static_cast<uint64_t>(node) + 1 <
           (uint64_t{1} << (64 - kCounterBits - kSublaneBits)));
    return ((static_cast<uint64_t>(node) + 1)
            << (kCounterBits + kSublaneBits)) |
           (static_cast<uint64_t>(sublane) << kCounterBits) | counter;
  }
};

/// The stable node -> shard partition of one federation run.
///
/// The assignment hashes the node id (SplitMix64 finalizer) rather than
/// taking id % shards, so structured id ranges (e.g. a workload whose hot
/// origins are the low ids) still spread across shards. The hash is a pure
/// function of (node, shards): re-running a scenario always partitions the
/// same way, and the partition never feeds into event *ordering* — only
/// into which worker drains which lane — so results are independent of it
/// by construction.
class ShardPlan {
 public:
  ShardPlan() : shards_(1) {}
  ShardPlan(int num_nodes, int shards)
      : shards_(shards < 1 ? 1 : shards) {
    shard_of_.reserve(static_cast<size_t>(num_nodes));
    for (catalog::NodeId node = 0; node < num_nodes; ++node) {
      shard_of_.push_back(HashShard(node, shards_));
    }
  }

  int shards() const { return shards_; }
  int shard_of(catalog::NodeId node) const {
    return shard_of_[static_cast<size_t>(node)];
  }

  static int HashShard(catalog::NodeId node, int shards) {
    if (shards <= 1) return 0;
    return static_cast<int>(
        util::SplitMix64(static_cast<uint64_t>(node)).Next() %
        static_cast<uint64_t>(shards));
  }

 private:
  int shards_;
  std::vector<int> shard_of_;
};

}  // namespace qa::sim

#endif  // QAMARKET_SIM_SHARD_H_
