#ifndef QAMARKET_SIM_NODE_H_
#define QAMARKET_SIM_NODE_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"
#include "util/vtime.h"
#include "workload/trace.h"

namespace qa::sim {

/// A query in the federation, from its arrival at the client's mediator
/// until it completes or is dropped: the payload of an arrival event, and
/// the record every QueryTask extends.
struct PendingQuery {
  /// The client's arrival: original arrival time (response time is
  /// measured from here, so a retry or a loss inflates it), class, origin
  /// and the execution-time jitter drawn for this query, which a
  /// resubmitted query keeps so it re-prices deterministically.
  workload::Arrival arrival;
  query::QueryId id = -1;
  /// Allocation attempts spent so far; carried on the task so a query lost
  /// to a fault is resubmitted with its retry budget intact.
  int attempts = 0;
  /// True once the query passed the admission gate. Admitted queries skip
  /// the gate on retries: admission decides who *enters* the market, not
  /// who may finish.
  bool admitted = false;
};

/// A query waiting at or running on a node: the pending query plus the
/// execution time fixed at allocation on the node it was assigned to (a
/// degraded node stretches it on delivery).
struct QueryTask : PendingQuery {
  util::VDuration exec_time = 0;
};
// Every arena slot, lane outcome and crash loss holds one; a field added
// here (or to PendingQuery) grows them all.
static_assert(sizeof(QueryTask) <= 48, "QueryTask outgrew 48 bytes");

/// The federation's server nodes. Each node is one autonomous RDBMS: a
/// serial executor draining a FIFO queue of assigned queries, tracking its
/// backlog in time units and the node-independent work ever assigned to
/// it; the simulator exposes those to mechanisms that (legitimately or
/// not) probe node load.
///
/// The layout is struct-of-arrays for the federation's hot path: every
/// per-node field lives in a flat parallel array indexed by node id, and a
/// task's one record is a slot of its lane's arena from shipment to
/// completion (the FIFO links slots, the running task keeps its slot).
/// Federation::Dispatch touches two or three of these arrays per event;
/// with 10k+ nodes that is a handful of contiguous cache lines instead of
/// a pointer chase through 10k deque headers.
///
/// The pool owns the node -> lane map (HashShard). Sharding contract: a
/// node's state (including its queue links and running slot) is only ever
/// touched by its lane, and each arena belongs to exactly one lane — so
/// concurrent lanes never share a free list. The one exception is Ship():
/// between fences the mediator may fill a slot in the target lane's arena,
/// which is safe because the mediator and the lanes never run at once; the
/// lane takes the slot over when the delivery fires. Arena slot indices
/// are an allocation detail: they never influence event order or results.
class NodePool {
 public:
  /// Sizes the pool for `num_nodes` nodes split into `shards` lanes, one
  /// arena each, by HashShard (a count below 1 is taken as 1).
  void Init(int num_nodes, int shards);

  int num_nodes() const { return static_cast<int>(busy_until_.size()); }
  int shards() const { return static_cast<int>(arenas_.size()); }
  int shard_of(catalog::NodeId node) const {
    return shard_of_[static_cast<size_t>(node)];
  }

  /// Stores `task` in a free slot of the arena that owns `node` and
  /// returns the slot: the in-flight record of a shipment, which the
  /// delivery event names. The mediator calls this between fences (see
  /// the sharding contract); the slot then belongs to the node's lane,
  /// which either Enqueue()s or Discard()s it.
  int32_t Ship(catalog::NodeId node, const QueryTask& task);
  /// The record in a shipped slot; the lane may edit it (a degraded node
  /// stretches its execution time) before it enqueues the slot.
  QueryTask& Shipped(catalog::NodeId node, int32_t slot) {
    return SlotOf(node, slot).task;
  }
  /// Frees a shipped slot that never joins the queue (a shed or lost
  /// delivery).
  void Discard(catalog::NodeId node, int32_t slot) {
    ReleaseSlot(shard_of(node), slot);
  }

  /// Links shipped `slot` into the node's queue, without copying its
  /// record, and charges `work` (the class's node-independent best-case
  /// cost) to the node's cumulative work. Returns true when the node was
  /// idle with an empty queue (the caller should begin the task now); a
  /// caller that has not yet called BeginNext for an earlier enqueue is
  /// not told to start twice.
  bool Enqueue(catalog::NodeId node, int32_t slot, double work);

  /// Unlinks the queue's head as the running task, which keeps its slot,
  /// and marks the node busy until now + task.exec_time, charging that time
  /// to the busy ledger up front. Returns the running record (see
  /// Running). Requires a non-empty queue and an idle node.
  const QueryTask& BeginNext(catalog::NodeId node, util::VTime now);
  /// The task the node runs, from BeginNext until CompleteCurrent or Crash.
  /// The reference is valid until the next Ship into the node's lane: the
  /// mediator may grow the arena between fences.
  const QueryTask& Running(catalog::NodeId node) const {
    return SlotOf(node, running_slot_[static_cast<size_t>(node)]).task;
  }

  /// Finishes the running task and frees its slot; true if more tasks wait.
  bool CompleteCurrent(catalog::NodeId node, util::VTime now);

  /// Crash with loss of volatile state: copies the running task and the
  /// queue into `lost` (running task first, then run-queue order) and frees
  /// their slots, so the simulator can account them as lost and resubmit
  /// them; gives back the un-run remainder of the running task's busy
  /// time, and bumps the node's epoch so in-flight completion events of
  /// wiped tasks become stale.
  void Crash(catalog::NodeId node, util::VTime now,
             std::vector<QueryTask>* lost);

  /// Remaining execution time of everything assigned to the node (running
  /// task remainder + queued tasks), in microseconds.
  util::VDuration Backlog(catalog::NodeId node, util::VTime now) const;
  /// Cumulative work ever enqueued at the node, in node-independent units:
  /// a task's units stay charged when it completes, is evicted or is lost
  /// to a crash.
  double CumulativeWork(catalog::NodeId node) const {
    return cumulative_work_[static_cast<size_t>(node)];
  }
  util::VDuration busy_time(catalog::NodeId node) const {
    return busy_time_[static_cast<size_t>(node)];
  }
  int64_t completed(catalog::NodeId node) const {
    return completed_[static_cast<size_t>(node)];
  }
  /// Time the node last went idle (0 if never busy) — used for the
  /// overload-duration measurements of Fig. 1.
  util::VTime last_idle_at(catalog::NodeId node) const {
    return last_idle_[static_cast<size_t>(node)];
  }
  /// Current incarnation of the node's volatile state; bumped by Crash().
  int64_t epoch(catalog::NodeId node) const {
    return epoch_[static_cast<size_t>(node)];
  }
  /// Number of tasks waiting in the FIFO (excludes the running task).
  int32_t QueueLength(catalog::NodeId node) const {
    return queue_len_[static_cast<size_t>(node)];
  }

  /// Lowest-priority-first shedding support: unlinks the queued task whose
  /// class has the highest `class_cost` (the newest one among equals) into
  /// `*victim` — but only when that cost strictly exceeds `incoming_cost`,
  /// so an eviction never replaces a cheap task with an expensive one.
  /// Returns false (queue untouched) when nothing queued is strictly more
  /// expensive than the incoming task.
  bool EvictWorseQueued(catalog::NodeId node,
                        const std::vector<double>& class_cost,
                        double incoming_cost, QueryTask* victim);

 private:
  /// One arena slot: a shipped, queued or running task plus the intrusive
  /// FIFO link (index of the next slot in the same node's queue, -1 at the
  /// tail). Free slots reuse `next` as the free-list link.
  struct Slot {
    QueryTask task;
    int32_t next = -1;
  };
  struct Arena {
    std::vector<Slot> slots;
    int32_t free_head = -1;
  };

  int32_t AcquireSlot(int shard);
  void ReleaseSlot(int shard, int32_t index);
  Slot& SlotOf(catalog::NodeId node, int32_t slot) {
    return arenas_[static_cast<size_t>(shard_of(node))]
        .slots[static_cast<size_t>(slot)];
  }
  const Slot& SlotOf(catalog::NodeId node, int32_t slot) const {
    return arenas_[static_cast<size_t>(shard_of(node))]
        .slots[static_cast<size_t>(slot)];
  }

  // ---- hot per-node state (parallel arrays indexed by node id) ----
  std::vector<util::VTime> busy_until_;
  std::vector<double> cumulative_work_;
  std::vector<util::VDuration> busy_time_;
  std::vector<int64_t> completed_;
  std::vector<util::VTime> last_idle_;
  std::vector<int64_t> epoch_;
  /// Arena slot of the running task; -1 while the node is idle.
  std::vector<int32_t> running_slot_;
  // FIFO queue per node: arena slot indices into the owning shard's arena.
  std::vector<int32_t> queue_head_;
  std::vector<int32_t> queue_tail_;
  std::vector<int32_t> queue_len_;
  /// Node -> lane (HashShard); lane s owns arenas_[s].
  std::vector<int> shard_of_;
  std::vector<Arena> arenas_;
};

}  // namespace qa::sim

#endif  // QAMARKET_SIM_NODE_H_
