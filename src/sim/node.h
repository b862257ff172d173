#ifndef QAMARKET_SIM_NODE_H_
#define QAMARKET_SIM_NODE_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"
#include "util/vtime.h"

namespace qa::sim {

/// A query waiting at or running on a node.
struct QueryTask {
  query::QueryId query_id = -1;
  query::QueryClassId class_id = -1;
  catalog::NodeId origin = -1;
  /// First arrival into the system (response time is measured from here).
  util::VTime arrival = 0;
  /// Actual execution time on the node this task was assigned to.
  util::VDuration exec_time = 0;
  /// Node-independent work units (best-case cost), for BNQRD bookkeeping.
  double work_units = 0.0;
  /// Allocation attempts spent so far; carried on the task so a query lost
  /// to a fault can be resubmitted with its retry budget intact.
  int attempts = 0;
  /// The per-query execution-time jitter drawn at first allocation, kept so
  /// a resubmitted query re-prices deterministically.
  double cost_jitter = 1.0;
  /// The node incarnation this task was started under. A crash bumps the
  /// node's epoch, so completions of tasks wiped by the crash can be
  /// recognized as stale and ignored.
  int64_t epoch = 0;
};

/// The federation's server nodes. Each node is one autonomous RDBMS: a
/// serial executor draining a FIFO queue of assigned queries, tracking its
/// backlog in time units and in node-independent work units; the simulator
/// exposes those to mechanisms that (legitimately or not) probe node load.
///
/// The layout is struct-of-arrays for the federation's hot path: every
/// per-node field lives in a flat parallel array indexed by node id, and
/// the FIFO task queues draw their storage from per-shard arena free lists
/// instead of one std::deque per node. Federation::Dispatch touches two or
/// three of these arrays per event; with 10k+ nodes that is a handful of
/// contiguous cache lines instead of a pointer chase through 10k deque
/// headers.
///
/// Sharding contract: a node's state (including its queue links) is only
/// ever touched by the lane that owns its shard, and each arena belongs to
/// exactly one shard — so concurrent lanes never share a free list. Arena
/// slot indices are an allocation detail: they never influence event
/// order or results.
class NodePool {
 public:
  /// Sizes the pool for `num_nodes` nodes partitioned into `shards`
  /// arenas by `shard_of` (node -> shard, values in [0, shards)).
  void Init(int num_nodes, int shards,
            const std::vector<int>& shard_of);

  int num_nodes() const { return static_cast<int>(busy_until_.size()); }

  /// Adds a task to the node's queue. Returns true when the node was idle
  /// with an empty queue (the caller should begin the task now); a caller
  /// that has not yet called BeginNext for an earlier enqueue is not told
  /// to start twice.
  bool Enqueue(catalog::NodeId node, const QueryTask& task);

  /// Pops the task to run next and marks the node busy until
  /// now + task.exec_time, charging that time to the busy ledger up front.
  /// Requires a non-empty queue and an idle node.
  QueryTask BeginNext(catalog::NodeId node, util::VTime now);

  /// Marks the running task finished. Returns true if more tasks wait.
  bool CompleteCurrent(catalog::NodeId node, util::VTime now);

  /// Crash with loss of volatile state: wipes the queue and the running
  /// task into `lost` (appended in run-queue order, running task first) so
  /// the simulator can account them as lost and resubmit them, gives back
  /// the un-run remainder of the running task's busy time, and bumps the
  /// node's epoch so in-flight completion events of wiped tasks become
  /// stale.
  void Crash(catalog::NodeId node, util::VTime now,
             std::vector<QueryTask>* lost);

  /// Remaining execution time of everything assigned to the node (running
  /// task remainder + queued tasks), in microseconds.
  util::VDuration Backlog(catalog::NodeId node, util::VTime now) const;
  /// Outstanding work in node-independent units.
  double QueuedWork(catalog::NodeId node) const {
    return queued_work_[static_cast<size_t>(node)];
  }
  /// Cumulative work ever assigned to the node, in node-independent units.
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
  /// One arena slot: a queued task plus the intrusive FIFO link (index of
  /// the next slot in the same node's queue, -1 at the tail). Free slots
  /// reuse `next` as the free-list link.
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

  // ---- hot per-node state (parallel arrays indexed by node id) ----
  std::vector<util::VTime> busy_until_;
  std::vector<double> queued_work_;
  std::vector<double> cumulative_work_;
  std::vector<util::VDuration> busy_time_;
  std::vector<int64_t> completed_;
  std::vector<util::VTime> last_idle_;
  std::vector<int64_t> epoch_;
  std::vector<uint8_t> running_;
  std::vector<QueryTask> current_;
  // FIFO queue per node: arena slot indices into the owning shard's arena.
  std::vector<int32_t> queue_head_;
  std::vector<int32_t> queue_tail_;
  std::vector<int32_t> queue_len_;
  std::vector<int> shard_of_;
  std::vector<Arena> arenas_;
};

}  // namespace qa::sim

#endif  // QAMARKET_SIM_NODE_H_
