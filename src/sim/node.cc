#include "sim/node.h"

#include <algorithm>
#include <cassert>

#include "sim/shard.h"

namespace qa::sim {

void NodePool::Init(int num_nodes, int shards) {
  assert(num_nodes >= 0);
  shards = std::max(shards, 1);
  size_t n = static_cast<size_t>(num_nodes);
  busy_until_.assign(n, 0);
  cumulative_work_.assign(n, 0.0);
  busy_time_.assign(n, 0);
  completed_.assign(n, 0);
  last_idle_.assign(n, 0);
  epoch_.assign(n, 0);
  running_slot_.assign(n, -1);
  queue_head_.assign(n, -1);
  queue_tail_.assign(n, -1);
  queue_len_.assign(n, 0);
  shard_of_.resize(n);
  for (size_t j = 0; j < n; ++j) {
    shard_of_[j] = HashShard(static_cast<catalog::NodeId>(j), shards);
  }
  arenas_.clear();
  arenas_.resize(static_cast<size_t>(shards));
}

int32_t NodePool::AcquireSlot(int shard) {
  Arena& arena = arenas_[static_cast<size_t>(shard)];
  if (arena.free_head >= 0) {
    int32_t index = arena.free_head;
    arena.free_head = arena.slots[static_cast<size_t>(index)].next;
    return index;
  }
  arena.slots.emplace_back();
  return static_cast<int32_t>(arena.slots.size()) - 1;
}

void NodePool::ReleaseSlot(int shard, int32_t index) {
  Arena& arena = arenas_[static_cast<size_t>(shard)];
  arena.slots[static_cast<size_t>(index)].next = arena.free_head;
  arena.free_head = index;
}

int32_t NodePool::Ship(catalog::NodeId node, const QueryTask& task) {
  int32_t slot = AcquireSlot(shard_of(node));
  SlotOf(node, slot).task = task;
  return slot;
}

bool NodePool::Enqueue(catalog::NodeId node, int32_t slot, double work) {
  size_t i = static_cast<size_t>(node);
  Arena& arena = arenas_[static_cast<size_t>(shard_of(node))];
  arena.slots[static_cast<size_t>(slot)].next = -1;
  if (queue_tail_[i] >= 0) {
    arena.slots[static_cast<size_t>(queue_tail_[i])].next = slot;
  } else {
    queue_head_[i] = slot;
  }
  queue_tail_[i] = slot;
  ++queue_len_[i];
  cumulative_work_[i] += work;
  // Start immediately only when the executor is idle and this is the only
  // queued task (a caller that has not yet called BeginNext for an earlier
  // enqueue must not be told to start twice).
  return running_slot_[i] < 0 && queue_len_[i] == 1;
}

const QueryTask& NodePool::BeginNext(catalog::NodeId node, util::VTime now) {
  size_t i = static_cast<size_t>(node);
  assert(running_slot_[i] < 0);
  assert(queue_head_[i] >= 0);
  int32_t slot = queue_head_[i];
  const Slot& running = SlotOf(node, slot);
  queue_head_[i] = running.next;
  if (queue_head_[i] < 0) queue_tail_[i] = -1;
  --queue_len_[i];
  running_slot_[i] = slot;
  busy_until_[i] = now + running.task.exec_time;
  busy_time_[i] += running.task.exec_time;
  return running.task;
}

bool NodePool::CompleteCurrent(catalog::NodeId node, util::VTime now) {
  size_t i = static_cast<size_t>(node);
  assert(running_slot_[i] >= 0);
  ReleaseSlot(shard_of(node), running_slot_[i]);
  running_slot_[i] = -1;
  ++completed_[i];
  if (queue_len_[i] == 0) last_idle_[i] = now;
  return queue_len_[i] > 0;
}

void NodePool::Crash(catalog::NodeId node, util::VTime now,
                     std::vector<QueryTask>* lost) {
  size_t i = static_cast<size_t>(node);
  int shard = shard_of(node);
  Arena& arena = arenas_[static_cast<size_t>(shard)];
  if (running_slot_[i] >= 0) {
    // BeginNext charged the full exec_time to the busy ledger up front;
    // give back the part that will now never run.
    if (busy_until_[i] > now) busy_time_[i] -= busy_until_[i] - now;
    lost->push_back(Running(node));
    ReleaseSlot(shard, running_slot_[i]);
    running_slot_[i] = -1;
  }
  int32_t slot = queue_head_[i];
  while (slot >= 0) {
    lost->push_back(arena.slots[static_cast<size_t>(slot)].task);
    int32_t next = arena.slots[static_cast<size_t>(slot)].next;
    ReleaseSlot(shard, slot);
    slot = next;
  }
  queue_head_[i] = -1;
  queue_tail_[i] = -1;
  queue_len_[i] = 0;
  last_idle_[i] = now;
  ++epoch_[i];
}

bool NodePool::EvictWorseQueued(catalog::NodeId node,
                                const std::vector<double>& class_cost,
                                double incoming_cost, QueryTask* victim) {
  size_t i = static_cast<size_t>(node);
  int shard = shard_of(node);
  Arena& arena = arenas_[static_cast<size_t>(shard)];
  int32_t best = -1;
  int32_t best_prev = -1;
  double best_cost = incoming_cost;
  int32_t prev = -1;
  for (int32_t slot = queue_head_[i]; slot >= 0;
       prev = slot, slot = arena.slots[static_cast<size_t>(slot)].next) {
    const QueryTask& task = arena.slots[static_cast<size_t>(slot)].task;
    double cost = class_cost[static_cast<size_t>(task.arrival.class_id)];
    // `>=` so the newest among equally expensive queued tasks loses;
    // strictly `>` against the incoming cost (seeded via best_cost).
    if (cost > incoming_cost && cost >= best_cost) {
      best = slot;
      best_prev = prev;
      best_cost = cost;
    }
  }
  if (best < 0) return false;
  *victim = arena.slots[static_cast<size_t>(best)].task;
  int32_t next = arena.slots[static_cast<size_t>(best)].next;
  if (best_prev >= 0) {
    arena.slots[static_cast<size_t>(best_prev)].next = next;
  } else {
    queue_head_[i] = next;
  }
  if (queue_tail_[i] == best) queue_tail_[i] = best_prev;
  ReleaseSlot(shard, best);
  --queue_len_[i];
  return true;
}

util::VDuration NodePool::Backlog(catalog::NodeId node,
                                  util::VTime now) const {
  size_t i = static_cast<size_t>(node);
  util::VDuration backlog = 0;
  if (running_slot_[i] >= 0 && busy_until_[i] > now) {
    backlog += busy_until_[i] - now;
  }
  const Arena& arena = arenas_[static_cast<size_t>(shard_of(node))];
  for (int32_t slot = queue_head_[i]; slot >= 0;
       slot = arena.slots[static_cast<size_t>(slot)].next) {
    backlog += arena.slots[static_cast<size_t>(slot)].task.exec_time;
  }
  return backlog;
}

}  // namespace qa::sim
