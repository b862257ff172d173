#ifndef QAMARKET_BENCHMARK_DECORATORS_H_
#define QAMARKET_BENCHMARK_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "query/cost_model.h"
#include "tracer.h"
#include "util/task_runner.h"

// Transparent decorators around the layers' public interfaces: they time
// or count every call at the boundary and forward it unchanged, so a
// traced run computes exactly what an untraced one does (the benchmark
// checks this on every traced rep). None of them touches src/.

namespace qa::bench {

/// What a TimedAllocator measured over one or more runs.
struct AllocStats {
  LogHistogram allocate;
  LogHistogram period_hook;
  /// Decisions that named a node.
  int64_t accepted = 0;
  int64_t solicited = 0;
  int64_t messages = 0;
  /// Clock reading of the last SetMetricsCollector call: Federation::Run
  /// makes it at entry, which splits a grid cell into construct and run.
  int64_t run_start_ns = 0;

  void Merge(const AllocStats& other);
};

/// Wraps the allocator allocation::CreateAllocator built and forwards
/// every virtual, timing Allocate and the period hooks (for QA-NT the
/// hooks are the market layer's eq.-4 rollover and price update).
class TimedAllocator final : public allocation::Allocator {
 public:
  /// `stats` must outlive the allocator. `in_allocator` (may be null) is
  /// true while a call into the allocator runs, so a fork-join issued from
  /// it (QA-NT's bid scan or batched rollover) is attributed to the
  /// allocation layer rather than to the sim layer's lane drains.
  TimedAllocator(std::unique_ptr<allocation::Allocator> inner,
                 AllocStats* stats, bool* in_allocator);

  std::string name() const override { return inner_->name(); }
  allocation::MechanismProperties properties() const override {
    return inner_->properties();
  }
  allocation::AllocationDecision Allocate(
      const workload::Arrival& arrival,
      const allocation::AllocationContext& context) override;
  void OnPeriodStart(util::VTime now) override;
  void OnPeriodEnd(util::VTime now) override;
  void OnNodeRestart(catalog::NodeId node, util::VTime now) override {
    inner_->OnNodeRestart(node, now);
  }
  void SetTaskRunner(const util::TaskRunner* runner) override {
    inner_->SetTaskRunner(runner);
  }
  void SetMetricsCollector(obs::metrics::Collector* collector) override;
  void FillMarketProbe(obs::metrics::MarketProbe* probe) const override {
    inner_->FillMarketProbe(probe);
  }
  obs::AllocatorSnapshot Snapshot() const override {
    return inner_->Snapshot();
  }

 private:
  std::unique_ptr<allocation::Allocator> inner_;
  AllocStats* stats_;
  bool* in_allocator_;
};

/// One ParallelFor call as the calling thread saw it.
struct ForkJoinCall {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tasks = 0;
  int64_t task_sum_ns = 0;
  int64_t task_max_ns = 0;
  /// Issued from inside an allocator call.
  bool in_allocator = false;
};

/// Wraps the run's exec::PoolRunner and times each ParallelFor call and
/// each task in it. TaskRunner calls never nest and come from one thread,
/// so the call log needs no lock; each task writes only its own slot.
class TimedTaskRunner final : public util::TaskRunner {
 public:
  /// `inner` must outlive this runner; `in_allocator` may be null.
  TimedTaskRunner(const util::TaskRunner* inner, const bool* in_allocator)
      : inner_(inner), in_allocator_(in_allocator) {}

  int concurrency() const override { return inner_->concurrency(); }
  void ParallelFor(int n, const std::function<void(int)>& fn) const override;

  const std::vector<ForkJoinCall>& calls() const { return calls_; }

 private:
  const util::TaskRunner* inner_;
  const bool* in_allocator_;
  mutable std::vector<ForkJoinCall> calls_;
  mutable std::vector<int64_t> task_ns_;
};

/// Counts CostModel::Cost calls (including those BestCost and
/// FeasibleNodes make) and forwards them. Safe to share across threads,
/// but exact only when one thread calls at a time: the count is a relaxed
/// load and store, not a locked increment, because hier1m's construction
/// makes ~10^8 calls and a locked increment each would add ~20% to the
/// traced rep. (No workload calls Cost from two threads at once.)
class CountingCostModel final : public query::CostModel {
 public:
  /// `inner` must outlive this model.
  explicit CountingCostModel(const query::CostModel* inner) : inner_(inner) {}

  int num_classes() const override { return inner_->num_classes(); }
  int num_nodes() const override { return inner_->num_nodes(); }
  util::VDuration Cost(query::QueryClassId k,
                       catalog::NodeId node) const override {
    calls_.store(calls_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    return inner_->Cost(k, node);
  }

  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  const query::CostModel* inner_;
  mutable std::atomic<int64_t> calls_{0};
};

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_DECORATORS_H_
