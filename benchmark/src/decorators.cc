#include "decorators.h"

#include <algorithm>
#include <utility>

#include "util/monotonic_clock.h"

namespace qa::bench {

using util::MonotonicClock;

void AllocStats::Merge(const AllocStats& other) {
  allocate.Merge(other.allocate);
  period_hook.Merge(other.period_hook);
  accepted += other.accepted;
  solicited += other.solicited;
  messages += other.messages;
}

TimedAllocator::TimedAllocator(std::unique_ptr<allocation::Allocator> inner,
                               AllocStats* stats, bool* in_allocator)
    : inner_(std::move(inner)), stats_(stats), in_allocator_(in_allocator) {}

namespace {

/// Times one call into the allocator, holding *in_allocator (when given)
/// true for its duration.
class CallTimer {
 public:
  CallTimer(LogHistogram* hist, bool* in_allocator)
      : hist_(hist), in_allocator_(in_allocator) {
    if (in_allocator_ != nullptr) *in_allocator_ = true;
    start_ns_ = MonotonicClock::NowNanos();
  }
  ~CallTimer() {
    hist_->Add(MonotonicClock::NowNanos() - start_ns_);
    if (in_allocator_ != nullptr) *in_allocator_ = false;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  LogHistogram* hist_;
  bool* in_allocator_;
  int64_t start_ns_ = 0;
};

}  // namespace

allocation::AllocationDecision TimedAllocator::Allocate(
    const workload::Arrival& arrival,
    const allocation::AllocationContext& context) {
  allocation::AllocationDecision decision;
  {
    CallTimer timer(&stats_->allocate, in_allocator_);
    decision = inner_->Allocate(arrival, context);
  }
  if (decision.node != allocation::kNoNode) ++stats_->accepted;
  stats_->solicited += decision.solicited;
  stats_->messages += decision.messages;
  return decision;
}

void TimedAllocator::OnPeriodStart(util::VTime now) {
  CallTimer timer(&stats_->period_hook, in_allocator_);
  inner_->OnPeriodStart(now);
}

void TimedAllocator::OnPeriodEnd(util::VTime now) {
  CallTimer timer(&stats_->period_hook, in_allocator_);
  inner_->OnPeriodEnd(now);
}

void TimedAllocator::SetMetricsCollector(obs::metrics::Collector* collector) {
  stats_->run_start_ns = MonotonicClock::NowNanos();
  inner_->SetMetricsCollector(collector);
}

void TimedTaskRunner::ParallelFor(int n,
                                  const std::function<void(int)>& fn) const {
  ForkJoinCall call;
  call.tasks = std::max(n, 0);
  call.in_allocator = in_allocator_ != nullptr && *in_allocator_;
  task_ns_.assign(static_cast<size_t>(call.tasks), 0);
  call.start_ns = MonotonicClock::NowNanos();
  inner_->ParallelFor(n, [this, &fn](int i) {
    int64_t start = MonotonicClock::NowNanos();
    fn(i);
    task_ns_[static_cast<size_t>(i)] = MonotonicClock::NowNanos() - start;
  });
  call.end_ns = MonotonicClock::NowNanos();
  for (int64_t ns : task_ns_) {
    call.task_sum_ns += ns;
    call.task_max_ns = std::max(call.task_max_ns, ns);
  }
  calls_.push_back(call);
}

}  // namespace qa::bench
