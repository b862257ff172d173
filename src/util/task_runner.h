#ifndef QAMARKET_UTIL_TASK_RUNNER_H_
#define QAMARKET_UTIL_TASK_RUNNER_H_

#include <functional>

namespace qa::util {

/// Fork-join execution abstraction for code that wants intra-run
/// parallelism without depending on a concrete thread pool (the allocation
/// and sim layers sit *below* qa_exec in the dependency graph, so they
/// cannot see exec::ThreadPool directly).
///
/// Contract: ParallelFor(n, fn) invokes fn(0) ... fn(n-1) exactly once
/// each, possibly concurrently, and returns only after every invocation
/// finished (a full barrier). Implementations must not reorder visible
/// side effects across the return: everything fn wrote happens-before the
/// caller's next statement. Callers are responsible for making the fn(i)
/// invocations mutually data-race-free (disjoint writes); determinism of
/// *results* must never depend on the interleaving, only on the index.
///
/// Re-entrancy: ParallelFor must not be called from inside one of its own
/// fn invocations (a nested call on a shared fixed-size pool can deadlock).
/// A run's only fork-join is the federation's lane drain, issued from the
/// mediator thread strictly one fence at a time, so a single shared pool
/// serves the whole run.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Upper bound on how many fn invocations can make progress at once
  /// (>= 1). Callers use it to pick chunk counts; results must not depend
  /// on the value.
  virtual int concurrency() const = 0;

  virtual void ParallelFor(int n,
                           const std::function<void(int)>& fn) const = 0;
};

}  // namespace qa::util

#endif  // QAMARKET_UTIL_TASK_RUNNER_H_
