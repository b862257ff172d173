#include "exec/experiment_runner.h"

#include <cstdio>
#include <cstdlib>
#include <future>
#include <utility>

#include "allocation/factory.h"
#include "exec/thread_pool.h"

namespace qa::exec {

namespace {

std::unique_ptr<allocation::Allocator> MakeAllocator(const RunSpec& spec) {
  if (spec.make_allocator) return spec.make_allocator();
  allocation::AllocatorParams params;
  params.cost_model = spec.cost_model;
  params.period = spec.period;
  params.seed = spec.seed;
  params.solicitation = spec.config.solicitation;
  params.cluster_plan = spec.config.cluster_plan;
  std::unique_ptr<allocation::Allocator> allocator =
      allocation::CreateAllocator(spec.mechanism, params);
  if (allocator == nullptr) {
    // Fail fast: a typo'd mechanism name in a bench grid would otherwise
    // silently produce default-constructed (all-zero) rows.
    std::fprintf(stderr,
                 "FATAL: unknown allocation mechanism '%s' "
                 "(see allocation::AllMechanismNames)\n",
                 spec.mechanism.c_str());
    std::abort();
  }
  return allocator;
}

}  // namespace

RunResult RunSpecOnce(const RunSpec& spec) {
  if (spec.cost_model == nullptr || spec.trace == nullptr) {
    std::fprintf(stderr,
                 "FATAL: RunSpec needs both a cost_model and a trace\n");
    std::abort();
  }
  std::unique_ptr<allocation::Allocator> allocator = MakeAllocator(spec);
  sim::FederationConfig config = spec.config;
  config.period = spec.period;
  // Provenance for traced runs: the trace meta line records the seed.
  config.seed = static_cast<int64_t>(spec.seed);
  sim::Federation federation(spec.cost_model, allocator.get(), config);
  RunResult result;
  result.metrics = federation.Run(*spec.trace);
  if (spec.probe) result.probe = spec.probe(*allocator);
  return result;
}

int ExperimentRunner::ResolvedThreads(int requested) {
  return ThreadPool::ResolveThreadCount(requested);
}

std::vector<RunResult> ExperimentRunner::Run(
    const std::vector<RunSpec>& specs) const {
  std::vector<RunResult> results(specs.size());
  // Nested-parallelism budget: the thread budget is spent at exactly one
  // level. A grid of many cells parallelizes across cells (each run
  // internally serial); a single cell that asked for a sharded core gets
  // the whole pool as its intra-run fork-join runner instead. Never both —
  // S shard drains on each of T grid workers would oversubscribe the
  // machine T-fold, and a sharded run is byte-identical to its 1-lane
  // twin anyway, so which level wins is purely a scheduling choice.
  if (threads_ > 1 && specs.size() == 1 && specs[0].config.shards > 1 &&
      specs[0].config.runner == nullptr) {
    ThreadPool pool(threads_);
    PoolRunner runner(&pool);
    RunSpec spec = specs[0];
    spec.config.runner = &runner;
    results[0] = RunSpecOnce(spec);
    return results;
  }
  if (threads_ <= 1 || specs.size() <= 1) {
    for (size_t i = 0; i < specs.size(); ++i) {
      results[i] = RunSpecOnce(specs[i]);
    }
    return results;
  }

  ThreadPool pool(threads_);
  std::vector<std::future<void>> done;
  done.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    // Each worker writes only its own pre-allocated slot; submission order
    // indexes the results, so ordering is independent of completion order.
    done.push_back(pool.Submit(
        [&specs, &results, i] { results[i] = RunSpecOnce(specs[i]); }));
  }
  for (std::future<void>& future : done) future.get();
  return results;
}

}  // namespace qa::exec
