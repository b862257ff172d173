#ifndef QAMARKET_BENCHMARK_WORKLOADS_H_
#define QAMARKET_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/experiment_runner.h"
#include "gate.h"
#include "sim/metrics.h"
#include "tracer.h"

namespace qa::bench {

/// Seed of the fixed testbed every workload runs on: federation hardware,
/// catalog, cost model and minidb dataset. --seed varies the arrivals and
/// the allocators' private RNG streams, not the testbed.
inline constexpr uint64_t kTestbedSeed = 42;

/// Wall seconds of each set-up step, by per-layer metric name
/// (query.build_model_s, workload.generate_s, sim.capacity_estimate_s,
/// dbms.setup_s).
using StepTimes = std::map<std::string, double>;

/// Where a set-up records its steps: one span per step under `parent`
/// (layer from the metric name's prefix), its seconds added to `steps`.
struct SetUpLog {
  Tracer* tracer = nullptr;
  int parent = -1;
  StepTimes* steps = nullptr;
};

/// What a traced rep returns.
struct TracedOutcome {
  RepRuns runs;
  /// Wall time of the part of the traced rep that repeats an untraced rep
  /// (everything except minidb5's benchmark-owned replay): the numerator
  /// of trace_overhead_pct.
  double comparable_s = 0.0;
};

/// One benchmark workload: a fixed scenario replayed in batch. A rep
/// replays pre-generated inputs through the layers' public entry points
/// (exec::RunSpecOnce, exec::ExperimentRunner::Run or
/// dbms::DbmsFederation::Run), exactly as the figure benches call them.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One line: scenario, load, mechanism, input size.
  virtual std::string Describe() const = 0;
  /// Builds everything a rep replays, from scratch. Called several times
  /// per run (setup_s is the median); the last build is the one replayed.
  virtual void SetUp(const SetUpLog& log) = 0;
  /// One rep with tracing off.
  virtual RepRuns Rep() = 0;
  /// The same rep with every layer boundary recorded into `tracer`,
  /// counters summed into its counters.
  virtual TracedOutcome TracedRep(Tracer* tracer) = 0;
  /// Checks beyond "every rep reproduces the first", run once after the
  /// timed reps. `median_rep_s` is the untraced reps' median wall time.
  /// Returns one message per violation.
  virtual std::vector<std::string> ExtraChecks(const Outcome& reference,
                                               double median_rep_s,
                                               Tracer* tracer);
};

/// The six workloads, in the order a full set runs them.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name. `smoke` shrinks every input to 1/20;
/// `threads` caps every thread pool the workload starts.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke, int threads);

/// exec::RunSpecOnce with the cost model, allocator and task runner
/// wrapped in the benchmark's decorators, the Federation constructed here
/// (mirroring RunSpecOnce's period/seed lines) and each step recorded as a
/// span under `parent`. Returns the same metrics RunSpecOnce would. The
/// spec must leave make_allocator and probe unset.
sim::SimMetrics TracedRunSpec(const exec::RunSpec& spec, Tracer* tracer,
                              int parent, int run);

/// exec::ExperimentRunner(threads).Run(specs) with a span per grid cell,
/// opened by RunSpec::make_allocator and closed by RunSpec::probe (both
/// run on the worker), and each cell's allocator and cost model decorated.
/// Every spec must leave make_allocator and probe unset.
std::vector<sim::SimMetrics> TracedGrid(const std::vector<exec::RunSpec>& specs,
                                        int threads, Tracer* tracer,
                                        int parent);

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_WORKLOADS_H_
