#ifndef QAMARKET_WORKLOAD_POISSON_H_
#define QAMARKET_WORKLOAD_POISSON_H_

#include <vector>

#include "util/rng.h"
#include "util/vtime.h"
#include "workload/trace.h"

namespace qa::workload {

/// Poisson-process workload (exponential gaps) over a fixed class mix;
/// used by tests and the ablation benches as a memoryless contrast to the
/// sinusoid and Zipf generators.
struct PoissonWorkloadConfig {
  int num_queries = 1000;
  util::VDuration mean_interarrival = 100 * util::kMillisecond;
  std::vector<query::QueryClassId> classes = {0};
  int num_origin_nodes = 1;
  double cost_jitter = 0.05;
};

Trace GeneratePoissonWorkload(const PoissonWorkloadConfig& config,
                              util::Rng& rng);

}  // namespace qa::workload

#endif  // QAMARKET_WORKLOAD_POISSON_H_
