#include "workload/poisson.h"

#include <cassert>

namespace qa::workload {

Trace GeneratePoissonWorkload(const PoissonWorkloadConfig& config,
                              util::Rng& rng) {
  assert(!config.classes.empty());
  Trace trace;
  double t = 0.0;
  for (int i = 0; i < config.num_queries; ++i) {
    t += rng.Exponential(static_cast<double>(config.mean_interarrival));
    Arrival arrival;
    arrival.time = static_cast<util::VTime>(t);
    arrival.class_id = config.classes[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(config.classes.size()) - 1))];
    arrival.origin = static_cast<catalog::NodeId>(
        rng.UniformInt(0, config.num_origin_nodes - 1));
    arrival.cost_jitter =
        config.cost_jitter > 0.0
            ? rng.UniformReal(1.0 - config.cost_jitter,
                              1.0 + config.cost_jitter)
            : 1.0;
    trace.Add(arrival);
  }
  return trace;
}

}  // namespace qa::workload
