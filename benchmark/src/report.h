#ifndef QAMARKET_BENCHMARK_REPORT_H_
#define QAMARKET_BENCHMARK_REPORT_H_

#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace qa::bench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// False where the workload bypasses the layer (printed only if true).
  bool applies = true;
};

/// A metric of the result line, as BENCHMARK.json declares it.
struct MetricName {
  std::string name;
  std::string unit;
  /// "higher" or "lower".
  std::string better;
};

/// The result line's metrics without --trace and with it. BENCHMARK.json
/// declares exactly these (the self-test checks it).
const std::vector<MetricName>& EndToEndMetricNames();
const std::vector<MetricName>& PerLayerMetricNames();

/// Everything the traced pass derives from a run's tracer: the per-layer
/// metrics by the names the README maps to end-to-end metrics, absolute
/// (seconds, calls, ns) and as shares. Sums are per traced rep.
std::vector<Metric> LayerMetrics(const Tracer& tracer, int traced_reps,
                                 const StepTimes& step_medians,
                                 double setup_median_s,
                                 double trace_overhead_pct);

/// Layer self times of the average traced rep, one row per layer plus
/// "unattributed", summing to the rep's wall time (a grid's workers count
/// wall x threads; see README). Values in seconds.
std::vector<Metric> Reconciliation(const Tracer& tracer, int traced_reps);

/// Share of the traced reps' wall time covered by layer spans, in %.
double SpanCoveragePct(const Tracer& tracer);

}  // namespace qa::bench

#endif  // QAMARKET_BENCHMARK_REPORT_H_
