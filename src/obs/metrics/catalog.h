#ifndef QAMARKET_OBS_METRICS_CATALOG_H_
#define QAMARKET_OBS_METRICS_CATALOG_H_

#include <string_view>
#include <vector>

namespace qa::obs::metrics {

/// One registered histogram. Every histogram a collector can ever emit is
/// declared in the catalog (catalog.cc) and nowhere else, so the metrics
/// sink's trailing stats block has a fixed order, and lint rule
/// QA-OBS-003 cross-checks name lookups in code against it. Counts live
/// in sim::SimMetrics and reach the stream as `msample` rows; the
/// catalog names only what the collector itself measures.
struct MetricDef {
  std::string_view name;
  std::string_view help;
};

/// Dense metric ids: the index of each catalog entry. Kept in the exact
/// order of the table in catalog.cc (unit-tested); hot paths use these
/// instead of string lookups.
enum Metric : int {
  // Wall-clock phase timings in nanoseconds (log-bucketed). Side channel
  // only: these never feed simulation state or trace bytes. Contiguous
  // from kPhaseRunTotal in Phase order (Collector::PhaseMetric).
  kPhaseRunTotal = 0,
  kPhaseLaneDrain,
  kPhaseMerge,
  kPhaseMarketTick,
  kPhaseAllocate,
  kPhaseRollover,
  kPhaseBidScan,
  kPhaseSnapshot,
  kPhaseMediatorDispatch,
  // The one deterministic histogram: per-node queue lengths observed at
  // every global period fence (virtual state, so it is byte-identical at
  // any shard/thread count). A count, not a duration.
  kNodeQueueDepth,
  kMetricCount,
};

/// The full catalog, in Metric id order.
const std::vector<MetricDef>& Catalog();

/// Resolves a metric name to its dense id, or -1 when unregistered.
/// Call sites that pass a string literal are lint-checked (QA-OBS-003):
/// the literal must appear in the catalog.
int MetricId(std::string_view name);

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_CATALOG_H_
