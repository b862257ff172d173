#include "obs/metrics/catalog.h"

namespace qa::obs::metrics {

// The one place metric names exist. Order must match the Metric enum in
// catalog.h (tests/metrics_test.cc pins both); lint rule QA-OBS-003 reads
// this file's string literals as the registered-name set.
const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> kCatalog = {
      // ---- wall-clock side channel, nanoseconds ----
      {"qa_phase_run_total_ns", "whole Federation::Run wall time"},
      {"qa_phase_lane_drain_ns",
       "per-tick-fence node-lane drain (the parallel fork-join section)"},
      {"qa_phase_merge_ns",
       "per-tick-fence cross-lane canonical (time, stamp) merge"},
      {"qa_phase_market_tick_ns",
       "per-tick market driver (allocator period hooks and bookkeeping)"},
      {"qa_phase_allocate_ns", "per-arrival Allocator::Allocate call"},
      {"qa_phase_rollover_ns", "per-tick QA-NT staggered period rollover"},
      {"qa_phase_bid_scan_ns",
       "per-arrival QA-NT solicitation + solicited-agent bid scan"},
      {"qa_phase_snapshot_ns",
       "per-period market probe + sample + watchdog evaluation"},
      {"qa_phase_mediator_dispatch_ns",
       "per-window mediator run-ahead between tick fences"},
      // ---- virtual state, deterministic ----
      {"qa_node_queue_depth",
       "per-node waiting-queue length observed each global period "
       "(deterministic: virtual state, not wall clock)"},
  };
  return kCatalog;
}

int MetricId(std::string_view name) {
  const std::vector<MetricDef>& catalog = Catalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace qa::obs::metrics
