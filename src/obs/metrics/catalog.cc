#include "obs/metrics/catalog.h"

namespace qa::obs::metrics {

// The one place metric names exist. Order must match the Metric enum in
// catalog.h (tests/metrics_test.cc pins both); lint rule QA-OBS-003 reads
// this file's string literals as the registered-name set.
const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> kCatalog = {
      // ---- counters (deterministic) ----
      {"qa_events_dispatched_total", Kind::kCounter,
       "discrete events dispatched by the simulator core"},
      {"qa_queries_assigned_total", Kind::kCounter,
       "allocation attempts that placed the query on a node"},
      {"qa_queries_completed_total", Kind::kCounter,
       "queries whose results reached their client in time"},
      {"qa_queries_dropped_total", Kind::kCounter,
       "queries abandoned (retry budget exhausted or expired)"},
      {"qa_queries_expired_total", Kind::kCounter,
       "queries abandoned because the client deadline passed"},
      {"qa_queries_bounced_total", Kind::kCounter,
       "assignments that bounced off an unreachable node"},
      {"qa_queries_lost_total", Kind::kCounter,
       "queries lost in flight to crashes or link faults"},
      {"qa_retries_total", Kind::kCounter,
       "market rounds where every server declined and the client retried"},
      {"qa_messages_total", Kind::kCounter,
       "network messages charged to allocation decisions"},
      {"qa_solicited_total", Kind::kCounter,
       "nodes solicited for offers across all allocation attempts"},
      {"qa_ticks_total", Kind::kCounter, "market ticks run"},
      {"qa_alarms_total", Kind::kCounter,
       "market-health watchdog alarms raised"},
      {"qa_queries_shed_total", Kind::kCounter,
       "queries shed by bounded queues or admission control (⊆ dropped)"},
      {"qa_admission_rejects_total", Kind::kCounter,
       "queries turned away by the admission gate (⊆ shed)"},
      // ---- gauges (deterministic, per global period) ----
      {"qa_market_log_price_variance", Kind::kGauge,
       "max over classes of the cross-node variance of ln(price)"},
      {"qa_market_osc_flip_rate", Kind::kGauge,
       "max over classes of the sign-flip rate of per-period mean "
       "log-price deltas"},
      {"qa_market_max_reject_age_ms", Kind::kGauge,
       "worst sojourn (ms) among queries rejected this period"},
      {"qa_market_earnings_cv", Kind::kGauge,
       "coefficient of variation of per-node cumulative earnings"},
      {"qa_market_outstanding", Kind::kGauge,
       "queries in flight (arrived, neither completed nor dropped)"},
      {"qa_admission_brownout_level", Kind::kGauge,
       "query classes currently browned out (most expensive first)"},
      // ---- histograms (wall-clock side channel, nanoseconds) ----
      {"qa_phase_run_total_ns", Kind::kHistogram,
       "whole Federation::Run wall time"},
      {"qa_phase_lane_drain_ns", Kind::kHistogram,
       "per-tick-fence node-lane drain (the parallel fork-join section)"},
      {"qa_phase_merge_ns", Kind::kHistogram,
       "per-tick-fence cross-lane canonical (time, stamp) merge"},
      {"qa_phase_market_tick_ns", Kind::kHistogram,
       "per-tick market driver (allocator period hooks and bookkeeping)"},
      {"qa_phase_allocate_ns", Kind::kHistogram,
       "per-arrival Allocator::Allocate call"},
      {"qa_phase_rollover_ns", Kind::kHistogram,
       "per-tick QA-NT staggered period rollover"},
      {"qa_phase_bid_scan_ns", Kind::kHistogram,
       "per-arrival QA-NT solicitation + solicited-agent bid scan"},
      {"qa_phase_snapshot_ns", Kind::kHistogram,
       "per-period market probe + sample + watchdog evaluation"},
      {"qa_phase_mediator_dispatch_ns", Kind::kHistogram,
       "per-window mediator run-ahead between tick fences"},
      {"qa_node_queue_depth", Kind::kHistogram,
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
