#ifndef QAMARKET_SIM_METRICS_H_
#define QAMARKET_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "stats/series.h"
#include "stats/summary.h"
#include "util/status.h"
#include "util/vtime.h"

namespace qa::sim {

/// Everything a federation run measures.
struct SimMetrics {
  /// Response time (ms) per completed query: completion - first arrival.
  stats::Summary response_time_ms;
  /// Completion events: one sample per finished query, value = class id
  /// (the per-class completion counts and curves are read off it).
  stats::TimeSeries completions;
  /// Queries that entered the system. Under arrival-rate surges this is
  /// not the configured trace length: surge windows clone (or thin)
  /// scheduled arrivals, so conservation checks must use this counter,
  /// never the input trace size. Invariant: arrivals == completed + dropped.
  int64_t arrivals = 0;
  /// Queries abandoned: retry budget exhausted, or the client's response
  /// deadline passed (`expired` counts the latter subset).
  int64_t dropped = 0;
  /// Queries dropped by overload protection — a bounded node queue, the
  /// bounded mediator retry backlog, or the admission gate (subset of
  /// `dropped`).
  int64_t shed = 0;
  /// Queries turned away by the admission controller specifically (subset
  /// of `shed`).
  int64_t admission_rejects = 0;
  /// Queries abandoned because FederationConfig::query_deadline passed
  /// before a usable answer arrived (subset of `dropped`).
  int64_t expired = 0;
  /// Total re-submissions (QA-NT's "ask again next period").
  int64_t retries = 0;
  /// Drops broken down by query class (index = class id; sized to the
  /// model's class count, like retries_per_class).
  std::vector<int64_t> dropped_per_class;
  /// Re-submissions broken down by query class (index = class id).
  std::vector<int64_t> retries_per_class;
  /// Assignments that bounced off an unreachable node (failure injection).
  int64_t bounced = 0;
  /// Queries lost in flight or wiped by a node crash (failure injection);
  /// every lost query is resubmitted, so conservation still holds:
  /// arrivals == completed + dropped.
  int64_t lost = 0;
  /// Total network messages spent on allocation decisions.
  int64_t messages = 0;
  /// Hierarchical runs: total cluster sub-mediators solicited by the top
  /// tier across all allocation attempts (0 under the flat market).
  int64_t clusters_solicited = 0;
  /// Total nodes solicited for offers across all allocation attempts (the
  /// accumulated fanout; 0 for mechanisms that do not negotiate).
  int64_t solicited = 0;
  /// Simulator events dispatched over the run (arrivals, deliveries,
  /// completions, market ticks, faults) — the denominator of the
  /// events/sec wall-clock rate the scale bench reports.
  int64_t events_dispatched = 0;
  /// Queries assigned to some node.
  int64_t assigned = 0;
  /// Queries completed.
  int64_t completed = 0;
  /// Sum of per-node busy time (for utilization accounting).
  util::VDuration total_busy_time = 0;
  /// Virtual time when the last event ran.
  util::VTime end_time = 0;
  /// Per-node time at which each node was last idle (index = node id),
  /// for the overload-duration analysis of Fig. 1.
  std::vector<util::VTime> node_last_idle;
  /// Per-node completed-query counts.
  std::vector<int64_t> node_completed;

  /// Queries of the run that have neither completed nor been dropped.
  /// `arrivals` holds the whole schedule from Run's start, so mid-run this
  /// counts the queries still to arrive as well as those in the system;
  /// it reaches 0 only when the run is over.
  int64_t Unfinished() const { return arrivals - completed - dropped; }
  /// Mean response time in ms (0 if nothing completed).
  double MeanResponseMs() const { return response_time_ms.Mean(); }
  /// Completed queries per second of virtual time.
  double ThroughputQps() const {
    return end_time > 0 ? static_cast<double>(completed) /
                              util::ToSeconds(end_time)
                        : 0.0;
  }
};

/// Checks a finished run's accounting identities in O(classes):
/// arrivals == completed + dropped; admission_rejects <= shed <= dropped
/// and expired <= dropped; the per-class drops and retries sum to their
/// totals; completed == response-time samples == completion events.
/// Returns an Internal error naming the first identity that fails.
/// Federation::Run checks every run with it before returning.
util::Status ValidateAccounting(const SimMetrics& metrics);

}  // namespace qa::sim

#endif  // QAMARKET_SIM_METRICS_H_
