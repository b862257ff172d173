#ifndef QAMARKET_OBS_METRICS_METRICS_READER_H_
#define QAMARKET_OBS_METRICS_METRICS_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics/watchdog.h"
#include "util/status.h"

namespace qa::obs::metrics {

/// One trailing per-histogram stat from the `mstat` block.
struct MetricStat {
  std::string name;
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// A parsed metrics JSONL stream (the Collector's sink format). The tools
/// (qa_perf, qa_trace --alarms) and tests read through this, so the writer
/// and readers cannot drift apart silently.
struct ParsedMetrics {
  Json meta;  // the mmeta line (null when absent)
  std::vector<Json> samples;  // msample rows; the last holds final counts
  std::vector<AlarmRecord> alarms;
  std::vector<MetricStat> stats;
  std::vector<int64_t> lane_drain_ns;
  std::vector<int64_t> lane_events;

  const MetricStat* FindStat(const std::string& name) const;

  /// Parses a metrics file; unknown record types are an error (catching
  /// schema drift beats skipping it).
  static util::StatusOr<ParsedMetrics> Load(const std::string& path);
  static util::StatusOr<ParsedMetrics> Parse(const std::string& text);
};

}  // namespace qa::obs::metrics

#endif  // QAMARKET_OBS_METRICS_METRICS_READER_H_
