// qa_perf: wall-clock and market-health summary of a metrics JSONL file.
//
// Reads the sidecar stream produced by any bench's --metrics=FILE flag
// (see src/obs/SCHEMA.md) and reports where the run's wall time went and
// how healthy the market looked:
//
//   * a phase table: count / total / mean per instrumented phase
//     (lane drain, cross-shard merge, mediator dispatch, market tick,
//     allocate, QA-NT rollover + bid scan, snapshot) and each phase's
//     share of the measured run total;
//   * the per-node queue depth sampled at period fences: observations,
//     mean and max depth;
//   * per-lane drain time and the lane-imbalance factor (max/mean) for
//     sharded runs;
//   * final deterministic counters and market-health gauges, read from
//     the stream's last msample row;
//   * the watchdog alarm table (price oscillation, starvation,
//     non-convergence, overload), when any alarm latched.
//
// All parsing goes through obs::metrics::ParsedMetrics — the same reader
// the tests use — so anything this tool prints is schema-checked. A
// stream without any msample row (no run attached to the collector) is
// an error: exit 1.
//
// Usage:
//   qa_perf METRICS.jsonl [--csv]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics/catalog.h"
#include "obs/metrics/metrics_reader.h"
#include "util/table_writer.h"
#include "util/vtime.h"

namespace qa {
namespace {

struct Options {
  std::string metrics_path;
  bool csv = false;
};

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " METRICS.jsonl [--csv]\n";
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--csv") {
      opts->csv = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    } else if (opts->metrics_path.empty()) {
      opts->metrics_path = arg;
    } else {
      std::cerr << "extra positional argument: " << arg << "\n";
      return false;
    }
  }
  return !opts->metrics_path.empty();
}

void Emit(const util::TableWriter& table, bool csv) {
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "\n";
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

int Run(const Options& opts) {
  using obs::metrics::ParsedMetrics;
  util::StatusOr<ParsedMetrics> loaded =
      ParsedMetrics::Load(opts.metrics_path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status() << "\n";
    return 1;
  }
  const ParsedMetrics& metrics = loaded.value();
  if (metrics.samples.empty()) {
    std::cerr << "error: " << opts.metrics_path
              << " holds no msample row: no run was metered\n";
    return 1;
  }

  // ---- Header: what this run was.
  std::cout << "metrics: " << opts.metrics_path << "\n";
  if (!metrics.meta.is_null()) {
    std::cout << "mechanism: " << metrics.meta.GetString("mechanism", "?")
              << "  nodes: " << metrics.meta.GetInt("nodes", 0)
              << "  shards: " << metrics.meta.GetInt("shards", 1)
              << "  threads: " << metrics.meta.GetInt("threads", 1)
              << "  seed: " << metrics.meta.GetInt("seed", 0) << "\n";
  }
  std::cout << metrics.samples.size() << " sample(s), "
            << metrics.alarms.size() << " alarm(s), " << metrics.stats.size()
            << " final stat(s)\n\n";

  // ---- Phase wall-time table, in catalog order, with share of run total.
  using obs::metrics::MetricStat;
  const MetricStat* run_total = metrics.FindStat("qa_phase_run_total_ns");
  double total_ns =
      run_total != nullptr ? static_cast<double>(run_total->sum) : 0.0;
  util::TableWriter phase_table(
      {"Phase", "Count", "Total (ms)", "Mean (us)", "% of run"});
  bool any_phase = false;
  for (int id = obs::metrics::kPhaseRunTotal;
       id <= obs::metrics::kPhaseMediatorDispatch; ++id) {
    const std::string name(
        obs::metrics::Catalog()[static_cast<size_t>(id)].name);
    const MetricStat* stat = metrics.FindStat(name);
    if (stat == nullptr || stat->count == 0) continue;
    any_phase = true;
    double ns = static_cast<double>(stat->sum);
    phase_table.BeginRow();
    phase_table.AddCell(name);
    phase_table.AddCell(static_cast<int64_t>(stat->count));
    phase_table.AddCell(Fmt(ns * 1e-6));
    phase_table.AddCell(
        Fmt(ns * 1e-3 / static_cast<double>(stat->count)));
    phase_table.AddCell(total_ns > 0.0 ? Fmt(100.0 * ns / total_ns)
                                       : std::string("-"));
  }
  if (any_phase) {
    Emit(phase_table, opts.csv);
  } else {
    std::cout << "no phase timings recorded (no final mstat block)\n\n";
  }

  // ---- Queue depth: a count observed at period fences, not a duration.
  const MetricStat* depth = metrics.FindStat("qa_node_queue_depth");
  if (depth != nullptr && depth->count > 0) {
    util::TableWriter depth_table(
        {"Metric", "Observations", "Mean depth", "Max depth"});
    depth_table.AddRow(depth->name, static_cast<int64_t>(depth->count),
                       Fmt(static_cast<double>(depth->sum) /
                           static_cast<double>(depth->count)),
                       depth->max);
    Emit(depth_table, opts.csv);
  }

  // ---- Per-lane drain (sharded runs).
  if (metrics.lane_drain_ns.size() > 1) {
    util::TableWriter lane_table({"Lane", "Drain (ms)", "Events"});
    int64_t max_ns = 0, sum_ns = 0;
    for (size_t lane = 0; lane < metrics.lane_drain_ns.size(); ++lane) {
      int64_t ns = metrics.lane_drain_ns[lane];
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
      lane_table.AddRow(static_cast<int64_t>(lane),
                        Fmt(static_cast<double>(ns) * 1e-6),
                        lane < metrics.lane_events.size()
                            ? metrics.lane_events[lane]
                            : 0);
    }
    Emit(lane_table, opts.csv);
    double mean_ns = static_cast<double>(sum_ns) /
                     static_cast<double>(metrics.lane_drain_ns.size());
    if (mean_ns > 0.0) {
      std::cout << "lane imbalance (max/mean drain): "
                << Fmt(static_cast<double>(max_ns) / mean_ns) << "\n\n";
    }
  }

  // ---- Final deterministic counters and market-health gauges: the last
  // msample row is the run's final count (SimMetrics rendered at exit).
  const obs::Json& last = metrics.samples.back();
  std::cout << "final sample: period " << last.GetInt("period") << " at "
            << last.GetInt("t_us") / util::kMillisecond << " ms\n";
  util::TableWriter stat_table({"Field", "Value"});
  for (const auto& [field, value] : last.object()) {
    if (field == "type" || field == "t_us" || field == "period") continue;
    stat_table.AddRow(field, value.is_int() ? std::to_string(value.AsInt())
                                            : Fmt(value.AsDouble()));
  }
  Emit(stat_table, opts.csv);

  // ---- Watchdog alarms.
  if (!metrics.alarms.empty()) {
    std::cout << "alarms: " << metrics.alarms.size()
              << " watchdog alarm(s)\n";
    util::TableWriter alarm_table({"Watchdog", "Class", "t (ms)", "Period",
                                   "Value", "Threshold", "Detail"});
    for (const obs::metrics::AlarmRecord& alarm : metrics.alarms) {
      alarm_table.BeginRow();
      alarm_table.AddCell(alarm.watchdog);
      alarm_table.AddCell(alarm.class_id >= 0
                              ? std::to_string(alarm.class_id)
                              : std::string("-"));
      alarm_table.AddCell(alarm.t_us / util::kMillisecond);
      alarm_table.AddCell(alarm.period);
      alarm_table.AddCell(Fmt(alarm.value));
      alarm_table.AddCell(Fmt(alarm.threshold));
      alarm_table.AddCell(alarm.detail);
    }
    Emit(alarm_table, opts.csv);
  } else {
    std::cout << "alarms: none — no watchdog tripped\n";
  }
  return 0;
}

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  qa::Options opts;
  if (!qa::ParseArgs(argc, argv, &opts)) {
    qa::Usage(argv[0]);
    return 2;
  }
  return qa::Run(opts);
}
