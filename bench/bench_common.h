#ifndef QAMARKET_BENCH_BENCH_COMMON_H_
#define QAMARKET_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "allocation/factory.h"
#include "exec/experiment_runner.h"
#include "obs/metrics/collector.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "sim/federation.h"
#include "sim/metrics_json.h"
#include "sim/scenario.h"
#include "util/table_writer.h"
#include "workload/sinusoid.h"

namespace qa::bench {

/// The flags every experiment binary shares, parsed in one place instead
/// of ad-hoc per-binary argv scans:
///   --quick        smaller grids/workloads for smoke runs
///   --threads=N    experiment-runner parallelism (N<1 = all hardware
///                  threads; 1 reproduces the serial behavior exactly)
///   --shards=N     simulator-core shard count for benches that run the
///                  sharded federation (0 = the bench's own default sweep;
///                  results are byte-identical at every count)
///   --seed=S       master RNG seed
///   --trace=FILE   stream a JSONL telemetry trace of the binary's traced
///                  run into FILE (analyze with tools/qa_trace)
///   --report=FILE  write a structured JSON run report (SimMetrics per run)
///   --metrics=FILE stream a JSONL metrics timeseries (per-period samples,
///                  watchdog alarms, phase wall-time stats) of the same
///                  run into FILE (analyze with tools/qa_perf)
/// Parsing is strict: an unknown flag, a number that does not parse in
/// full, or an empty value prints the usage line and exits with status 2,
/// so a mistyped flag never silently runs the defaults.
struct BenchArgs {
  bool quick = false;
  int threads = 0;  // 0 => hardware_concurrency
  int shards = 0;   // 0 => bench-defined sweep
  uint64_t seed = 42;
  std::string trace_path;
  std::string report_path;
  std::string metrics_path;

  static BenchArgs Parse(int argc, char** argv, uint64_t default_seed = 42) {
    BenchArgs args;
    args.seed = default_seed;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      std::string_view value;
      bool ok = true;
      if (arg == "--quick") {
        args.quick = true;
      } else if (Value(arg, "--threads=", &value)) {
        ok = Number(value, &args.threads);
      } else if (Value(arg, "--shards=", &value)) {
        ok = Number(value, &args.shards);
      } else if (Value(arg, "--seed=", &value)) {
        ok = Number(value, &args.seed);
      } else if (Value(arg, "--trace=", &value)) {
        args.trace_path = value;
      } else if (Value(arg, "--report=", &value)) {
        args.report_path = value;
      } else if (Value(arg, "--metrics=", &value)) {
        args.metrics_path = value;
      } else {
        ok = false;
      }
      if (!ok) {
        std::cerr << "error: bad flag '" << arg << "'\nusage: " << argv[0]
                  << " [--quick] [--threads=N] [--shards=N] [--seed=S] "
                     "[--trace=FILE] [--report=FILE] [--metrics=FILE]\n";
        std::exit(2);
      }
    }
    return args;
  }

  /// The runner this invocation asked for.
  exec::ExperimentRunner MakeRunner() const {
    return exec::ExperimentRunner(threads);
  }

 private:
  /// True when `arg` is `prefix` followed by a non-empty value, stored in
  /// `value`.
  static bool Value(std::string_view arg, std::string_view prefix,
                    std::string_view* value) {
    if (arg.size() <= prefix.size() ||
        arg.substr(0, prefix.size()) != prefix) {
      return false;
    }
    *value = arg.substr(prefix.size());
    return true;
  }

  /// Parses all of `text` as a base-10 number; false on any leftover or
  /// out-of-range input.
  template <typename T>
  static bool Number(std::string_view text, T* out) {
    const char* end = text.data() + text.size();
    std::from_chars_result result = std::from_chars(text.data(), end, *out);
    return result.ec == std::errc() && result.ptr == end;
  }
};

/// The telemetry outputs of one experiment binary: the optional JSONL
/// trace recorder (--trace), the optional metrics collector (--metrics)
/// and the optional JSON run report (--report). Construct it once near
/// the top of main(); it writes everything out on destruction. With no
/// flag set every call is a cheap no-op.
class Telemetry {
 public:
  Telemetry(const BenchArgs& args, const std::string& bench_name)
      : report_path_(args.report_path), report_(bench_name) {
    report_.SetField("seed", static_cast<int64_t>(args.seed));
    if (!args.trace_path.empty()) {
      util::StatusOr<std::unique_ptr<obs::Recorder>> opened =
          obs::Recorder::OpenFile(args.trace_path);
      if (opened.ok()) {
        recorder_ = std::move(opened).value();
      } else {
        std::cerr << "warning: --trace: " << opened.status()
                  << "; tracing disabled\n";
      }
    }
    if (!args.metrics_path.empty()) {
      util::StatusOr<std::unique_ptr<obs::metrics::Collector>> opened =
          obs::metrics::Collector::OpenFile(args.metrics_path);
      if (opened.ok()) {
        collector_ = std::move(opened).value();
      } else {
        std::cerr << "warning: --metrics: " << opened.status()
                  << "; metrics disabled\n";
      }
    }
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  ~Telemetry() {
    if (recorder_ != nullptr) recorder_->Finish();
    if (collector_ != nullptr) {
      collector_->Finish();
      // Embed the phase/lane wall-time summary in the run report.
      has_fields_ = true;
      report_.SetField("perf", collector_->PerfJson());
    }
    // Write when the bench reported anything at all — labeled runs OR
    // top-level fields. Benches that key per-cell rows by field name
    // (bench_scale_nodes, bench_shard_scale) never call Add, and gating on
    // runs alone silently discarded their --report output.
    if (!report_path_.empty() && (!report_.empty() || has_fields_)) {
      util::Status status = report_.WriteFile(report_path_);
      if (!status.ok()) {
        std::cerr << "warning: --report: " << status << "\n";
      }
    }
  }

  /// Null when --trace was not given (probes compile to one branch).
  obs::Recorder* recorder() { return recorder_.get(); }

  /// Null when --metrics was not given.
  obs::metrics::Collector* collector() { return collector_.get(); }

  /// Attaches the trace recorder and the metrics collector to `spec`, so
  /// --trace and --metrics describe the same run. Both sinks are
  /// single-writer: attach them to exactly one spec per binary (benches
  /// pick their QA-NT run) so parallel grid execution stays race-free.
  void Attach(exec::RunSpec& spec) {
    spec.config.recorder = recorder_.get();
    spec.config.metrics = collector_.get();
  }

  /// Adds one labeled SimMetrics row to the run report.
  void Report(const std::string& label, const sim::SimMetrics& metrics) {
    report_.Add(label, sim::MetricsToJson(metrics));
  }

  /// Top-level report extras (capacity estimates, grid shape...) — also
  /// how the sweep benches key their per-cell rows.
  void ReportField(const std::string& key, obs::Json value) {
    has_fields_ = true;
    report_.SetField(key, std::move(value));
  }

 private:
  std::string report_path_;
  obs::RunReport report_;
  bool has_fields_ = false;
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::metrics::Collector> collector_;
};

/// Builds the standard grid cell shared by the figure benches.
inline exec::RunSpec MakeSpec(const query::CostModel& cost_model,
                              const std::string& mechanism,
                              const workload::Trace& trace,
                              util::VDuration period, uint64_t seed,
                              int max_retries = 5000) {
  exec::RunSpec spec;
  spec.cost_model = &cost_model;
  spec.mechanism = mechanism;
  spec.trace = &trace;
  spec.period = period;
  spec.seed = seed;
  spec.config.max_retries = max_retries;
  return spec;
}

/// Runs one mechanism over one trace on one cost model and returns the
/// metrics. Every experiment binary funnels through this (or through
/// exec::ExperimentRunner, which uses the same RunSpecOnce path) so
/// mechanisms are compared under identical conditions. Aborts on an
/// unknown mechanism name.
inline sim::SimMetrics RunMechanism(const query::CostModel& cost_model,
                                    const std::string& mechanism,
                                    const workload::Trace& trace,
                                    util::VDuration period, uint64_t seed,
                                    int max_retries = 5000) {
  return exec::RunSpecOnce(
             MakeSpec(cost_model, mechanism, trace, period, seed,
                      max_retries))
      .metrics;
}

/// Prints the experiment banner: id, description, seed.
inline void Banner(const std::string& experiment,
                   const std::string& description, uint64_t seed) {
  std::cout << "==================================================\n"
            << experiment << ": " << description << "\n"
            << "(seed=" << seed << ", deterministic)\n"
            << "==================================================\n";
}

}  // namespace qa::bench

#endif  // QAMARKET_BENCH_BENCH_COMMON_H_
