// qa_benchmark: runs one benchmark workload and prints its metrics, with
// the result line (one JSON object) last. Usage: see kUsage, or
// benchmark/README.md for the workloads and what each metric means.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "gate.h"
#include "obs/json.h"
#include "provenance.h"
#include "report.h"
#include "stats.h"
#include "tracer.h"
#include "util/mathutil.h"
#include "util/monotonic_clock.h"
#include "workloads.h"

namespace {

using namespace qa;
using namespace qa::bench;
using util::MonotonicClock;

constexpr const char* kUsage =
    "usage: qa_benchmark --workload NAME [--seed S] [--seconds N] "
    "[--trace 0|1 | --traced] [--smoke]\n"
    "workloads: paper100 fig4grid sharded10k hier1m surge10x minidb5\n";

/// A run sets up at least kMinSetUps times and until kSetUpSeconds have
/// passed (at most kMaxSetUps times); setup_s is the median. A run takes
/// at least kMinReps timed reps, however short --seconds is.
constexpr int kMinSetUps = 3;
constexpr int kMaxSetUps = 50;
constexpr double kSetUpSeconds = 1.0;
constexpr int kMinReps = 3;

/// Printed and recorded with the end-to-end metrics, but not in the result
/// line: on a shared VM the hypervisor's steal time swings a rep's wall
/// time far more than CPU time (see README).
const MetricName kWallQps = {"sim_qps", "queries/s", "higher"};

/// The directory holding this binary: build-benchmark/, where
/// compile_commands.json lives and results/ goes.
std::string BuildDir() {
  std::error_code error;
  std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", error);
  return error ? std::string(".") : exe.parent_path().string();
}

double Median(const std::vector<double>& values) {
  return ComputeQuartiles(values).median;
}

obs::Json QuartilesJson(const std::vector<double>& values) {
  Quartiles q = ComputeQuartiles(values);
  obs::Json json = obs::Json::MakeObject();
  json.Set("median", q.median);
  json.Set("q1", q.q1);
  json.Set("q3", q.q3);
  json.Set("n", static_cast<int64_t>(q.n));
  return json;
}

void PrintRow(const std::string& name, double value, const std::string& unit,
              const std::vector<double>* samples = nullptr) {
  std::printf("  %-34s %16.6g %-10s", name.c_str(), value, unit.c_str());
  if (samples != nullptr) {
    Quartiles q = ComputeQuartiles(*samples);
    std::printf(" q1 %.6g  q3 %.6g  n=%zu", q.q1, q.q3, q.n);
  }
  std::printf("\n");
}

/// Writes `record` as one line to `path`, appending or replacing it.
void WriteLine(const std::filesystem::path& path, const obs::Json& record,
               std::ios::openmode mode) {
  std::error_code error;
  std::filesystem::create_directories(path.parent_path(), error);
  std::ofstream out(path, mode);
  out << record.Dump() << "\n";
  if (!out) std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

class Run {
 public:
  Run(const Options& options, std::unique_ptr<Workload> workload)
      : options_(options),
        workload_(std::move(workload)),
        build_dir_(BuildDir()),
        provenance_(build_dir_) {}

  int Execute() {
    std::printf("== %s (seed %llu%s%s)\n%s\n", options_.workload.c_str(),
                static_cast<unsigned long long>(options_.seed),
                options_.traced ? ", traced" : "",
                options_.smoke ? ", smoke" : "", workload_->Describe().c_str());
    std::fflush(stdout);
    SetUpAll();
    if (!options_.smoke) {
      reference_ = Summarize(workload_->Rep());  // warm-up, untimed
      Check("warm-up rep", *reference_);
    }
    MeasureReps();
    for (std::string& violation :
         workload_->ExtraChecks(*reference_, Median(wall_s_), &tracer_)) {
      violations_.push_back(std::move(violation));
    }
    return Report();
  }

 private:
  void SetUpAll() {
    int64_t start = MonotonicClock::NowNanos();
    for (int i = 0;; ++i) {
      bool done = options_.smoke
                      ? i == 1
                      : i >= kMaxSetUps ||
                            (i >= kMinSetUps &&
                             MonotonicClock::SecondsSince(start) >= kSetUpSeconds);
      if (done) break;
      StepTimes steps;
      int span = tracer_.Open(Layer::kBench, "setup", -1, i);
      workload_->SetUp({&tracer_, span, &steps});
      tracer_.Close(span);
      setup_s_.push_back(tracer_.span(span).seconds());
      for (const auto& [name, seconds] : steps) step_s_[name].push_back(seconds);
    }
  }

  /// Timed reps until --seconds have passed (and at least kMinReps, or one
  /// untraced/traced pair in the traced pass).
  void MeasureReps() {
    size_t min_reps = options_.smoke || options_.traced ? 1 : kMinReps;
    int64_t start = MonotonicClock::NowNanos();
    while (wall_s_.size() < min_reps ||
           (!options_.smoke &&
            MonotonicClock::SecondsSince(start) < options_.seconds)) {
      int64_t cpu_start = MonotonicClock::ProcessCpuNanos();
      int64_t wall_start = MonotonicClock::NowNanos();
      RepRuns runs = workload_->Rep();
      double wall = MonotonicClock::SecondsSince(wall_start);
      double cpu = static_cast<double>(MonotonicClock::ProcessCpuNanos() -
                                       cpu_start) * 1e-9;
      Outcome outcome = Summarize(runs);
      Account("timed rep " + std::to_string(wall_s_.size() + 1), outcome);
      wall_s_.push_back(wall);
      cpu_s_.push_back(cpu);
      arrivals_.push_back(static_cast<double>(outcome.arrivals));
      if (!reference_) reference_ = std::move(outcome);
      if (options_.traced || options_.smoke) {
        TracedOutcome traced = workload_->TracedRep(&tracer_);
        Account("traced rep " + std::to_string(traced_s_.size() + 1),
                Summarize(traced.runs));
        traced_s_.push_back(traced.comparable_s);
      }
    }
  }

  void Account(const std::string& what, const Outcome& outcome) {
    attempted_ += outcome.arrivals;
    if (!Check(what, outcome)) failed_ += outcome.arrivals;
  }

  /// The correctness gate for one rep: accounting identities, and equality
  /// with the first rep's modeled metrics.
  bool Check(const std::string& what, const Outcome& outcome) {
    size_t before = violations_.size();
    for (const std::string& violation : outcome.violations) {
      violations_.push_back(what + ": " + violation);
    }
    if (reference_ && outcome.fingerprint != reference_->fingerprint) {
      violations_.push_back(what + ": modeled metrics differ from the first rep");
    }
    return violations_.size() == before;
  }

  /// Simulated arrivals per wall second of each timed rep.
  std::vector<double> QueriesPerSecond() const {
    std::vector<double> qps;
    for (size_t i = 0; i < wall_s_.size(); ++i) {
      qps.push_back(arrivals_[i] / wall_s_[i]);
    }
    return qps;
  }

  /// Process CPU microseconds (all threads) per arrival of each timed rep.
  std::vector<double> CpuMicrosPerQuery() const {
    std::vector<double> cpu_us;
    for (size_t i = 0; i < cpu_s_.size(); ++i) {
      cpu_us.push_back(cpu_s_[i] * 1e6 / std::max(arrivals_[i], 1.0));
    }
    return cpu_us;
  }

  /// kWallQps, then EndToEndMetricNames() in order.
  std::vector<Metric> EndToEnd() const {
    const Outcome& out = *reference_;
    return {
        {kWallQps.name, Median(QueriesPerSecond()), kWallQps.unit},
        {"cpu_us_per_query", Median(CpuMicrosPerQuery()), "us"},
        {"setup_s", Median(setup_s_), "s"},
        {"peak_rss_mb", PeakResidentMb(), "MB"},
        {"sim_p50_ms", util::Percentile(out.response_ms, 50), "ms"},
        {"sim_p99_ms", util::Percentile(out.response_ms, 99), "ms"},
        {"completed_ratio",
         static_cast<double>(out.completed) /
             static_cast<double>(std::max<int64_t>(out.arrivals, 1)),
         "fraction"},
    };
  }

  std::vector<Metric> PerLayer() const {
    StepTimes medians;
    for (const auto& [name, seconds] : step_s_) medians[name] = Median(seconds);
    double untraced = Median(wall_s_);
    double overhead =
        untraced > 0.0 ? 100.0 * (Median(traced_s_) / untraced - 1.0) : 0.0;
    return LayerMetrics(tracer_, static_cast<int>(traced_s_.size()), medians,
                        Median(setup_s_), overhead);
  }

  void PrintEndToEnd(const std::vector<Metric>& metrics) const {
    std::vector<double> qps = QueriesPerSecond();
    std::vector<double> cpu_us = CpuMicrosPerQuery();
    std::printf("set-up: %zu, timed reps: %zu%s, arrivals per rep: %lld\n",
                setup_s_.size(), wall_s_.size(),
                options_.smoke ? "" : " after 1 warm-up",
                static_cast<long long>(reference_->arrivals));
    for (const Metric& m : metrics) {
      const std::vector<double>* samples = nullptr;
      if (m.name == "sim_qps") samples = &qps;
      if (m.name == "cpu_us_per_query") samples = &cpu_us;
      if (m.name == "setup_s") samples = &setup_s_;
      PrintRow(m.name, m.value, m.unit, samples);
    }
    for (const auto& [name, seconds] : step_s_) {
      PrintRow("  " + name, Median(seconds), "s", &seconds);
    }
    const Outcome& out = *reference_;
    std::printf("completions %lld (%lld samples beyond p99), failed_ratio %.6g, "
                "msgs_per_query %.6g\n",
                static_cast<long long>(out.completed),
                static_cast<long long>(SamplesBeyondPercentile(out.response_ms, 99)),
                static_cast<double>(out.dropped) /
                    static_cast<double>(std::max<int64_t>(out.arrivals, 1)),
                static_cast<double>(out.messages) /
                    static_cast<double>(std::max<int64_t>(out.arrivals, 1)));
    std::printf("sim_digest %s\n", DigestHex(out.digest()).c_str());
  }

  void PrintPerLayer(const std::vector<Metric>& metrics) const {
    std::printf("per-layer (%zu traced reps):\n", traced_s_.size());
    for (const Metric& m : metrics) {
      if (m.applies) PrintRow(m.name, m.value, m.unit);
    }
    std::vector<Metric> rows =
        Reconciliation(tracer_, static_cast<int>(traced_s_.size()));
    double total = rows.back().value;
    std::printf("reconciliation of the average traced rep (self s, share):\n");
    for (const Metric& row : rows) {
      std::printf("  %-14s %12.6f s %7.2f%%\n", row.name.c_str(), row.value,
                  total > 0.0 ? 100.0 * row.value / total : 0.0);
    }
  }

  /// `names` with their computed values; the result line carries value
  /// and unit only, result records also the better direction.
  static obs::Json MetricsJson(const std::vector<Metric>& computed,
                               const std::vector<MetricName>& names,
                               bool with_direction = false) {
    obs::Json json = obs::Json::MakeObject();
    for (const MetricName& name : names) {
      double value = 0.0;
      for (const Metric& m : computed) {
        if (m.name == name.name) value = m.value;
      }
      obs::Json entry = obs::Json::MakeObject();
      entry.Set("value", value);
      entry.Set("unit", name.unit);
      if (with_direction) entry.Set("better", name.better);
      json.Set(name.name, std::move(entry));
    }
    return json;
  }

  int Report() {
    std::vector<Metric> end_to_end = EndToEnd();
    PrintEndToEnd(end_to_end);
    std::vector<Metric> per_layer;
    if (!traced_s_.empty()) {
      per_layer = PerLayer();
      PrintPerLayer(per_layer);
    }
    bool correct = violations_.empty();
    for (const std::string& violation : violations_) {
      std::printf("GATE FAILED: %s\n", violation.c_str());
    }
    std::printf("gate: %s\n", correct ? "OK" : "FAILED");

    obs::Json record = obs::Json::MakeObject();
    record.Set("header", provenance_.Header());
    record.Set("workload", options_.workload);
    record.Set("seed", options_.seed);
    record.Set("smoke", options_.smoke);
    record.Set("correct", correct);
    record.Set("sim_digest", DigestHex(reference_->digest()));
    std::vector<MetricName> recorded = EndToEndMetricNames();
    recorded.insert(recorded.begin(), kWallQps);
    record.Set("metrics", MetricsJson(end_to_end, recorded, true));
    record.Set("wall_s", QuartilesJson(wall_s_));
    record.Set("setup_s", QuartilesJson(setup_s_));
    std::filesystem::path results = std::filesystem::path(build_dir_) / "results";
    if (options_.traced) {
      obs::Json layers = obs::Json::MakeObject();
      for (const Metric& m : per_layer) {
        if (m.applies) layers.Set(m.name, m.value);
      }
      record.Set("per_layer", std::move(layers));
      record.Set("trace", tracer_.ToJson());
      WriteLine(results / (options_.workload + ".trace.json"), record,
                std::ios::trunc);
    } else if (!options_.smoke) {
      WriteLine(results / (options_.workload + ".jsonl"), record,
                std::ios::app);
    }

    obs::Json line = obs::Json::MakeObject();
    line.Set("correct", correct);
    line.Set("attempted", attempted_);
    line.Set("failed", failed_);
    line.Set("metrics", options_.traced
                            ? MetricsJson(per_layer, PerLayerMetricNames())
                            : MetricsJson(end_to_end, EndToEndMetricNames()));
    std::printf("%s\n", line.Dump().c_str());
    return correct ? 0 : 1;
  }

  Options options_;
  std::unique_ptr<Workload> workload_;
  std::string build_dir_;
  Provenance provenance_;
  Tracer tracer_;
  std::vector<std::string> violations_;
  std::optional<Outcome> reference_;
  std::vector<double> setup_s_;
  std::map<std::string, std::vector<double>> step_s_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
  std::vector<double> arrivals_;
  std::vector<double> traced_s_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::StatusOr<Options> parsed =
      ParseOptions(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok()) {
    std::fprintf(stderr, "qa_benchmark: %s\n%s", parsed.status().message().c_str(),
                 kUsage);
    return 2;
  }
  const Options& options = *parsed;
  std::unique_ptr<Workload> workload = MakeWorkload(
      options.workload, options.seed, options.smoke, std::min(4, Nproc()));
  if (workload == nullptr) {
    std::fprintf(stderr, "qa_benchmark: unknown workload '%s'\n%s",
                 options.workload.c_str(), kUsage);
    return 2;
  }
  return Run(options, std::move(workload)).Execute();
}
