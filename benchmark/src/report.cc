#include "report.h"

namespace qa::bench {

namespace {

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Reads a tracer's counters, and the seconds of its per-call boundaries
/// (by boundary name, e.g. "allocation.allocate_s"), as per-traced-rep
/// averages.
class PerRep {
 public:
  PerRep(const Tracer& tracer, int reps) : tracer_(tracer), reps_(reps) {}
  double operator()(const std::string& name) const {
    double total = tracer_.counter(name);
    if (name.ends_with("_s")) {
      total += tracer_.calls(name.substr(0, name.size() - 2)).seconds();
    }
    return Ratio(total, reps_);
  }

 private:
  const Tracer& tracer_;
  int reps_;
};

/// Time a grid's workers were busy or idle, on top of the rep's wall
/// time: (threads - 1) x grid wall. Zero for serial workloads.
double ExtraWorkerSeconds(const PerRep& c) {
  return c("exec.grid_capacity_s") - c("exec.grid_wall_s");
}

}  // namespace

const std::vector<MetricName>& EndToEndMetricNames() {
  static const std::vector<MetricName> names = {
      {"cpu_us_per_query", "us", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"sim_p50_ms", "ms", "lower"},
      {"sim_p99_ms", "ms", "lower"},
      {"completed_ratio", "fraction", "higher"},
  };
  return names;
}

const std::vector<MetricName>& PerLayerMetricNames() {
  static const std::vector<MetricName> names = {
      {"query.build_model_pct", "%", "lower"},
      {"workload.generate_pct", "%", "lower"},
      {"sim.capacity_estimate_pct", "%", "lower"},
      {"dbms.setup_pct", "%", "lower"},
      {"allocation.construct_pct", "%", "lower"},
      {"allocation.allocate_pct", "%", "lower"},
      {"allocation.period_hook_pct", "%", "lower"},
      {"sim.construct_pct", "%", "lower"},
      {"sim.self_pct", "%", "lower"},
      {"exec.overhead_pct", "%", "lower"},
      {"dbms.estimate_pct", "%", "lower"},
      {"dbms.execute_pct", "%", "lower"},
      {"unattributed_pct", "%", "lower"},
      {"trace_overhead_pct", "%", "lower"},
      {"allocation.allocate_per_query", "count", "lower"},
      {"allocation.accept_ratio", "fraction", "higher"},
      {"allocation.solicited_per_call", "count", "lower"},
      {"allocation.msgs_per_query", "count", "lower"},
      {"allocation.period_hook_calls", "count", "lower"},
      {"query.cost_calls", "count", "lower"},
      {"sim.events", "count", "lower"},
      {"sim.construct_rss_mb", "MB", "lower"},
      {"sim.run_rss_mb", "MB", "lower"},
      {"exec.parallel_for_calls", "count", "lower"},
      {"exec.parallel_efficiency", "fraction", "higher"},
      {"exec.grid_efficiency", "fraction", "higher"},
      {"exec.shard_speedup_vs_inline", "x", "higher"},
      {"dbms.estimate_calls", "count", "lower"},
      {"dbms.execute_calls", "count", "lower"},
  };
  return names;
}

std::vector<Metric> Reconciliation(const Tracer& tracer, int traced_reps) {
  PerRep c(tracer, traced_reps);
  double allocate = c("allocation.allocate_s");
  double hooks = c("allocation.period_hook_s");
  double overhead = c("exec.fork_join_overhead_s");
  double overhead_in_allocation = c("exec.overhead_in_allocation_s");
  return {
      {"allocation",
       c("allocation.construct_s") + allocate + hooks -
           overhead_in_allocation + c("allocation.teardown_s"),
       "s"},
      {"sim",
       c("sim.construct_s") + c("sim.run_s") - allocate - hooks -
           (overhead - overhead_in_allocation) + c("sim.teardown_s"),
       "s"},
      {"exec",
       overhead + c("exec.grid_capacity_s") - c("exec.cell_busy_s"), "s"},
      {"dbms", c("dbms.run_s") + c("dbms.estimate_s") + c("dbms.execute_s"),
       "s"},
      {"unattributed", c("unattributed_s"), "s"},
      {"total", c("rep_s") + ExtraWorkerSeconds(c), "s"},
  };
}

double SpanCoveragePct(const Tracer& tracer) {
  double rep = tracer.counter("rep_s");
  double uncovered =
      tracer.counter("unattributed_s") + tracer.counter("exec.grid_uncovered_s");
  return rep > 0.0 ? 100.0 * (1.0 - uncovered / rep) : 0.0;
}

std::vector<Metric> LayerMetrics(const Tracer& tracer, int traced_reps,
                                 const StepTimes& step_medians,
                                 double setup_median_s,
                                 double trace_overhead_pct) {
  PerRep c(tracer, traced_reps);
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    bool applies) {
    out.push_back({std::move(name), value, std::move(unit), applies});
  };

  for (const char* step : {"query.build_model", "workload.generate",
                           "sim.capacity_estimate", "dbms.setup"}) {
    auto it = step_medians.find(std::string(step) + "_s");
    double seconds = it != step_medians.end() ? it->second : 0.0;
    bool applies = it != step_medians.end();
    add(std::string(step) + "_s", seconds, "s", applies);
    add(std::string(step) + "_pct", 100.0 * Ratio(seconds, setup_median_s),
        "%", applies);
  }

  // Shares of the average traced rep (a grid counts every worker's time).
  double basis = c("rep_s") + ExtraWorkerSeconds(c);
  auto pct = [basis](double seconds) { return 100.0 * Ratio(seconds, basis); };
  double arrivals = c("arrivals");

  LogHistogram allocate = tracer.calls("allocation.allocate");
  LogHistogram hooks = tracer.calls("allocation.period_hook");
  double allocate_calls = Ratio(static_cast<double>(allocate.count()), traced_reps);
  bool allocation = allocate.count() > 0;
  add("allocation.construct_s", c("allocation.construct_s"), "s", allocation);
  add("allocation.construct_pct", pct(c("allocation.construct_s")), "%", allocation);
  add("allocation.allocate_calls", allocate_calls, "count", allocation);
  add("allocation.allocate_per_query", Ratio(allocate_calls, arrivals), "count",
      allocation);
  add("allocation.allocate_s", c("allocation.allocate_s"), "s", allocation);
  add("allocation.allocate_pct", pct(c("allocation.allocate_s")), "%", allocation);
  add("allocation.allocate_p50_ns", allocate.Percentile(50), "ns", allocation);
  add("allocation.allocate_p99_ns", allocate.Percentile(99), "ns", allocation);
  add("allocation.accept_ratio", Ratio(c("allocation.accepted"), allocate_calls),
      "fraction", allocation);
  add("allocation.solicited_per_call",
      Ratio(c("allocation.solicited"), allocate_calls), "count", allocation);
  add("allocation.msgs_per_query", Ratio(c("allocation.messages"), arrivals),
      "count", allocation);
  add("allocation.period_hook_calls",
      Ratio(static_cast<double>(hooks.count()), traced_reps), "count", allocation);
  add("allocation.period_hook_s", c("allocation.period_hook_s"), "s", allocation);
  add("allocation.period_hook_pct", pct(c("allocation.period_hook_s")), "%",
      allocation);
  add("allocation.period_hook_p99_ns", hooks.Percentile(99), "ns", allocation);

  add("query.cost_calls", c("query.cost_calls"), "count", allocation);

  bool sim = c("sim.run_s") > 0.0;
  bool serial_sim = sim && c("exec.grid_wall_s") == 0.0;
  double sim_self = c("sim.run_s") - c("allocation.allocate_s") -
                    c("allocation.period_hook_s");
  add("sim.construct_s", c("sim.construct_s"), "s", sim);
  add("sim.construct_pct", pct(c("sim.construct_s")), "%", sim);
  add("sim.construct_rss_mb", c("sim.construct_rss_mb"), "MB", serial_sim);
  add("sim.run_rss_mb", c("sim.run_rss_mb"), "MB", serial_sim);
  add("sim.run_s", c("sim.run_s"), "s", sim);
  add("sim.self_s", sim_self, "s", sim);
  add("sim.self_pct", pct(sim_self), "%", sim);
  add("sim.events", c("sim.events"), "count", sim);
  add("sim.ns_per_event", 1e9 * Ratio(sim_self, c("sim.events")), "ns", sim);

  bool fork_join = c("exec.parallel_for_calls") > 0.0;
  bool grid = c("exec.grid_wall_s") > 0.0;
  double exec_overhead = c("exec.fork_join_overhead_s") +
                         c("exec.grid_capacity_s") - c("exec.cell_busy_s");
  add("exec.overhead_pct", pct(exec_overhead), "%", fork_join || grid);
  add("exec.parallel_for_calls", c("exec.parallel_for_calls"), "count", fork_join);
  add("exec.tasks", c("exec.tasks"), "count", fork_join);
  add("exec.parallel_for_s", c("exec.parallel_for_s"), "s", fork_join);
  add("exec.task_busy_s", c("exec.task_busy_s"), "s", fork_join);
  add("exec.fork_join_overhead_s", c("exec.fork_join_overhead_s"), "s", fork_join);
  add("exec.parallel_efficiency",
      Ratio(c("exec.task_busy_s"), c("exec.capacity_s")), "fraction", fork_join);
  // Measured once per run, against one inline reference rep.
  add("exec.shard_speedup_vs_inline",
      tracer.counter("exec.shard_speedup_vs_inline"), "x",
      tracer.counter("exec.inline_rep_s") > 0.0);
  add("exec.grid_wall_s", c("exec.grid_wall_s"), "s", grid);
  add("exec.cell_busy_s", c("exec.cell_busy_s"), "s", grid);
  add("exec.grid_efficiency",
      Ratio(c("exec.cell_busy_s"), c("exec.grid_capacity_s")), "fraction", grid);
  add("exec.cell_max_s", c("exec.cell_max_s"), "s", grid);

  LogHistogram estimate = tracer.calls("dbms.estimate");
  LogHistogram execute = tracer.calls("dbms.execute");
  bool dbms = estimate.count() > 0;
  add("dbms.estimate_calls",
      Ratio(static_cast<double>(estimate.count()), traced_reps), "count", dbms);
  add("dbms.estimate_s", c("dbms.estimate_s"), "s", dbms);
  add("dbms.estimate_pct", pct(c("dbms.estimate_s")), "%", dbms);
  add("dbms.estimate_p50_us", estimate.Percentile(50) * 1e-3, "us", dbms);
  add("dbms.estimate_p99_us", estimate.Percentile(99) * 1e-3, "us", dbms);
  add("dbms.execute_calls",
      Ratio(static_cast<double>(execute.count()), traced_reps), "count", dbms);
  add("dbms.execute_s", c("dbms.execute_s"), "s", dbms);
  add("dbms.execute_pct", pct(c("dbms.execute_s")), "%", dbms);
  add("dbms.execute_p50_us", execute.Percentile(50) * 1e-3, "us", dbms);
  add("dbms.execute_p99_us", execute.Percentile(99) * 1e-3, "us", dbms);
  add("dbms.run_s", c("dbms.run_s"), "s", dbms);

  add("unattributed_pct", pct(c("unattributed_s")), "%", true);
  add("span_coverage_pct", SpanCoveragePct(tracer), "%", true);
  add("trace_overhead_pct", trace_overhead_pct, "%", true);
  return out;
}

}  // namespace qa::bench
