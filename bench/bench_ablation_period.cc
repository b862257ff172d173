// Ablation (DESIGN.md §6.1): the market period length T. The paper states
// that larger T helps static loads but hurts flexibility under dynamic
// ones (they used T = 500 ms). We sweep T under (a) a static Poisson load
// and (b) a 0.2 Hz sinusoid, reporting QA-NT's mean response time.

#include <iostream>

#include "bench/bench_common.h"
#include "workload/poisson.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  using util::kSecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Ablation: period T",
                "QA-NT under static vs dynamic load while T varies", seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 20 : 50;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0},
                                             500 * kMillisecond);

  // Static load: Poisson at 85% capacity with the same 2:1 mix.
  workload::PoissonWorkloadConfig static_wl;
  static_wl.num_queries = quick ? 800 : 3000;
  static_wl.mean_interarrival =
      static_cast<util::VDuration>(1.0 / (0.85 * capacity) * util::kSecond);
  static_wl.classes = {0, 0, 1};  // 2:1 mix
  static_wl.num_origin_nodes = scenario.num_nodes;
  util::Rng rng_s(seed + 1);
  workload::Trace static_trace =
      workload::GeneratePoissonWorkload(static_wl, rng_s);

  // Dynamic load: fast sinusoid at 85% average capacity.
  workload::SinusoidConfig dynamic_wl;
  dynamic_wl.frequency_hz = 0.2;
  dynamic_wl.duration = (quick ? 20 : 40) * kSecond;
  dynamic_wl.num_origin_nodes = scenario.num_nodes;
  dynamic_wl.q1_peak_rate = 0.85 * capacity / 0.75;
  util::Rng rng_d(seed + 2);
  workload::Trace dynamic_trace =
      workload::GenerateSinusoidWorkload(dynamic_wl, rng_d);

  bench::Telemetry telemetry(args, "Ablation: period T");
  telemetry.ReportField("capacity_qps", capacity);
  std::vector<int64_t> periods_ms = {125, 250, 500, 1000, 2000, 4000};
  std::vector<exec::RunSpec> specs;
  for (int64_t t_ms : periods_ms) {
    specs.push_back(bench::MakeSpec(*model, "QA-NT", static_trace,
                                    t_ms * kMillisecond, seed));
    specs.push_back(bench::MakeSpec(*model, "QA-NT", dynamic_trace,
                                    t_ms * kMillisecond, seed));
  }
  // Trace and meter the first cell (single-writer sinks).
  if (!specs.empty()) telemetry.Attach(specs.front());
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);
  for (size_t i = 0; i < periods_ms.size(); ++i) {
    std::string suffix = "@T=" + std::to_string(periods_ms[i]) + "ms";
    telemetry.Report("static" + suffix, cells[2 * i].metrics);
    telemetry.Report("dynamic" + suffix, cells[2 * i + 1].metrics);
  }

  util::TableWriter table({"T (ms)", "Static load mean (ms)",
                           "Dynamic load mean (ms)"});
  for (size_t i = 0; i < periods_ms.size(); ++i) {
    table.AddRow(periods_ms[i], cells[2 * i].metrics.MeanResponseMs(),
                 cells[2 * i + 1].metrics.MeanResponseMs());
  }
  table.Print(std::cout);
  std::cout << "\nExpected: static load tolerates (or prefers) larger T; "
               "dynamic load degrades as T grows past the workload's time "
               "scale. The paper used T = 500 ms.\n";
  return 0;
}
