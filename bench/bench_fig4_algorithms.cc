// Reproduces Fig. 4: average normalized query response time of QA-NT,
// Greedy, Random, Round-Robin, BNQRD and two-random-probes on the
// heterogeneous 100-node federation under a 0.05 Hz sinusoid workload with
// peak load slightly below total system capacity. Response times are
// normalized by QA-NT's (as in the paper).

#include <iostream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  using util::kSecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Fig. 4",
                "Normalized mean response time, 0.05 Hz sinusoid, peak "
                "slightly below capacity, 100 heterogeneous nodes",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);
  std::cout << "Estimated system capacity for the 2:1 Q1:Q2 mix: "
            << capacity << " queries/s\n";

  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.05;
  workload.duration = (quick ? 40 : 100) * kSecond;
  workload.num_origin_nodes = scenario.num_nodes;
  // Mean rate = 0.75 * q1_peak; peak instantaneous ~ q1_peak (the classes
  // are anti-phased); "peak slightly below capacity" => q1_peak ~ 0.95 C.
  workload.q1_peak_rate = 0.95 * capacity;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);
  std::cout << "Workload: " << trace.size() << " queries over "
            << util::ToSeconds(workload.duration) << " s\n\n";

  // One grid cell per mechanism, run concurrently; results come back in
  // submission order, so the table below is byte-identical at any
  // --threads value.
  bench::Telemetry telemetry(args, "Fig. 4");
  telemetry.ReportField("capacity_qps", capacity);
  std::vector<std::string> names = allocation::AllMechanismNames();
  std::vector<exec::RunSpec> specs;
  for (const std::string& name : names) {
    specs.push_back(bench::MakeSpec(*model, name, trace, period, seed));
    // Trace and meter QA-NT's run (single-writer sinks).
    if (name == "QA-NT") telemetry.Attach(specs.back());
  }
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);

  double qa_nt_ms = 0.0;
  std::vector<std::pair<std::string, sim::SimMetrics>> results;
  for (size_t i = 0; i < names.size(); ++i) {
    sim::SimMetrics m = std::move(cells[i].metrics);
    if (names[i] == "QA-NT") qa_nt_ms = m.MeanResponseMs();
    telemetry.Report(names[i], m);
    results.emplace_back(names[i], std::move(m));
  }

  util::TableWriter table({"Mechanism", "Mean response (ms)",
                           "Normalized (QA-NT=1)", "p95 (ms)", "Completed",
                           "Dropped"});
  for (auto& [name, m] : results) {
    table.AddRow(name, m.MeanResponseMs(),
                 qa_nt_ms > 0 ? m.MeanResponseMs() / qa_nt_ms : 0.0,
                 m.response_time_ms.Percentile(95), m.completed, m.dropped);
  }
  table.Print(std::cout);
  std::cout << "\nPaper's Fig. 4 shape: QA-NT and Greedy far ahead; "
               "Random and Round-Robin worst (they ignore node speed); "
               "BNQRD balances load but equalizes fast and slow nodes; "
               "two-probes between Round-Robin and BNQRD.\n";
  return 0;
}
