// Reproduces Fig. 5b: behavior of QA-NT as the sinusoid frequency varies
// from 0.05 Hz to 2 Hz. The paper's shape: QA-NT beats Greedy everywhere,
// with the improvement shrinking as the workload oscillates faster than
// the market can track.
//
// Operating point: the paper runs at 80% of capacity, just above the load
// where its Greedy starts losing to QA-NT (~75%, Fig. 5a). Our calibrated
// crossover sits at ~120% of capacity (EXPERIMENTS.md), so we evaluate at
// the same *relative* position: 150% of capacity.

#include <iostream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  using util::kSecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Fig. 5b",
                "Greedy/QA-NT response-time ratio vs sinusoid frequency "
                "(just above the Greedy crossover load)",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  std::vector<double> freqs =
      quick ? std::vector<double>{0.05, 0.5, 2.0}
            : std::vector<double>{0.05, 0.1, 0.25, 0.5, 1.0, 2.0};
  // Per-frequency traces first (they must outlive the runner), then the
  // whole (frequency x mechanism) grid concurrently.
  std::vector<workload::Trace> traces;
  traces.reserve(freqs.size());
  for (double freq : freqs) {
    workload::SinusoidConfig workload;
    workload.frequency_hz = freq;
    workload.duration = (quick ? 20 : 40) * kSecond;
    workload.num_origin_nodes = scenario.num_nodes;
    workload.q1_peak_rate = 1.5 * capacity / 0.75;
    util::Rng wl_rng(seed + 1);
    traces.push_back(workload::GenerateSinusoidWorkload(workload, wl_rng));
  }
  bench::Telemetry telemetry(args, "Fig. 5b");
  telemetry.ReportField("capacity_qps", capacity);
  std::vector<exec::RunSpec> specs;
  for (const workload::Trace& trace : traces) {
    specs.push_back(bench::MakeSpec(*model, "QA-NT", trace, period, seed));
    specs.push_back(bench::MakeSpec(*model, "Greedy", trace, period, seed));
  }
  // Trace and meter the first QA-NT cell (single-writer sinks).
  if (!specs.empty()) telemetry.Attach(specs.front());
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);
  for (size_t i = 0; i < freqs.size(); ++i) {
    std::string suffix = "@" + std::to_string(freqs[i]) + "Hz";
    telemetry.Report("QA-NT" + suffix, cells[2 * i].metrics);
    telemetry.Report("Greedy" + suffix, cells[2 * i + 1].metrics);
  }

  util::TableWriter table({"Frequency (Hz)", "QA-NT mean (ms)",
                           "Greedy mean (ms)", "Greedy / QA-NT"});
  for (size_t i = 0; i < freqs.size(); ++i) {
    const sim::SimMetrics& qa_nt = cells[2 * i].metrics;
    const sim::SimMetrics& greedy = cells[2 * i + 1].metrics;
    table.AddRow(freqs[i], qa_nt.MeanResponseMs(), greedy.MeanResponseMs(),
                 qa_nt.MeanResponseMs() > 0
                     ? greedy.MeanResponseMs() / qa_nt.MeanResponseMs()
                     : 0.0);
  }
  table.Print(std::cout);
  std::cout << "\nPaper's Fig. 5b shape: QA-NT ahead at every frequency; "
               "the advantage decays as frequency grows (a 0.05 Hz wave "
               "already means 0->80% load in 10 s).\n";
  return 0;
}
