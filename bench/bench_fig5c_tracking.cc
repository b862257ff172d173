// Reproduces Fig. 5c: how QA-NT and Greedy track a near-capacity load.
// Prints the number of Q1 queries arriving per half second and the number
// of Q1 queries executed by each mechanism in the same window over the
// first 15 s. The paper's shape: QA-NT follows the arrival curve closely
// (it parks Q2 on the slow nodes), Greedy saturates and falls behind.

#include <iostream>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  using util::kSecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Fig. 5c",
                "Q1 arrivals vs Q1 completions per half second "
                "(near-capacity sinusoid)",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.05;
  workload.duration = 20 * kSecond;
  workload.num_origin_nodes = scenario.num_nodes;
  // "Temporary loads close to the total capacity": the Q1 peak pushes the
  // system briefly past capacity so the allocation of Q2 decides whether
  // Q1 can be followed (positioned above our QA-NT/Greedy crossover, see
  // EXPERIMENTS.md).
  workload.q1_peak_rate = 1.5 * capacity;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);

  bench::Telemetry telemetry(args, "Fig. 5c");
  telemetry.ReportField("capacity_qps", capacity);

  // The trace and the metrics stream (when requested) follow the QA-NT
  // run: its per-period price/supply snapshots are what tools/qa_trace
  // turns into the convergence diagnostics.
  exec::RunSpec qa_spec = bench::MakeSpec(*model, "QA-NT", trace, period,
                                          seed);
  telemetry.Attach(qa_spec);
  sim::SimMetrics qa_nt = exec::RunSpecOnce(qa_spec).metrics;
  sim::SimMetrics greedy =
      bench::RunMechanism(*model, "Greedy", trace, period, seed);
  telemetry.Report("QA-NT", qa_nt);
  telemetry.Report("Greedy", greedy);

  util::VTime horizon = 15 * kSecond;
  std::vector<int> arrivals =
      trace.ArrivalCounts(0, 500 * kMillisecond, horizon);
  // Q1 completions per bucket, read off the completion events (each
  // sample's value is the completed query's class).
  auto q1_done = [horizon](const sim::SimMetrics& metrics) {
    stats::TimeSeries q1;
    for (const stats::Sample& done : metrics.completions.samples()) {
      if (static_cast<int>(done.value) == 0) q1.Add(done.time, 1.0);
    }
    return q1.BucketCounts(500 * kMillisecond, horizon);
  };
  std::vector<size_t> qa_done = q1_done(qa_nt);
  std::vector<size_t> greedy_done = q1_done(greedy);

  util::TableWriter table({"t (ms)", "Q1 arriving", "Q1 done (QA-NT)",
                           "Q1 done (Greedy)"});
  for (size_t b = 0; b < arrivals.size(); ++b) {
    table.AddRow(static_cast<int64_t>(b) * 500, arrivals[b],
                 static_cast<int64_t>(qa_done[b]),
                 static_cast<int64_t>(greedy_done[b]));
  }
  table.Print(std::cout);

  // Tracking error: total |arrivals - completions| over the window.
  auto tracking_error = [&](const std::vector<size_t>& done) {
    int64_t err = 0;
    for (size_t b = 0; b < arrivals.size(); ++b) {
      err += std::abs(static_cast<int64_t>(arrivals[b]) -
                      static_cast<int64_t>(done[b]));
    }
    return err;
  };
  std::cout << "\nCumulative Q1 tracking error (lower = follows load "
               "better): QA-NT="
            << tracking_error(qa_done)
            << " Greedy=" << tracking_error(greedy_done) << "\n"
            << "Paper's Fig. 5c: QA-NT closely follows the Q1 curve while "
               "Greedy overloads the system and cannot serve all Q1.\n";
  return 0;
}
