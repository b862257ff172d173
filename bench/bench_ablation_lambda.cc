// Ablation (DESIGN.md §6.2): the price-adjustment step lambda.
// (a) In the centralized tâtonnement reference, larger lambda converges in
//     fewer iterations but estimates the equilibrium prices less
//     accurately (§3.3).
// (b) In the full QA-NT simulation, lambda trades reaction speed against
//     stability under a dynamic load.

#include <iostream>

#include "bench/bench_common.h"
#include "market/tatonnement.h"
#include "util/status.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  using util::kSecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Ablation: lambda",
                "Price-adjustment step in tatonnement and in QA-NT", seed);

  // ---- (a) Centralized tatonnement on the Fig. 1 instance.
  market::CapacitySupplySet n1({400 * kMillisecond, 100 * kMillisecond},
                               1000 * kMillisecond);
  market::CapacitySupplySet n2({450 * kMillisecond, 500 * kMillisecond},
                               1000 * kMillisecond);
  std::vector<const market::SupplySet*> sets{&n1, &n2};

  bench::Telemetry telemetry(args, "Ablation: lambda");
  std::cout << "(a) Tatonnement iterations to clear demand (4, 2):\n";
  util::TableWriter conv({"lambda", "iterations", "converged",
                          "final prices"});
  for (double lambda : {0.002, 0.01, 0.05, 0.2, 1.0}) {
    market::TatonnementConfig config;
    config.lambda = lambda;
    config.max_iterations = 100000;
    util::StatusOr<market::TatonnementResult> run = market::RunTatonnement(
        market::QuantityVector({4, 2}), sets, config);
    if (!run.ok()) {
      std::cerr << run.status() << "\n";
      return 1;
    }
    const market::TatonnementResult& r = *run;
    conv.AddRow(lambda, r.iterations, r.converged ? "yes" : "no",
                r.prices.ToString());
    // Traced runs also log the umpire's final prices/excess demand per
    // lambda (stamped with the iteration count it took).
    QA_OBS(telemetry.recorder()) {
      telemetry.recorder()->RecordSnapshot(
          r.iterations, obs::SnapshotFromTatonnement(r));
    }
  }
  conv.Print(std::cout);

  // ---- (b) QA-NT under a dynamic load for several lambdas.
  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 20 : 50;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.05;
  workload.duration = (quick ? 20 : 40) * kSecond;
  workload.num_origin_nodes = scenario.num_nodes;
  workload.q1_peak_rate = 1.2 * capacity / 0.75;  // mild overload
  util::Rng wl_rng(seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);

  std::cout << "\n(b) QA-NT mean response under a 120% overload sinusoid:\n";
  std::vector<double> lambdas = {0.01, 0.05, 0.1, 0.25, 0.5};
  std::vector<exec::RunSpec> specs;
  for (double lambda : lambdas) {
    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.trace = &trace;
    spec.period = period;
    spec.seed = seed;
    spec.make_allocator = [&model, period, seed, lambda]() {
      allocation::AllocatorParams params;
      params.cost_model = model.get();
      params.period = period;
      params.seed = seed;
      params.qa_nt.lambda = lambda;
      return allocation::CreateAllocator("QA-NT", params);
    };
    specs.push_back(std::move(spec));
  }
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);

  util::TableWriter table({"lambda", "QA-NT mean (ms)", "retries"});
  for (size_t i = 0; i < lambdas.size(); ++i) {
    telemetry.Report("QA-NT@lambda=" + std::to_string(lambdas[i]),
                     cells[i].metrics);
    table.AddRow(lambdas[i], cells[i].metrics.MeanResponseMs(),
                 cells[i].metrics.retries);
  }
  table.Print(std::cout);
  std::cout << "\nExpected: convergence iterations fall as lambda grows "
               "(a); the full system favors a moderate lambda — too small "
               "reacts slowly, too large oscillates (b).\n";
  return 0;
}
