// Reproduces Fig. 6: the heterogeneous Zipf workload on the full Table 3
// scenario (100 nodes, 1000 relations, 100 query classes with 0-49 joins,
// mean best execution time 2000 ms). The per-class mean inter-arrival time
// is swept; Greedy's mean response time is reported normalized by QA-NT's.
// Paper's shape: 13-24% gains under heavy load, ~26% at moderate overload,
// shrinking to nothing once the system stops being overloaded.

#include <iostream>

#include "bench/bench_common.h"
#include "workload/zipf_workload.h"

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Fig. 6",
                "Zipf workload on the Table 3 federation: Greedy/QA-NT "
                "ratio vs per-class mean inter-arrival time",
                seed);

  sim::Table3Config scenario;
  if (quick) {
    scenario.catalog.num_relations = 200;
    scenario.catalog.num_nodes = 30;
    scenario.profiles.num_nodes = 30;
    scenario.templates.num_classes = 30;
  }
  util::Rng rng(seed);
  sim::Scenario built = sim::BuildTable3Scenario(scenario, rng);
  const query::CostModel& model = *built.cost_model;
  std::cout << "Table 3 scenario: " << model.num_nodes() << " nodes, "
            << scenario.catalog.num_relations << " relations, "
            << model.num_classes() << " query classes\n\n";

  int num_queries = quick ? 1500 : 10000;
  std::vector<int64_t> interarrivals_ms =
      quick ? std::vector<int64_t>{1000, 10000, 20000}
            : std::vector<int64_t>{10,    100,   1000,  3000, 5000,
                                   10000, 14000, 17000, 20000};

  util::VDuration period = 500 * kMillisecond;
  // Traces first (they must outlive the runner), then the whole
  // (inter-arrival x mechanism) grid concurrently.
  std::vector<workload::Trace> traces;
  traces.reserve(interarrivals_ms.size());
  for (int64_t t_ms : interarrivals_ms) {
    workload::ZipfWorkloadConfig workload;
    workload.num_queries = num_queries;
    workload.num_classes = model.num_classes();
    workload.mean_interarrival = t_ms * kMillisecond;
    workload.num_origin_nodes = model.num_nodes();
    util::Rng wl_rng(seed + 1);
    traces.push_back(workload::GenerateZipfWorkload(workload, wl_rng));
  }
  bench::Telemetry telemetry(args, "Fig. 6");
  std::vector<exec::RunSpec> specs;
  for (const workload::Trace& trace : traces) {
    specs.push_back(bench::MakeSpec(model, "QA-NT", trace, period, seed));
    specs.push_back(bench::MakeSpec(model, "Greedy", trace, period, seed));
  }
  // Trace and meter the first QA-NT cell (single-writer sinks).
  if (!specs.empty()) telemetry.Attach(specs.front());
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);
  for (size_t i = 0; i < interarrivals_ms.size(); ++i) {
    std::string suffix = "@" + std::to_string(interarrivals_ms[i]) + "ms";
    telemetry.Report("QA-NT" + suffix, cells[2 * i].metrics);
    telemetry.Report("Greedy" + suffix, cells[2 * i + 1].metrics);
  }

  util::TableWriter table({"Per-class inter-arrival (ms)",
                           "QA-NT mean (ms)", "Greedy mean (ms)",
                           "Greedy / QA-NT", "QA-NT dropped",
                           "Greedy dropped"});
  for (size_t i = 0; i < interarrivals_ms.size(); ++i) {
    const sim::SimMetrics& qa_nt = cells[2 * i].metrics;
    const sim::SimMetrics& greedy = cells[2 * i + 1].metrics;
    table.AddRow(interarrivals_ms[i], qa_nt.MeanResponseMs(),
                 greedy.MeanResponseMs(),
                 qa_nt.MeanResponseMs() > 0
                     ? greedy.MeanResponseMs() / qa_nt.MeanResponseMs()
                     : 0.0,
                 qa_nt.dropped, greedy.dropped);
  }
  table.Print(std::cout);
  std::cout << "\nPaper's Fig. 6 shape: gains of 1.13-1.26x through the "
               "overloaded regime, largest near moderate overload, "
               "converging to ~1.0 once inter-arrival exceeds ~17 s and "
               "the system stops being overloaded.\n";
  return 0;
}
