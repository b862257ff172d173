// Reproduces Table 2: qualitative comparison of query-allocation
// mechanisms, with the "Performance" column measured by running each
// mechanism on the same dynamic two-class workload (instead of quoting the
// paper's adjectives blindly).

#include <iostream>

#include "bench/bench_common.h"

namespace qa {
namespace {

using util::kMillisecond;
using util::kSecond;

std::string YesNo(bool v) { return v ? "X" : "-"; }

std::string PerfBucket(double normalized) {
  if (normalized <= 1.1) return "Very Good";
  if (normalized <= 1.6) return "Good";
  return "Poor";
}

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  using namespace qa;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Table 2", "Comparison of query allocation mechanisms",
                seed);

  // Shared scenario: heterogeneous 100-node two-class federation at ~90%
  // mean load with a 0.05 Hz sinusoid (the Fig. 4 conditions).
  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  util::VDuration period = 500 * kMillisecond;
  double capacity =
      sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.05;
  workload.duration = (quick ? 20 : 60) * kSecond;
  workload.num_origin_nodes = scenario.num_nodes;
  workload.q1_peak_rate = 0.9 * capacity / 0.75;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace = workload::GenerateSinusoidWorkload(workload,
                                                             wl_rng);

  // Measure each mechanism.
  double qa_nt_response = 0.0;
  struct Row {
    std::string name;
    allocation::MechanismProperties props;
    double mean_response;
    int64_t messages;
  };
  bench::Telemetry telemetry(args, "Table 2");
  telemetry.ReportField("capacity_qps", capacity);
  std::vector<Row> rows;
  for (const std::string& name : allocation::AllMechanismNames()) {
    exec::RunSpec spec = bench::MakeSpec(*model, name, trace, period, seed);
    // Trace and meter QA-NT's run (single-writer sinks).
    if (name == "QA-NT") telemetry.Attach(spec);
    sim::SimMetrics metrics = exec::RunSpecOnce(spec).metrics;
    telemetry.Report(name, metrics);
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    auto alloc = allocation::CreateAllocator(name, params);
    rows.push_back(
        {name, alloc->properties(), metrics.MeanResponseMs(),
         metrics.messages});
    if (name == "QA-NT") qa_nt_response = metrics.MeanResponseMs();
  }

  util::TableWriter table({"Mechanism", "Distributed", "Workload",
                           "Conflict w/ query opt.", "Autonomy",
                           "Performance (measured)", "Messages/query"});
  for (const Row& row : rows) {
    double normalized =
        qa_nt_response > 0.0 ? row.mean_response / qa_nt_response : 0.0;
    table.AddRow(
        row.name, YesNo(row.props.distributed),
        row.props.handles_dynamic_workload ? "Dynamic" : "Static",
        YesNo(row.props.conflicts_with_query_optimization),
        YesNo(row.props.respects_autonomy),
        PerfBucket(normalized) + " (" + std::to_string(normalized).substr(0, 4) +
            "x QA-NT)",
        static_cast<double>(row.messages) /
            static_cast<double>(trace.size()));
  }
  table.Print(std::cout);
  std::cout
      << "\nPaper's Table 2: QA-NT/Greedy Very Good; Random, Round-robin, "
         "BNQRD Poor; only QA-NT is distributed AND autonomy-respecting "
         "AND compatible with distributed query optimization.\n"
      << "(Markov [4] is omitted like in the paper's simulator: it cannot "
         "handle dynamic workloads.)\n";
  return 0;
}
