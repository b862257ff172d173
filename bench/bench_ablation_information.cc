// Ablation (DESIGN.md §7): how much is load *information* worth?
// Sweeps the queue-blind greedy's randomization (its only defense against
// pile-ups, since it sees execution-time estimates but no queues), and
// compares against QA-NT (no load disclosure at all — admission control
// emerges from private prices) and the fully informed Greedy baseline
// (fresh backlog + estimate), plus stale two-probes at several staleness
// levels.

#include <iostream>

#include "allocation/baselines.h"
#include "bench/bench_common.h"

namespace qa {
namespace {

using util::kMillisecond;
using util::kSecond;

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  using namespace qa;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Ablation: load information",
                "Blind-greedy randomization sweep vs QA-NT vs informed "
                "Greedy vs stale two-probes (95% peak sinusoid)",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig workload;
  workload.frequency_hz = 0.05;
  workload.duration = (quick ? 40 : 80) * kSecond;
  workload.num_origin_nodes = scenario.num_nodes;
  workload.q1_peak_rate = 0.95 * capacity;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);

  // The whole ablation grid, one RunSpec per row; custom allocators are
  // built on the worker via make_allocator. Row labels are paired with the
  // specs by index.
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<exec::RunSpec> specs;
  auto add = [&](const std::string& row, const std::string& info,
                 std::function<std::unique_ptr<allocation::Allocator>()>
                     make) {
    exec::RunSpec spec = bench::MakeSpec(*model, "", trace, period, seed);
    spec.make_allocator = std::move(make);
    specs.push_back(std::move(spec));
    labels.emplace_back(row, info);
  };

  for (double r : {0.0, 0.25, 0.5, 1.0, 1.5}) {
    add("GreedyBlind r=" + std::to_string(r).substr(0, 4),
        "estimates only", [seed, r]() {
          return std::make_unique<allocation::BlindGreedyAllocator>(seed,
                                                                    r);
        });
  }
  for (int stale_s : {0, 2, 5, 15}) {
    add("TwoProbes stale=" + std::to_string(stale_s) + "s",
        "2 sampled loads", [seed, stale_s]() {
          return std::make_unique<allocation::TwoRandomProbesAllocator>(
              seed, stale_s * 1000 * kMillisecond);
        });
  }
  add("QA-NT", "none (private prices)", [&model, period, seed]() {
    allocation::AllocatorParams params;
    params.cost_model = model.get();
    params.period = period;
    params.seed = seed;
    return allocation::CreateAllocator("QA-NT", params);
  });
  add("Greedy (informed)", "all fresh backlogs", []() {
    return std::make_unique<allocation::GreedyAllocator>();
  });

  bench::Telemetry telemetry(args, "Ablation: load information");
  telemetry.ReportField("capacity_qps", capacity);
  // Trace and meter the QA-NT row (single-writer sinks).
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i].first == "QA-NT") telemetry.Attach(specs[i]);
  }
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);

  util::TableWriter table({"Mechanism", "Load info", "Mean (ms)",
                           "p95 (ms)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const sim::SimMetrics& m = cells[i].metrics;
    telemetry.Report(labels[i].first, m);
    table.AddRow(labels[i].first, labels[i].second, m.MeanResponseMs(),
                 m.response_time_ms.Percentile(95));
  }
  table.Print(std::cout);
  std::cout << "\nReading: QA-NT approaches the fully informed Greedy "
               "without any node disclosing its load (and beats it beyond "
               "capacity); the queue-blind greedy needs heavy "
               "randomization to avoid pile-ups and still trails; stale "
               "probes degrade gracefully with staleness.\n";
  return 0;
}
