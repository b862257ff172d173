// Fault chaos matrix — the paper's motivating scenario ("load temporarily
// exceeds total system capacity ... due, for example, to multiple node
// failures", §1), generalized into a fault-type x mechanism grid. One
// 60-second sinusoid workload at 70% of capacity is replayed under seven
// fault plans — none, a scattered outage, crashes with state
// loss + restart, degraded capacity, a lossy/delayed network, a hard
// partition, and a chaos mix — for every allocation mechanism. Clients
// enforce a 12 s response SLA, so the Completed column directly contrasts
// mechanisms that route around faults with mechanisms whose fault-bloated
// latency tails expire. The QA-NT run under the chaos plan is traced in
// memory and its price-reconvergence report (time until log-price variance
// drops back below the pre-fault level) is embedded into BENCH_faults.json.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/analysis.h"
#include "obs/trace_reader.h"

namespace {

using namespace qa;
using util::kMillisecond;
using util::kSecond;

/// Client response deadline. Unlike the figure benches (where every query
/// eventually completes and only response times differ), a fault bench
/// needs give-up semantics: clients abandon queries 12 s after submission,
/// so a result delayed past the SLA — by bounces off dead nodes, lost
/// shipments, or fault-bloated queues — counts as expired, and the
/// Completed column separates mechanisms that route around faults from
/// mechanisms that let faults eat their latency budget.
constexpr util::VDuration kQueryDeadline = 12 * util::kSecond;

/// One row of the chaos matrix: a named fault schedule applied verbatim to
/// every mechanism's FederationConfig.
struct PlanCase {
  std::string name;
  std::string blurb;
  sim::faults::FaultPlan faults;
};

std::vector<PlanCase> BuildPlans(int num_nodes) {
  std::vector<PlanCase> plans;

  plans.push_back({"baseline", "no faults (control row)", {}});

  PlanCase outage{"outage", "every 3rd node unreachable [20s,40s), state intact",
                  {}};
  sim::faults::PartitionFault scattered;
  for (catalog::NodeId j = 0; j < num_nodes; j += 3) {
    scattered.nodes.push_back(j);
  }
  scattered.from = 20 * kSecond;
  scattered.until = 40 * kSecond;
  outage.faults.partitions.push_back(scattered);
  plans.push_back(outage);

  PlanCase crash{"crash",
                 "every 5th node crashes at 20s (state loss), restarts at 30s",
                 {}};
  for (catalog::NodeId j = 0; j < num_nodes; j += 5) {
    crash.faults.crashes.push_back({j, 20 * kSecond, 30 * kSecond});
  }
  plans.push_back(crash);

  PlanCase degrade{"degrade", "every 4th node at 40% speed during [15s,45s)",
                   {}};
  for (catalog::NodeId j = 0; j < num_nodes; j += 4) {
    degrade.faults.degrades.push_back({j, 15 * kSecond, 45 * kSecond, 0.4});
  }
  plans.push_back(degrade);

  PlanCase lossy{"lossy", "all links drop 10% of hops, +2ms during [20s,40s)",
                 {}};
  lossy.faults.links.push_back({sim::faults::LinkFault::kAllNodes,
                                20 * kSecond, 40 * kSecond, 0.10,
                                2 * kMillisecond});
  plans.push_back(lossy);

  PlanCase partition{"partition", "first quarter of nodes cut off [20s,35s)",
                     {}};
  sim::faults::PartitionFault cut;
  for (catalog::NodeId j = 0; j < num_nodes / 4; ++j) cut.nodes.push_back(j);
  cut.from = 20 * kSecond;
  cut.until = 35 * kSecond;
  partition.faults.partitions.push_back(cut);
  plans.push_back(partition);

  // The survey's dominant failure mode for decentralized markets: churn
  // (crash + restart with state loss) followed by a badly lossy network.
  // Both windows straddle the sinusoid's troughs (t = 15 s and 35 s, ~47%
  // of capacity), where the federation *has* the spare capacity to route
  // around the faults — what separates the mechanisms here is whether they
  // find it. This is the acceptance specimen: the QA-NT run under this
  // plan is traced and its price-reconvergence report lands in the JSON.
  PlanCase chaos{"chaos",
                 "1/4 of nodes crash [14s,22s), 50% link loss [30s,40s)",
                 {}};
  for (catalog::NodeId j = 0; j < num_nodes; j += 4) {
    chaos.faults.crashes.push_back({j, 14 * kSecond, 22 * kSecond});
  }
  chaos.faults.links.push_back({sim::faults::LinkFault::kAllNodes,
                                30 * kSecond, 40 * kSecond, 0.50,
                                1 * kMillisecond});
  plans.push_back(chaos);

  return plans;
}

/// Renders one FaultRecovery row as a report JSON object.
obs::Json RecoveryToJson(const obs::FaultRecovery& row) {
  obs::Json json = obs::Json::MakeObject();
  json.Set("kind", std::string(obs::EventKindName(row.kind)));
  json.Set("node", row.node);
  json.Set("t_ms", static_cast<double>(row.t_us) / kMillisecond);
  if (row.has_factor()) json.Set("factor", row.factor);
  json.Set("pre_fault_variance", row.pre_fault_variance);
  json.Set("peak_variance", row.peak_variance);
  json.Set("reconverged", row.reconverged);
  if (row.reconverged) {
    json.Set("recovery_period", row.recovery_period);
    json.Set("recovery_ms", row.recovery_ms);
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t seed = args.seed;
  bool quick = args.quick;
  // This bench always emits its structured report (the acceptance artifact)
  // and traces its QA-NT crash run in memory; --trace streams that same
  // trace to a file for tools/qa_trace --faults.
  if (args.report_path.empty()) args.report_path = "BENCH_faults.json";
  const std::string trace_path = args.trace_path;
  args.trace_path.clear();
  bench::Banner("Fault chaos matrix",
                "fault type x mechanism grid at 70% load, 60 s sinusoid",
                seed);

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = quick ? 30 : 100;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig wave;
  wave.frequency_hz = 0.05;
  wave.duration = 60 * kSecond;
  wave.num_origin_nodes = scenario.num_nodes;
  wave.q1_peak_rate = 0.7 * capacity / 0.75;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace = workload::GenerateSinusoidWorkload(wave, wl_rng);

  std::vector<PlanCase> plans = BuildPlans(scenario.num_nodes);
  std::vector<std::string> mechanisms = allocation::AllMechanismNames();
  std::cout << "Workload: " << trace.size() << " queries over "
            << scenario.num_nodes << " nodes; " << plans.size()
            << " fault plans x " << mechanisms.size() << " mechanisms.\n\n";

  bench::Telemetry telemetry(args, "Fault chaos matrix");
  telemetry.ReportField("capacity_qps", capacity);
  telemetry.ReportField("num_nodes", scenario.num_nodes);

  // The QA-NT run under the chaos plan is the recovery specimen: its trace
  // is recorded in memory (single writer, one grid cell) and analyzed for
  // price reconvergence after the mass crash/restart.
  std::ostringstream traced;
  obs::Recorder crash_recorder(&traced);

  std::vector<exec::RunSpec> specs;
  for (const PlanCase& plan : plans) {
    for (const std::string& name : mechanisms) {
      exec::RunSpec spec =
          bench::MakeSpec(*model, name, trace, period, seed);
      spec.config.query_deadline = kQueryDeadline;
      spec.config.seed = static_cast<int64_t>(seed);
      spec.config.faults = plan.faults;
      if (plan.name == "chaos" && name == "QA-NT") {
        spec.config.recorder = &crash_recorder;
      }
      specs.push_back(std::move(spec));
    }
  }

  exec::ExperimentRunner runner = args.MakeRunner();
  std::cout << "Running " << specs.size() << " cells on " << runner.threads()
            << " thread(s)...\n\n";
  std::vector<exec::RunResult> results = runner.Run(specs);
  crash_recorder.Finish();

  util::TableWriter table({"Plan", "Mechanism", "Mean (ms)", "p95 (ms)",
                           "Bounced", "Retries", "Lost", "Expired",
                           "Completed"});
  size_t cell = 0;
  for (const PlanCase& plan : plans) {
    for (const std::string& name : mechanisms) {
      const sim::SimMetrics& m = results[cell++].metrics;
      telemetry.Report(plan.name + "/" + name, m);
      table.AddRow(plan.name, name, m.MeanResponseMs(),
                   m.response_time_ms.Percentile(95), m.bounced, m.retries,
                   m.lost, m.expired, m.completed);
    }
  }
  table.Print(std::cout);

  std::cout << "\nFault plans:\n";
  for (const PlanCase& plan : plans) {
    std::cout << "  " << plan.name << ": " << plan.blurb << "\n";
  }

  // Recovery analysis of the traced QA-NT crash run.
  std::istringstream replay(traced.str());
  util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Parse(replay);
  if (!parsed.ok()) {
    std::cerr << "warning: chaos-run trace unparsable: " << parsed.status()
              << "\n";
  } else {
    std::vector<obs::FaultRecovery> recovery =
        obs::FaultRecoveryReport(parsed.value());
    int reconverged = 0;
    obs::Json rows = obs::Json::MakeArray();
    for (const obs::FaultRecovery& row : recovery) {
      if (row.reconverged) ++reconverged;
      rows.Append(RecoveryToJson(row));
    }
    telemetry.ReportField("crash_recovery", std::move(rows));
    std::cout << "\nQA-NT chaos-plan recovery: " << recovery.size()
              << " fault transitions traced, " << reconverged
              << " with log-price variance back below the pre-fault level.\n";
    for (const obs::FaultRecovery& row : recovery) {
      std::cout << "  " << obs::EventKindName(row.kind) << " node "
                << row.node << " @ " << row.t_us / kMillisecond << " ms: ";
      if (row.reconverged) {
        std::cout << "reconverged after " << row.recovery_ms << " ms (peak "
                  << row.peak_variance << " vs pre " << row.pre_fault_variance
                  << ")\n";
      } else {
        std::cout << "not reconverged within the run (peak "
                  << row.peak_variance << ")\n";
      }
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (out) {
      out << traced.str();
      std::cout << "\nQA-NT chaos-run trace written to " << trace_path
                << " (analyze with tools/qa_trace --faults).\n";
    } else {
      std::cerr << "warning: --trace: cannot open " << trace_path << "\n";
    }
  }

  std::cout << "\nExpected: the negotiating/probing mechanisms route around "
               "every fault class and keep their response tails inside the "
               "12 s client SLA; blind mechanisms bounce work off dead nodes "
               "until queries expire. Crashes cost QA-NT its learned prices, "
               "which re-converge within a few market periods.\n";
  return 0;
}
