// Shard-scale sweep: wall-clock throughput of the sharded simulator core
// as the 10,000-node Fig. 4 operating point is split over 1, 2, 4 and 8
// shards on one worker pool.
//
// The sharded core's contract is byte-identical results at any shard and
// thread count (see DESIGN.md "Sharded core" and the property-fuzz suite),
// so this sweep measures pure execution-layout speedup: the same events,
// the same trace, the same metrics — only the events/sec figure may move.
// The bench double-checks that contract on every run: any drift in
// completed/messages/events_dispatched across shard counts exits nonzero,
// which is the fixed-seed CI smoke (`--quick --shards=4`).
//
// Rows land in BENCH_shard.json: events_per_sec, msgs_per_query,
// speedup_vs_1shard, and measured per-phase wall time (lane drain, merge,
// mediator dispatch, market tick, allocate) plus the lane-imbalance factor
// per shard count — so the scaling curve is phase-attributed, not just a
// single throughput number. On a single-core runner the speedup column
// hovers around 1.0 (the fork-join drains serialize); the interesting
// gates there are that shards=1 stays within noise of the unsharded
// BENCH_scale.json baseline (the sharded core's bookkeeping is free when
// unused) and that drain/merge overhead stays a small share of the wall
// time.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/monotonic_clock.h"
#include "exec/thread_pool.h"

namespace {


struct Cell {
  int shards = 1;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  qa::sim::SimMetrics metrics;
  /// Per-phase wall time (ms) from the run's metrics collector.
  double drain_ms = 0.0;
  double merge_ms = 0.0;
  double dispatch_ms = 0.0;
  double tick_ms = 0.0;
  double allocate_ms = 0.0;
  /// max/mean of per-lane drain time: 1.0 = perfectly balanced shards.
  double lane_imbalance = 0.0;
};

/// Total milliseconds spent in one phase histogram.
double PhaseMs(const qa::obs::metrics::Collector& collector, int metric) {
  return static_cast<double>(collector.histogram(metric).sum) *
         1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qa;
  using util::kMillisecond;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  if (args.report_path.empty()) args.report_path = "BENCH_shard.json";
  const uint64_t seed = args.seed;
  const int threads = exec::ThreadPool::ResolveThreadCount(args.threads);
  bench::Banner("Shard",
                "Sharded simulator core, Fig. 4 operating point at scale, "
                "shards 1 -> 8",
                seed);

  // One operating point, the scale bench's largest: 10,000 nodes under
  // QA-NT with stratified-sample(16) solicitation (broadcast at 10k nodes
  // measures message flooding, not core throughput). Quick mode shrinks to
  // 1,000 nodes / 4k queries for the CI smoke.
  const int num_nodes = args.quick ? 1000 : 10000;
  const double target_queries = args.quick ? 4000.0 : 12000.0;

  util::Rng rng(seed);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = num_nodes;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  util::VDuration period = 500 * kMillisecond;
  double capacity = sim::EstimateCapacityQps(*model, {2.0, 1.0}, period);

  workload::SinusoidConfig workload;
  workload.q1_peak_rate = 0.95 * capacity;
  double mean_rate = 1.125 * workload.q1_peak_rate;
  double duration_s = mean_rate > 0.0 ? target_queries / mean_rate : 1.0;
  workload.duration = util::FromSeconds(duration_s);
  workload.frequency_hz = 1.0 / duration_s;
  workload.num_origin_nodes = num_nodes;
  util::Rng wl_rng(seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(workload, wl_rng);
  std::cout << "N=" << num_nodes << ": capacity " << capacity << " q/s, "
            << trace.size() << " queries over " << duration_s << " s, "
            << threads << " worker thread(s)\n\n";

  allocation::SolicitationConfig solicitation;
  solicitation.policy = allocation::SolicitationPolicy::kStratifiedSample;
  solicitation.fanout = 16;

  std::vector<int> shard_counts = args.shards > 0
                                      ? std::vector<int>{args.shards}
                                      : std::vector<int>{1, 2, 4, 8};
  // The 1-shard reference always runs: it anchors speedup_vs_1shard and
  // the determinism cross-check even when --shards pins the sweep.
  if (shard_counts.front() != 1) shard_counts.insert(shard_counts.begin(), 1);

  bench::Telemetry telemetry(args, "Shard");
  telemetry.ReportField("nodes", static_cast<int64_t>(num_nodes));
  telemetry.ReportField("threads", static_cast<int64_t>(threads));
  util::TableWriter table({"Shards", "Wall (s)", "Events/sec", "Msgs/query",
                           "Completed", "Mean (ms)", "Speedup vs 1",
                           "Drain (ms)", "Merge (ms)", "Disp (ms)",
                           "Imbal"});

  std::vector<Cell> cells;
  for (int shards : shard_counts) {
    exec::ThreadPool pool(threads);
    exec::PoolRunner runner(&pool);
    exec::RunSpec spec =
        bench::MakeSpec(*model, "QA-NT", trace, period, seed);
    spec.config.solicitation = solicitation;
    spec.config.shards = shards;
    if (shards > 1 || threads > 1) spec.config.runner = &runner;
    // A collect-only collector per cell: phase wall-time attribution with
    // no sink I/O in the timed region. Attached to every cell — including
    // the 1-shard reference — so the determinism cross-check below also
    // certifies that profiling never perturbs results.
    obs::metrics::Collector collector;
    spec.config.metrics = &collector;
    int64_t start = util::MonotonicClock::NowNanos();
    Cell cell;
    cell.shards = shards;
    cell.metrics = exec::RunSpecOnce(spec).metrics;
    cell.wall_s =
        util::MonotonicClock::SecondsSince(start);
    cell.drain_ms = PhaseMs(collector, obs::metrics::kPhaseLaneDrain);
    cell.merge_ms = PhaseMs(collector, obs::metrics::kPhaseMerge);
    cell.dispatch_ms =
        PhaseMs(collector, obs::metrics::kPhaseMediatorDispatch);
    cell.tick_ms = PhaseMs(collector, obs::metrics::kPhaseMarketTick);
    cell.allocate_ms = PhaseMs(collector, obs::metrics::kPhaseAllocate);
    cell.lane_imbalance =
        collector.PerfJson().GetDouble("lane_imbalance", 0.0);
    cell.events_per_sec =
        cell.wall_s > 0
            ? static_cast<double>(cell.metrics.events_dispatched) /
                  cell.wall_s
            : 0.0;
    cells.push_back(cell);
  }

  // Determinism cross-check, doubling as the CI smoke: every shard count
  // must reproduce the 1-shard run exactly. events/sec is the only column
  // allowed to differ.
  const sim::SimMetrics& ref = cells.front().metrics;
  bool identical = true;
  for (const Cell& cell : cells) {
    if (cell.metrics.completed != ref.completed ||
        cell.metrics.dropped != ref.dropped ||
        cell.metrics.messages != ref.messages ||
        cell.metrics.retries != ref.retries ||
        cell.metrics.end_time != ref.end_time ||
        cell.metrics.events_dispatched != ref.events_dispatched) {
      std::cerr << "FATAL: shards=" << cell.shards
                << " diverged from the 1-shard reference (completed "
                << cell.metrics.completed << " vs " << ref.completed
                << ", events " << cell.metrics.events_dispatched << " vs "
                << ref.events_dispatched << ")\n";
      identical = false;
    }
  }

  double queries = static_cast<double>(trace.size());
  double base_eps = cells.front().events_per_sec;
  for (const Cell& cell : cells) {
    double msgs_per_query =
        queries > 0 ? static_cast<double>(cell.metrics.messages) / queries
                    : 0.0;
    double speedup = base_eps > 0 ? cell.events_per_sec / base_eps : 0.0;
    table.AddRow(cell.shards, cell.wall_s, cell.events_per_sec,
                 msgs_per_query, cell.metrics.completed,
                 cell.metrics.MeanResponseMs(), speedup, cell.drain_ms,
                 cell.merge_ms, cell.dispatch_ms, cell.lane_imbalance);
    obs::Json row = sim::MetricsToJson(cell.metrics);
    row.Set("shards", static_cast<int64_t>(cell.shards));
    row.Set("threads", static_cast<int64_t>(threads));
    row.Set("wall_s", cell.wall_s);
    row.Set("events_per_sec", cell.events_per_sec);
    row.Set("msgs_per_query", msgs_per_query);
    row.Set("speedup_vs_1shard", speedup);
    row.Set("phase_lane_drain_ms", cell.drain_ms);
    row.Set("phase_merge_ms", cell.merge_ms);
    row.Set("phase_mediator_dispatch_ms", cell.dispatch_ms);
    row.Set("phase_market_tick_ms", cell.tick_ms);
    row.Set("phase_allocate_ms", cell.allocate_ms);
    row.Set("lane_imbalance", cell.lane_imbalance);
    telemetry.ReportField("S" + std::to_string(cell.shards),
                          std::move(row));
  }

  table.Print(std::cout);
  if (!identical) {
    std::cout << "\nDETERMINISM CHECK FAILED: see stderr.\n";
    return 1;
  }
  std::cout << "\nDeterminism check OK: every shard count reproduced the "
               "1-shard metrics exactly; only wall-clock moved.\n";
  return 0;
}
