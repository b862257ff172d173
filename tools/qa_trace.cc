// qa_trace: convergence diagnostics for a JSONL market trace.
//
// Reads a trace produced by any bench's --trace=FILE flag (schema v6, see
// src/obs/SCHEMA.md; older versions are read too) and reports how the
// market behaved over time:
//
//   * the run totals from the trace's closing `run` record — and exit
//     status 1 when the trace's own arrival, assign, complete, bounce,
//     lost, shed and drop records disagree with them;
//   * per-class price variance across nodes, period by period — the paper's
//     §3.3 convergence claim made measurable;
//   * time-to-equilibrium: the first period from which the observable
//     excess demand (reject ratio) stays inside a band;
//   * message overhead and event-loop activity per period;
//   * Fig. 5c-style tracking error (arrivals vs completions per bucket);
//   * with --faults: a per-fault recovery table (crash/restart/degrade
//     transitions, price dispersion before/after, reconvergence time) plus
//     the observed fault damage (bounces, lost shipments, drops);
//   * with --shed: a per-period overload table (sheds against arrivals and
//     completions, schema v4 shed records) plus the trace's surge windows
//     — the shedding-side companion to bench_overload's goodput grid;
//   * with --clusters: the hierarchical market's per-cluster table
//     (schema v5 cluster ledger records and per-event routing fields) —
//     how the top tier spread work over the cluster sub-markets;
//   * with --alarms=METRICS.jsonl: the watchdog alarm table from a
//     --metrics run of the same experiment (see src/obs/SCHEMA.md), so the
//     trace's period rows and the health alarms line up side by side.
//
// Usage:
//   qa_trace TRACE.jsonl [--band=0.1] [--window=4] [--bucket-ms=2000]
//            [--periods=N] [--csv] [--faults] [--shed] [--clusters]
//            [--alarms=METRICS.jsonl]
//
// Flags are strict: a malformed or out-of-range value (a non-positive
// band, window or bucket width, a negative period count) prints the usage
// line and exits 2.
//
// All analysis goes through the same parser the tests use
// (obs::ParsedTrace), so anything this tool prints is covered by the
// round-trip tests in tests/obs_test.cc.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/analysis.h"
#include "obs/metrics/metrics_reader.h"
#include "obs/trace_reader.h"
#include "util/table_writer.h"
#include "util/vtime.h"

namespace qa {
namespace {

struct Options {
  std::string trace_path;
  double band = 0.1;        // equilibrium band on the reject ratio
  int window = 4;           // consecutive in-band periods required
  int64_t bucket_ms = 2000; // tracking-error bucket width
  int max_periods = 0;      // 0 = print all period rows
  bool csv = false;
  bool faults = false;      // fault-recovery summary
  bool shed = false;        // per-period overload/shedding table
  bool clusters = false;    // hierarchical-market per-cluster table
  std::string alarms_path;  // metrics JSONL to read watchdog alarms from
};

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " TRACE.jsonl [--band=B] [--window=W] [--bucket-ms=MS]"
               " [--periods=N] [--csv] [--faults] [--shed] [--clusters]"
               " [--alarms=METRICS.jsonl]\n";
}

/// Parses all of `text` as a number; false on an empty, malformed or
/// out-of-range value.
template <typename T>
bool Number(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  std::from_chars_result result = std::from_chars(text.data(), end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string_view value = std::string_view(arg).substr(arg.find('=') + 1);
    bool valid = true;
    if (arg.rfind("--band=", 0) == 0) {
      valid = Number(value, &opts->band) && opts->band > 0.0;
    } else if (arg.rfind("--window=", 0) == 0) {
      valid = Number(value, &opts->window) && opts->window > 0;
    } else if (arg.rfind("--bucket-ms=", 0) == 0) {
      valid = Number(value, &opts->bucket_ms) && opts->bucket_ms > 0;
    } else if (arg.rfind("--periods=", 0) == 0) {
      valid = Number(value, &opts->max_periods) && opts->max_periods >= 0;
    } else if (arg == "--csv") {
      opts->csv = true;
    } else if (arg == "--faults") {
      opts->faults = true;
    } else if (arg == "--shed") {
      opts->shed = true;
    } else if (arg == "--clusters") {
      opts->clusters = true;
    } else if (arg.rfind("--alarms=", 0) == 0) {
      opts->alarms_path = value;
      valid = !value.empty();
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    } else if (opts->trace_path.empty()) {
      opts->trace_path = arg;
    } else {
      std::cerr << "extra positional argument: " << arg << "\n";
      return false;
    }
    if (!valid) {
      std::cerr << "bad value for flag: " << arg << "\n";
      return false;
    }
  }
  return !opts->trace_path.empty();
}

void Emit(const util::TableWriter& table, bool csv) {
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "\n";
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Sum of one `metrics` key over the trace's `run` records (one per run).
int64_t RunTotal(const obs::ParsedTrace& trace, const char* key) {
  int64_t total = 0;
  for (const obs::RunRecord& run : trace.runs) {
    total += run.metrics.GetInt(key);
  }
  return total;
}

/// Prints the run totals and checks them against the trace's own event
/// records. Returns false, naming each disagreement on stderr, when a
/// count differs: the trace is truncated, or its records and the run's
/// accounting drifted apart. A trace without a `run` record (schema < 6)
/// has no totals to check.
bool CheckRunTotals(const obs::ParsedTrace& trace,
                    const std::vector<obs::PeriodLoad>& loads) {
  if (trace.runs.empty()) {
    std::cout << "run totals: none (no run record)\n\n";
    return true;
  }
  std::cout << "run totals:";
  for (const char* key : {"arrivals", "assigned", "completed", "dropped",
                          "shed", "expired", "bounced", "lost", "retries",
                          "messages"}) {
    std::cout << " " << key << "=" << RunTotal(trace, key);
  }
  std::cout << "\n\n";
  obs::PeriodLoad seen;
  for (const obs::PeriodLoad& load : loads) {
    seen.arrivals += load.arrivals;
    seen.assigns += load.assigns;
    seen.completes += load.completes;
    seen.bounces += load.bounces;
    seen.losses += load.losses;
    seen.sheds += load.sheds;
    seen.drops += load.drops;
  }
  struct Check {
    const char* total;
    const char* records;
    int64_t count;
  };
  const Check checks[] = {
      {"arrivals", "arrival", seen.arrivals},
      {"assigned", "assign", seen.assigns},
      {"completed", "complete", seen.completes},
      {"bounced", "bounce", seen.bounces},
      {"lost", "lost", seen.losses},
      {"shed", "shed", seen.sheds},
      {"dropped", "drop + shed", seen.drops + seen.sheds},
  };
  bool agree = true;
  for (const Check& check : checks) {
    int64_t total = RunTotal(trace, check.total);
    if (total != check.count) {
      std::cerr << "error: " << check.count << " " << check.records
                << " record(s), but the run total " << check.total << " is "
                << total << "\n";
      agree = false;
    }
  }
  return agree;
}

int Run(const Options& opts) {
  using obs::ParsedTrace;
  util::StatusOr<ParsedTrace> loaded = ParsedTrace::Load(opts.trace_path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status() << "\n";
    return 1;
  }
  const ParsedTrace& trace = loaded.value();

  // ---- Header: what this trace is.
  if (!trace.has_meta) {
    std::cerr << "warning: trace has no meta record; period bucketing "
                 "assumes 500ms periods\n";
  }
  const obs::MetaRecord& meta = trace.meta;
  std::cout << "trace: " << opts.trace_path << "\n"
            << "mechanism: " << meta.mechanism << "  nodes: " << meta.nodes
            << "  classes: " << meta.classes
            << "  period: " << meta.period_us / util::kMillisecond << "ms"
            << "  seed: " << meta.seed << "\n";
  if (!meta.solicitation.empty()) {
    std::cout << "solicitation: " << meta.solicitation;
    if (meta.fanout > 0) std::cout << "  fanout: " << meta.fanout;
    std::cout << "\n";
  }
  std::cout << "records: " << trace.NumRecords() << " ("
            << trace.events.size() << " events, " << trace.prices.size()
            << " prices, " << trace.agents.size() << " agents, "
            << trace.umpire.size() << " umpire, " << trace.runs.size()
            << " run)\n";

  // ---- Per-period activity and message overhead.
  std::vector<obs::PeriodLoad> loads = obs::LoadByPeriod(trace);
  if (!CheckRunTotals(trace, loads)) return 1;
  std::vector<obs::PriceDispersion> dispersion =
      obs::PriceVarianceByPeriod(trace);

  // Price variance rows keyed by (period, class) for the merged table.
  std::map<std::pair<int, int>, const obs::PriceDispersion*> by_cell;
  int num_classes = std::max(meta.classes, 1);
  for (const obs::PriceDispersion& d : dispersion) {
    by_cell[{d.period, d.class_id}] = &d;
    num_classes = std::max(num_classes, d.class_id + 1);
  }

  std::vector<std::string> header = {"Period",   "Arrivals", "Assigns",
                                     "Rejects",  "Drops",    "Messages",
                                     "Solicited", "Excess"};
  // Log-variance is the scale-free dispersion (see PriceDispersion in
  // obs/analysis.h): 0 = all nodes quote the same price.
  for (int c = 0; c < num_classes; ++c) {
    header.push_back("LogPriceVar(c" + std::to_string(c) + ")");
  }
  util::TableWriter period_table(std::move(header));
  int printed = 0;
  for (const obs::PeriodLoad& load : loads) {
    if (opts.max_periods > 0 && printed >= opts.max_periods) break;
    ++printed;
    period_table.BeginRow();
    period_table.AddCell(load.period);
    period_table.AddCell(load.arrivals);
    period_table.AddCell(load.assigns);
    period_table.AddCell(load.rejects);
    period_table.AddCell(load.drops);
    period_table.AddCell(load.messages);
    period_table.AddCell(load.solicited);
    period_table.AddCell(Fmt(load.ExcessRatio()));
    for (int c = 0; c < num_classes; ++c) {
      auto it = by_cell.find({load.period, c});
      period_table.AddCell(it != by_cell.end()
                               ? Fmt(it->second->log_variance)
                               : std::string("-"));
    }
  }
  Emit(period_table, opts.csv);
  if (opts.max_periods > 0 &&
      loads.size() > static_cast<size_t>(opts.max_periods)) {
    std::cout << "(" << loads.size() - opts.max_periods
              << " more periods; pass --periods=0 for all)\n\n";
  }

  // ---- Time-to-equilibrium.
  obs::EquilibriumResult eq =
      obs::TimeToEquilibrium(loads, meta, opts.band, opts.window);
  if (eq.found) {
    std::cout << "time-to-equilibrium: period " << eq.period << " (t="
              << Fmt(eq.time_ms) << "ms): excess demand stayed within "
              << Fmt(opts.band) << " for " << opts.window
              << " consecutive periods\n";
  } else {
    std::cout << "time-to-equilibrium: not reached (excess demand never "
                 "stayed within "
              << Fmt(opts.band) << " for " << opts.window
              << " consecutive periods)\n";
  }
  // Recovery: the same question asked after the *last* out-of-band period
  // — how long after the final workload shift the market needed to settle.
  size_t last_hot = loads.size();
  for (size_t i = 0; i < loads.size(); ++i) {
    if (loads[i].ExcessRatio() > opts.band) last_hot = i;
  }
  if (last_hot != loads.size()) {
    std::vector<obs::PeriodLoad> tail(loads.begin() + last_hot + 1,
                                      loads.end());
    obs::EquilibriumResult recovery =
        obs::TimeToEquilibrium(tail, meta, opts.band, opts.window);
    if (recovery.found) {
      std::cout << "recovery after last shift: period " << recovery.period
                << " (t=" << Fmt(recovery.time_ms) << "ms), "
                << recovery.period - static_cast<int>(last_hot) - 1
                << " period(s) after the last out-of-band period\n";
    } else {
      std::cout << "recovery after last shift: not reached within the "
                   "trace\n";
    }
  }

  // ---- Message overhead summary.
  int64_t total_messages = 0, total_assigns = 0, total_rejects = 0;
  for (const obs::PeriodLoad& load : loads) {
    total_messages += load.messages;
    total_assigns += load.assigns;
    total_rejects += load.rejects;
  }
  int64_t attempts = total_assigns + total_rejects;
  int64_t total_solicited = 0;
  for (const obs::EventRecord& event : trace.events) {
    total_solicited += event.solicited;
  }
  std::cout << "message overhead: " << total_messages << " messages over "
            << loads.size() << " periods";
  if (!loads.empty()) {
    std::cout << " (" << Fmt(static_cast<double>(total_messages) /
                             static_cast<double>(loads.size()))
              << "/period";
    if (attempts > 0) {
      std::cout << ", " << Fmt(static_cast<double>(total_messages) /
                               static_cast<double>(attempts))
                << "/allocation attempt";
      if (total_solicited > 0) {
        std::cout << ", " << Fmt(static_cast<double>(total_solicited) /
                                 static_cast<double>(attempts))
                  << " nodes solicited/attempt";
      }
    }
    std::cout << ")";
  }
  std::cout << "\n";

  // ---- Convergence: peak dispersion (the worst disagreement, normally
  // right after a workload shift) versus where the market ended up.
  for (int c = 0; c < num_classes; ++c) {
    const obs::PriceDispersion* peak = nullptr;
    const obs::PriceDispersion* last = nullptr;
    for (const obs::PriceDispersion& d : dispersion) {
      if (d.class_id != c) continue;
      if (peak == nullptr || d.log_variance > peak->log_variance) peak = &d;
      last = &d;
    }
    if (peak == nullptr || last == nullptr || peak == last) continue;
    std::cout << "log-price variance (class " << c << "): peak "
              << Fmt(peak->log_variance) << " @period " << peak->period
              << " -> " << Fmt(last->log_variance) << " @period "
              << last->period
              << (last->log_variance <= 0.5 * peak->log_variance
                      ? " (re-converged)"
                      : " (still dispersed)")
              << "\n";
  }

  // ---- Fault-recovery summary (--faults; schema v2 fault records).
  if (opts.faults) {
    std::vector<obs::FaultRecovery> recovery = obs::FaultRecoveryReport(trace);
    std::cout << "\nfaults: " << recovery.size()
              << " crash/restart/degrade transition(s) in the trace\n";
    if (!recovery.empty()) {
      util::TableWriter fault_table({"Kind", "Node", "t (ms)", "Factor",
                                     "PreVar", "PeakVar", "Reconverged",
                                     "Recovery (ms)"});
      int reconverged = 0;
      for (const obs::FaultRecovery& row : recovery) {
        if (row.reconverged) ++reconverged;
        fault_table.BeginRow();
        fault_table.AddCell(std::string(obs::EventKindName(row.kind)));
        fault_table.AddCell(row.node);
        fault_table.AddCell(row.t_us / util::kMillisecond);
        fault_table.AddCell(row.has_factor() ? Fmt(row.factor)
                                             : std::string("-"));
        fault_table.AddCell(Fmt(row.pre_fault_variance));
        fault_table.AddCell(Fmt(row.peak_variance));
        fault_table.AddCell(row.reconverged ? "yes" : "no");
        fault_table.AddCell(row.reconverged ? Fmt(row.recovery_ms)
                                            : std::string("-"));
      }
      Emit(fault_table, opts.csv);
      std::cout << reconverged << "/" << recovery.size()
                << " transition(s) with log-price variance back at or below "
                   "the pre-fault level\n";
    }
    // Observed fault damage, summed over the whole trace: how often the
    // mechanism bounced work off unreachable nodes and how many shipments
    // the faulty network ate.
    int64_t bounces = 0, losses = 0, drops = 0;
    for (const obs::PeriodLoad& load : loads) {
      bounces += load.bounces;
      losses += load.losses;
      drops += load.drops;
    }
    std::cout << "fault damage: " << bounces << " bounce(s), " << losses
              << " lost shipment(s), " << drops << " abandoned queries\n";
  }

  // ---- Overload summary (--shed; schema v4 shed/surge records).
  if (opts.shed) {
    int64_t total_sheds = 0, total_arrivals = 0;
    for (const obs::PeriodLoad& load : loads) {
      total_sheds += load.sheds;
      total_arrivals += load.arrivals;
    }
    std::cout << "\nshedding: " << total_sheds << " shed of "
              << total_arrivals << " arrival(s)";
    if (total_arrivals > 0) {
      std::cout << " ("
                << Fmt(static_cast<double>(total_sheds) /
                       static_cast<double>(total_arrivals))
                << " of offered load turned away)";
    }
    std::cout << "\n";
    // Only periods that shed anything make the table: at healthy load it
    // is empty, and under a flash crowd it shows exactly when the gate
    // leaned in and how hard.
    util::TableWriter shed_table({"Period", "Arrivals", "Completes", "Sheds",
                                  "Drops", "Shed/Arr"});
    int shed_periods = 0;
    for (const obs::PeriodLoad& load : loads) {
      if (load.sheds == 0) continue;
      ++shed_periods;
      if (opts.max_periods > 0 && shed_periods > opts.max_periods) continue;
      shed_table.BeginRow();
      shed_table.AddCell(load.period);
      shed_table.AddCell(load.arrivals);
      shed_table.AddCell(load.completes);
      shed_table.AddCell(load.sheds);
      shed_table.AddCell(load.drops);
      shed_table.AddCell(load.arrivals > 0
                             ? Fmt(static_cast<double>(load.sheds) /
                                   static_cast<double>(load.arrivals))
                             : std::string("-"));
    }
    if (shed_periods > 0) {
      Emit(shed_table, opts.csv);
      std::cout << shed_periods << " period(s) shed work\n";
    }
    // The surge windows that provoked it, straight from the trace.
    for (const obs::EventRecord& event : trace.events) {
      if (event.kind != obs::EventRecord::Kind::kSurge) continue;
      std::cout << "surge edge @ " << event.t_us / util::kMillisecond
                << "ms: factor " << Fmt(event.factor) << " (class "
                << (event.class_id < 0 ? std::string("all")
                                       : std::to_string(event.class_id))
                << ")\n";
    }
  }

  // ---- Hierarchical market (--clusters; schema v5 cluster records).
  if (opts.clusters) {
    // The trace carries the cluster count on the meta line for
    // hierarchical runs; fall back to the largest id the records mention
    // so pre-meta or hand-edited traces still tabulate.
    int num_clusters = meta.clusters;
    for (const obs::ClusterRecord& rec : trace.clusters) {
      num_clusters = std::max(num_clusters, rec.cluster + 1);
    }
    for (const obs::EventRecord& event : trace.events) {
      num_clusters = std::max(num_clusters, event.cluster + 1);
    }
    if (num_clusters == 0) {
      std::cout << "\nclusters: none (flat run — no hierarchical records "
                   "in the trace)\n";
    } else {
      // Routing side, from the events: where assigns landed and how many
      // clusters each attempt solicited.
      std::vector<int64_t> assigns(static_cast<size_t>(num_clusters), 0);
      std::vector<int64_t> rejects(static_cast<size_t>(num_clusters), 0);
      int64_t routed_attempts = 0, clusters_asked = 0;
      for (const obs::EventRecord& event : trace.events) {
        if (event.clusters_asked > 0) {
          ++routed_attempts;
          clusters_asked += event.clusters_asked;
        }
        if (event.cluster < 0) continue;
        size_t c = static_cast<size_t>(event.cluster);
        if (event.kind == obs::EventRecord::Kind::kAssign) ++assigns[c];
        if (event.kind == obs::EventRecord::Kind::kReject) ++rejects[c];
      }
      // Ledger side, from the periodic cluster records: the final
      // published/remaining/sold state per cluster (summed over classes)
      // and how many snapshots each cluster appeared in.
      std::vector<int64_t> published(static_cast<size_t>(num_clusters), 0);
      std::vector<int64_t> remaining(static_cast<size_t>(num_clusters), 0);
      std::vector<int64_t> sold(static_cast<size_t>(num_clusters), 0);
      std::vector<int64_t> samples(static_cast<size_t>(num_clusters), 0);
      int64_t last_t =
          trace.clusters.empty() ? -1 : trace.clusters.back().t_us;
      for (const obs::ClusterRecord& rec : trace.clusters) {
        size_t c = static_cast<size_t>(rec.cluster);
        ++samples[c];
        if (rec.t_us == last_t) {
          published[c] += rec.published;
          remaining[c] += rec.remaining;
          sold[c] += rec.sold;
        }
      }
      std::cout << "\nclusters: " << num_clusters << " (top fanout "
                << (meta.top_fanout > 0 ? std::to_string(meta.top_fanout)
                                        : std::string("broadcast"))
                << ", " << trace.clusters.size() << " ledger records)\n";
      if (routed_attempts > 0) {
        std::cout << "top tier: " << Fmt(static_cast<double>(clusters_asked) /
                                         static_cast<double>(routed_attempts))
                  << " cluster(s) solicited per routed attempt\n";
      }
      util::TableWriter cluster_table({"Cluster", "Samples", "Assigns",
                                       "Rejects", "Published", "Remaining",
                                       "Sold"});
      for (int c = 0; c < num_clusters; ++c) {
        size_t i = static_cast<size_t>(c);
        cluster_table.BeginRow();
        cluster_table.AddCell(c);
        cluster_table.AddCell(samples[i]);
        cluster_table.AddCell(assigns[i]);
        cluster_table.AddCell(rejects[i]);
        cluster_table.AddCell(published[i]);
        cluster_table.AddCell(remaining[i]);
        cluster_table.AddCell(sold[i]);
      }
      Emit(cluster_table, opts.csv);
    }
  }

  // ---- Watchdog alarms (--alarms=METRICS.jsonl; metrics sidecar file).
  if (!opts.alarms_path.empty()) {
    util::StatusOr<obs::metrics::ParsedMetrics> metrics =
        obs::metrics::ParsedMetrics::Load(opts.alarms_path);
    if (!metrics.ok()) {
      std::cerr << "error: --alarms: " << metrics.status() << "\n";
      return 1;
    }
    const std::vector<obs::metrics::AlarmRecord>& alarms =
        metrics.value().alarms;
    std::cout << "\nalarms: " << alarms.size()
              << " watchdog alarm(s) in " << opts.alarms_path << "\n";
    if (!alarms.empty()) {
      util::TableWriter alarm_table({"Watchdog", "Class", "t (ms)", "Period",
                                     "Value", "Threshold", "Detail"});
      for (const obs::metrics::AlarmRecord& alarm : alarms) {
        alarm_table.BeginRow();
        alarm_table.AddCell(alarm.watchdog);
        alarm_table.AddCell(alarm.class_id >= 0
                                ? std::to_string(alarm.class_id)
                                : std::string("-"));
        alarm_table.AddCell(alarm.t_us / util::kMillisecond);
        alarm_table.AddCell(alarm.period);
        alarm_table.AddCell(Fmt(alarm.value));
        alarm_table.AddCell(Fmt(alarm.threshold));
        alarm_table.AddCell(alarm.detail);
      }
      Emit(alarm_table, opts.csv);
    }
  }

  // ---- Umpire iterations (tatonnement traces only).
  if (!trace.umpire.empty()) {
    std::cout << "umpire: " << trace.umpire.size()
              << " price-adjustment records";
    const obs::UmpireRecord& last = trace.umpire.back();
    std::cout << "; final iter " << last.iter << " class " << last.class_id
              << " price " << Fmt(last.price) << " excess "
              << Fmt(last.excess) << "\n";
  }

  // ---- Fig. 5c-style tracking error.
  std::vector<obs::TrackingSeries> tracking = obs::ComputeTracking(
      trace, opts.bucket_ms * util::kMillisecond);
  if (!tracking.empty()) {
    std::cout << "\ntracking (bucket " << opts.bucket_ms << "ms):\n";
    util::TableWriter track_table(
        {"Class", "Buckets", "Arrivals", "Completions", "TrackingError"});
    for (const obs::TrackingSeries& series : tracking) {
      int64_t arrivals = 0, completions = 0;
      for (int64_t a : series.arrivals) arrivals += a;
      for (int64_t d : series.completions) completions += d;
      track_table.AddRow(series.class_id,
                         static_cast<int64_t>(series.arrivals.size()),
                         arrivals, completions, series.total_error);
    }
    Emit(track_table, opts.csv);
  }
  return 0;
}

}  // namespace
}  // namespace qa

int main(int argc, char** argv) {
  qa::Options opts;
  if (!qa::ParseArgs(argc, argv, &opts)) {
    qa::Usage(argv[0]);
    return 2;
  }
  return qa::Run(opts);
}
