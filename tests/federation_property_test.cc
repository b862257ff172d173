// Federation-level property fuzzing: ~30 seeded random scenarios (node
// counts, mechanisms, workloads, fault plans, solicitation policies) each
// run end to end, asserting the invariants that must hold for *any*
// configuration:
//   - conservation: arrivals == completed + dropped (nothing in flight
//     after Run drains; lost/bounced queries are resubmitted, not leaked)
//   - expired is a subset of dropped; shed is a subset of dropped and
//     admission rejects a subset of shed (overload protection never
//     leaks a query, it accounts it)
//   - every counter non-negative and internally consistent
//   - snapshot/price sanity every period (prices positive, supply within
//     plan, agent counters ordered)
// The market layer has property tests (tests/property_test.cc); this is
// the same discipline one level up, over the whole simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "allocation/factory.h"
#include "allocation/solicitation.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"
#include "obs/metrics/collector.h"
#include "obs/recorder.h"
#include "obs/trace_reader.h"
#include "sim/metrics_json.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "workload/sinusoid.h"

namespace qa::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

struct FuzzCase {
  int num_nodes = 0;
  std::string mechanism;
  allocation::SolicitationConfig solicitation;
  workload::SinusoidConfig workload;
  FederationConfig config;
  uint64_t seed = 0;
};

/// Derives one full random scenario from the case index. Everything comes
/// from the seeded Rng, so failures replay exactly from the case number.
FuzzCase MakeCase(int index) {
  util::Rng rng(0x5eedf00d + static_cast<uint64_t>(index) * 7919);
  FuzzCase c;
  c.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 20));
  c.num_nodes = static_cast<int>(rng.UniformInt(2, 25));

  // Mechanisms beyond the Fig. 4 grid (GreedyBlind, LeastImbalance) ride
  // along so the blind and centralized paths get fuzzed too.
  std::vector<std::string> mechanisms = allocation::AllMechanismNames();
  mechanisms.push_back("GreedyBlind");
  mechanisms.push_back("LeastImbalance");
  c.mechanism = mechanisms[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(mechanisms.size()) - 1))];

  // A third of the QA-NT cases use a sampled solicitation policy, with a
  // fanout that sometimes exceeds the node count (clamp path).
  if (c.mechanism == "QA-NT") {
    int64_t policy = rng.UniformInt(0, 2);
    if (policy == 1) {
      c.solicitation.policy = allocation::SolicitationPolicy::kUniformSample;
    } else if (policy == 2) {
      c.solicitation.policy =
          allocation::SolicitationPolicy::kStratifiedSample;
    }
    if (c.solicitation.sampled()) {
      c.solicitation.fanout = static_cast<int>(rng.UniformInt(1, 32));
    }
  }

  c.workload.frequency_hz = rng.UniformReal(0.05, 0.5);
  c.workload.duration = rng.UniformInt(4, 10) * kSecond;
  c.workload.num_origin_nodes = c.num_nodes;
  c.workload.q1_peak_rate = rng.UniformReal(2.0, 8.0) *
                            static_cast<double>(c.num_nodes) / 4.0;

  c.config.period = rng.UniformInt(200, 800) * kMillisecond;
  c.config.max_retries = static_cast<int>(rng.UniformInt(20, 200));
  c.config.seed = static_cast<int64_t>(c.seed);
  c.config.solicitation = c.solicitation;
  if (rng.Bernoulli(0.3)) {
    c.config.query_deadline = rng.UniformInt(2, 10) * kSecond;
  }

  // Half the cases carry a fault plan: a crash, a partition, a degrade —
  // windows kept inside the workload so transitions actually fire.
  if (rng.Bernoulli(0.5)) {
    util::VTime horizon = c.workload.duration;
    faults::CrashFault crash;
    crash.node = static_cast<catalog::NodeId>(
        rng.UniformInt(0, c.num_nodes - 1));
    crash.at = rng.UniformInt(1, horizon / (2 * kSecond)) * kSecond;
    crash.restart_at = crash.at + rng.UniformInt(1, 3) * kSecond;
    c.config.faults.crashes.push_back(crash);
    if (rng.Bernoulli(0.5)) {
      faults::PartitionFault partition;
      partition.nodes = {static_cast<catalog::NodeId>(
          rng.UniformInt(0, c.num_nodes - 1))};
      partition.from = rng.UniformInt(1, horizon / (2 * kSecond)) * kSecond;
      partition.until = partition.from + rng.UniformInt(1, 3) * kSecond;
      c.config.faults.partitions.push_back(partition);
    }
    if (rng.Bernoulli(0.5)) {
      faults::DegradeFault degrade;
      degrade.node = static_cast<catalog::NodeId>(
          rng.UniformInt(0, c.num_nodes - 1));
      degrade.from = rng.UniformInt(1, horizon / (2 * kSecond)) * kSecond;
      degrade.until = degrade.from + rng.UniformInt(1, 3) * kSecond;
      degrade.factor = rng.UniformReal(0.3, 0.9);
      c.config.faults.degrades.push_back(degrade);
    }
  }

  // Overload dimensions ride along after the original draws so the first
  // part of every case derivation (and the paths it covers) is unchanged.
  // Surges: a flash crowd (or a lull — multipliers below 1 thin the
  // trace), global or confined to one of the two classes.
  if (rng.Bernoulli(0.4)) {
    faults::SurgeFault surge;
    surge.class_id = static_cast<int>(rng.UniformInt(-1, 1));
    surge.from = rng.UniformInt(0, c.workload.duration / (2 * kSecond)) *
                 kSecond;
    surge.until = surge.from + rng.UniformInt(1, 3) * kSecond;
    surge.multiplier = rng.UniformReal(0.5, 4.0);
    c.config.faults.surges.push_back(surge);
  }
  // Bounded queues + retry backlog with a random shed policy.
  if (rng.Bernoulli(0.4)) {
    c.config.max_node_queue = static_cast<int>(rng.UniformInt(2, 30));
    c.config.max_retry_backlog = static_cast<int>(rng.UniformInt(10, 300));
    c.config.shed_policy = rng.Bernoulli(0.5)
                               ? ShedPolicy::kNewestFirst
                               : ShedPolicy::kLowestPriorityFirst;
  }
  // Admission control: static threshold or price-signal, reject or defer.
  if (rng.Bernoulli(0.4)) {
    c.config.admission.policy = rng.Bernoulli(0.5)
                                    ? AdmissionPolicy::kStatic
                                    : AdmissionPolicy::kPriceSignal;
    c.config.admission.max_outstanding =
        rng.UniformInt(5, 50) * static_cast<int64_t>(c.num_nodes);
    c.config.admission.defer = rng.Bernoulli(0.5);
    // Half the price-signal draws exercise the slow-tracking baseline.
    if (rng.Bernoulli(0.5)) c.config.admission.baseline_alpha = 0.05;
  }
  // Hierarchical two-tier topologies ride along after every earlier draw
  // so the existing corpus replays byte-identically. Only QA-NT consumes
  // the plan; membership is drawn per node, so cluster sizes skew
  // naturally and small plans can come out with an empty cluster (legal —
  // the cluster simply never wins the top-tier auction).
  if (c.mechanism == "QA-NT" && rng.Bernoulli(0.5)) {
    int num_clusters =
        static_cast<int>(rng.UniformInt(1, std::min(c.num_nodes, 6)));
    c.config.cluster_plan.enabled = true;
    c.config.cluster_plan.clusters.assign(
        static_cast<size_t>(num_clusters), {});
    for (int node = 0; node < c.num_nodes; ++node) {
      int64_t cl = rng.UniformInt(0, num_clusters - 1);
      c.config.cluster_plan.clusters[static_cast<size_t>(cl)].push_back(
          static_cast<catalog::NodeId>(node));
    }
    if (rng.Bernoulli(0.5)) {
      c.config.cluster_plan.top.policy =
          allocation::SolicitationPolicy::kUniformSample;
      c.config.cluster_plan.top.fanout =
          static_cast<int>(rng.UniformInt(1, 8));
    }
  }
  return c;
}

void CheckInvariants(const FuzzCase& c, const workload::Trace& trace,
                     const SimMetrics& m, const obs::ParsedTrace& parsed) {
  // The simulator's own arrival counter, not the input trace length:
  // surge windows clone (or thin) scheduled arrivals, so the trace size
  // only bounds the count when no surge is configured.
  int64_t arrivals = m.arrivals;
  if (c.config.faults.surges.empty()) {
    EXPECT_EQ(arrivals, static_cast<int64_t>(trace.size()));
  }

  // Conservation: Run drains the event loop, so nothing is in flight and
  // every arrival either completed or was dropped. Lost/bounced queries
  // were resubmitted, never leaked — and shed queries were accounted as
  // drops, never leaked either.
  EXPECT_EQ(arrivals, m.completed + m.dropped);

  // Expired queries are a subset of the dropped ones; so are shed
  // queries, and admission rejects are a subset of the sheds.
  EXPECT_LE(m.expired, m.dropped);
  EXPECT_GE(m.expired, 0);
  EXPECT_LE(m.shed, m.dropped);
  EXPECT_GE(m.shed, 0);
  EXPECT_LE(m.admission_rejects, m.shed);
  EXPECT_GE(m.admission_rejects, 0);
  if (c.config.admission.policy == AdmissionPolicy::kOff) {
    EXPECT_EQ(m.admission_rejects, 0);
  }

  // Non-negative, internally consistent counters.
  EXPECT_GE(m.completed, 0);
  EXPECT_GE(m.dropped, 0);
  EXPECT_GE(m.retries, 0);
  EXPECT_GE(m.bounced, 0);
  EXPECT_GE(m.lost, 0);
  EXPECT_GE(m.messages, 0);
  EXPECT_GE(m.solicited, 0);
  EXPECT_GE(m.assigned, m.completed);  // every completion was assigned
  EXPECT_GE(m.end_time, 0);
  EXPECT_GE(m.total_busy_time, 0);
  EXPECT_GT(m.events_dispatched, 0);
  EXPECT_EQ(m.response_time_ms.count(), m.completed);

  // Per-node completions cover every federation-level completion, plus at
  // most the expired queries: a result that lands past the deadline still
  // ran on the node (counted there) but is dropped as expired up here.
  int64_t node_sum = 0;
  for (int64_t n : m.node_completed) {
    EXPECT_GE(n, 0);
    node_sum += n;
  }
  EXPECT_GE(node_sum, m.completed);
  EXPECT_LE(node_sum, m.completed + m.expired);

  int64_t per_class_drops = 0;
  for (int64_t d : m.dropped_per_class) {
    EXPECT_GE(d, 0);
    per_class_drops += d;
  }
  EXPECT_EQ(per_class_drops, m.dropped);

  // Trace-side conservation: one arrival record per query, completions
  // match, timestamps never run backwards.
  int64_t rec_arrivals = 0, rec_completes = 0, rec_drops = 0;
  int64_t rec_sheds = 0, rec_surges = 0;
  int64_t last_t = 0;
  for (const obs::EventRecord& event : parsed.events) {
    EXPECT_GE(event.t_us, last_t) << "event time ran backwards";
    last_t = event.t_us;
    EXPECT_GE(event.solicited, 0);
    switch (event.kind) {
      case obs::EventRecord::Kind::kArrival:
        ++rec_arrivals;
        break;
      case obs::EventRecord::Kind::kComplete:
        ++rec_completes;
        break;
      case obs::EventRecord::Kind::kDrop:
        ++rec_drops;
        break;
      case obs::EventRecord::Kind::kShed:
        ++rec_sheds;
        break;
      case obs::EventRecord::Kind::kSurge:
        ++rec_surges;
        EXPECT_GT(event.factor, 0.0);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(rec_arrivals, arrivals);
  EXPECT_EQ(rec_completes, m.completed);
  // Shed queries log a `shed` record instead of a `drop` record; together
  // the two cover every dropped query.
  EXPECT_EQ(rec_sheds, m.shed);
  EXPECT_EQ(rec_drops + rec_sheds, m.dropped);
  // One start + one end marker per configured surge window.
  EXPECT_EQ(rec_surges,
            2 * static_cast<int64_t>(c.config.faults.surges.size()));
  // The trace closes with exactly one `run` record: the run's SimMetrics,
  // rendered as the run report renders them (the trace keeps no tallies).
  ASSERT_EQ(parsed.runs.size(), 1u);
  EXPECT_EQ(parsed.runs[0].metrics.Dump(), MetricsToJson(m).Dump());

  // Snapshot sanity, every period: prices positive, unsold supply within
  // the period plan, agent counters ordered (requests >= offers >=
  // accepted).
  for (const obs::PriceRecord& price : parsed.prices) {
    EXPECT_GT(price.price, 0.0) << "node " << price.node << " class "
                                << price.class_id << " at t=" << price.t_us;
    EXPECT_GE(price.planned, 0);
    EXPECT_GE(price.remaining, 0);
    EXPECT_LE(price.remaining, price.planned);
    EXPECT_GE(price.node, 0);
    EXPECT_LT(price.node, c.num_nodes);
  }
  // Note: budget_us may legitimately be negative — over-acceptance within
  // a period is carried into the next one as debt (budget-elastic
  // admission), so no lower bound is asserted on it.
  for (const obs::AgentRecord& agent : parsed.agents) {
    EXPECT_GE(agent.requests, agent.offers);
    EXPECT_GE(agent.offers, agent.accepted);
    EXPECT_GE(agent.declined, 0);
    EXPECT_GE(agent.periods, 0);
  }

  // Hierarchical-market invariants: cluster solicitations only happen
  // under a multi-cluster plan, and every cluster ledger snapshot stays
  // within its published aggregate.
  EXPECT_GE(m.clusters_solicited, 0);
  if (!c.config.cluster_plan.hierarchical()) {
    EXPECT_EQ(m.clusters_solicited, 0);
    EXPECT_TRUE(parsed.clusters.empty());
  }
  int num_clusters = c.config.cluster_plan.num_clusters();
  for (const obs::ClusterRecord& rec : parsed.clusters) {
    EXPECT_GE(rec.cluster, 0);
    EXPECT_LT(rec.cluster, num_clusters);
    EXPECT_GE(rec.published, 0);
    EXPECT_GE(rec.remaining, 0);
    EXPECT_LE(rec.remaining, rec.published);
    EXPECT_GE(rec.sold, 0);
  }
  for (const obs::EventRecord& event : parsed.events) {
    EXPECT_GE(event.clusters_asked, 0);
    EXPECT_GE(event.cluster, -1);
    EXPECT_LT(event.cluster, num_clusters);
    if (!c.config.cluster_plan.hierarchical()) {
      EXPECT_EQ(event.cluster, -1);
      EXPECT_EQ(event.clusters_asked, 0);
    }
  }
}

TEST(FederationPropertyTest, InvariantsHoldOnRandomScenarios) {
  constexpr int kCases = 48;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("fuzz case " + std::to_string(i));
    FuzzCase c = MakeCase(i);
    SCOPED_TRACE("mechanism " + c.mechanism + " nodes " +
                 std::to_string(c.num_nodes) + " solicitation " +
                 std::string(allocation::SolicitationPolicyName(
                     c.solicitation.policy)) +
                 "(" + std::to_string(c.solicitation.fanout) + ")");

    util::Rng rng(c.seed);
    TwoClassConfig scenario;
    scenario.num_nodes = c.num_nodes;
    auto model = BuildTwoClassCostModel(scenario, rng);
    util::Rng wl_rng(c.seed + 1);
    workload::Trace trace =
        workload::GenerateSinusoidWorkload(c.workload, wl_rng);

    std::string path = ::testing::TempDir() + "/federation_fuzz_" +
                       std::to_string(i) + ".jsonl";
    util::StatusOr<std::unique_ptr<obs::Recorder>> recorder =
        obs::Recorder::OpenFile(path);
    ASSERT_TRUE(recorder.ok()) << recorder.status();

    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.mechanism = c.mechanism;
    spec.trace = &trace;
    spec.period = c.config.period;
    spec.seed = c.seed;
    spec.config = c.config;
    spec.config.recorder = recorder.value().get();
    SimMetrics metrics = exec::RunSpecOnce(spec).metrics;
    recorder.value()->Finish();

    util::StatusOr<obs::ParsedTrace> parsed = obs::ParsedTrace::Load(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    CheckInvariants(c, trace, metrics, parsed.value());
  }
}

/// What one replay produces: everything that must be byte-identical
/// across shard/thread layouts.
struct ReplayResult {
  std::string metrics_json;  // final SimMetrics as JSON
  std::string trace_bytes;   // full JSONL trace
  /// The deterministic lines of the metrics stream (msample + alarm).
  /// mmeta carries the layout by design, and mstat/mshards carry
  /// wall-clock values, so those are compared by record count instead.
  std::string deterministic_metrics;
  size_t mstat_lines = 0;
};

/// Splits the collector's JSONL stream into the deterministic byte-compare
/// half and the record-count half.
void SplitMetricsStream(const std::string& stream, ReplayResult* out) {
  std::istringstream lines(stream);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"msample\"") != std::string::npos ||
        line.find("\"type\":\"alarm\"") != std::string::npos) {
      out->deterministic_metrics += line;
      out->deterministic_metrics += '\n';
    } else if (line.find("\"type\":\"mstat\"") != std::string::npos) {
      ++out->mstat_lines;
    }
  }
}

/// Replays one fuzz case end to end under the given shard/thread layout
/// — trace recorder AND metrics collector attached, so the byte-identity
/// contract covers both observability streams. The 1-shard, 1-thread
/// layout leaves config.runner unset: one lane, drained serially.
ReplayResult ReplayCase(const FuzzCase& c, int index,
                        int shards, int threads,
                        const std::string& tag) {
  util::Rng rng(c.seed);
  TwoClassConfig scenario;
  scenario.num_nodes = c.num_nodes;
  auto model = BuildTwoClassCostModel(scenario, rng);
  util::Rng wl_rng(c.seed + 1);
  workload::Trace trace =
      workload::GenerateSinusoidWorkload(c.workload, wl_rng);

  std::string path = ::testing::TempDir() + "/federation_shard_" +
                     std::to_string(index) + "_" + tag + ".jsonl";
  ReplayResult result;
  std::ostringstream metrics_stream;
  {
    exec::ThreadPool pool(threads);
    exec::PoolRunner runner(&pool);
    util::StatusOr<std::unique_ptr<obs::Recorder>> recorder =
        obs::Recorder::OpenFile(path);
    EXPECT_TRUE(recorder.ok()) << recorder.status();
    obs::metrics::Collector collector(&metrics_stream);
    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.mechanism = c.mechanism;
    spec.trace = &trace;
    spec.period = c.config.period;
    spec.seed = c.seed;
    spec.config = c.config;
    spec.config.recorder = recorder.value().get();
    spec.config.metrics = &collector;
    spec.config.shards = shards;
    if (shards > 1 || threads > 1) spec.config.runner = &runner;
    result.metrics_json =
        MetricsToJson(exec::RunSpecOnce(spec).metrics).Dump();
    recorder.value()->Finish();
    collector.Finish();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  result.trace_bytes = std::move(bytes).str();
  SplitMetricsStream(metrics_stream.str(), &result);
  return result;
}

/// FNV-1a (64-bit) of a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The pinned fingerprint of one fuzz case's replay: FNV-1a digests of the
/// final metrics JSON, the trace bytes, and the deterministic (msample +
/// alarm) half of the metrics stream.
struct CaseDigests {
  uint64_t metrics = 0;
  uint64_t trace = 0;
  uint64_t stream = 0;
};

CaseDigests DigestOf(const ReplayResult& run) {
  return {Fnv1a(run.metrics_json), Fnv1a(run.trace_bytes),
          Fnv1a(run.deterministic_metrics)};
}

/// Reads the pinned digests: one "case metrics trace stream" line per
/// case (hex digests), '#' lines are comments.
std::vector<CaseDigests> LoadFuzzDigests(const std::string& path) {
  std::vector<CaseDigests> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    size_t index = 0;
    CaseDigests d;
    fields >> index >> std::hex >> d.metrics >> d.trace >> d.stream;
    if (!fields || index != digests.size()) return {};
    digests.push_back(d);
  }
  return digests;
}

void WriteFuzzDigests(const std::string& path,
                      const std::vector<CaseDigests>& digests) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# FNV-1a digests of the fuzz corpus replays (federation_property_"
         "test):\n"
      << "# case, metrics JSON, trace bytes, msample+alarm lines. Pinned "
         "from the\n"
      << "# single-queue reference loop; every layout must reproduce them. "
         "Regenerate\n"
      << "# only for an intended modeled change: QA_UPDATE_GOLDEN=1 "
         "./federation_property_test\n";
  char row[80];
  for (size_t i = 0; i < digests.size(); ++i) {
    std::snprintf(row, sizeof(row), "%zu %016llx %016llx %016llx\n", i,
                  static_cast<unsigned long long>(digests[i].metrics),
                  static_cast<unsigned long long>(digests[i].trace),
                  static_cast<unsigned long long>(digests[i].stream));
    out << row;
  }
}

/// Compares one layout's replay against the pinned digests.
void ExpectPinned(const CaseDigests& want, const CaseDigests& got) {
  EXPECT_EQ(want.metrics, got.metrics) << "metrics JSON digest";
  EXPECT_EQ(want.trace, got.trace) << "trace bytes digest";
  EXPECT_EQ(want.stream, got.stream) << "msample/alarm digest";
}

// The layout contract over the whole fuzz corpus: every scenario — every
// mechanism, fault plan, deadline, and solicitation policy the corpus
// generates — must reproduce the pinned digests of its metrics, trace
// bytes AND the deterministic half of the metrics stream (every msample
// and alarm line) on one serially drained lane (S1T1), on 4 lanes drained
// by a 1-thread pool (S4T1), and on 4 lanes over an 8-thread pool (S4T8).
// The digests were pinned from the single-queue loop the simulator used to
// run without lanes, so this is the strongest statement the repo can make
// that the fenced lane merge reproduces the canonical event order exactly
// — and that profiling rides along without perturbing it. The wall-clock
// mstat block only has to keep its record count: one line per catalog
// histogram.
TEST(FederationPropertyTest, ShardedReplayIsByteIdenticalToInline) {
  constexpr int kCases = 48;
  const std::string path =
      std::string(QA_TEST_SOURCE_DIR) + "/tests/golden/fuzz_digests.txt";
  const bool update = std::getenv("QA_UPDATE_GOLDEN") != nullptr;
  std::vector<CaseDigests> pinned;
  if (!update) {
    pinned = LoadFuzzDigests(path);
    ASSERT_EQ(pinned.size(), static_cast<size_t>(kCases))
        << path << " missing or malformed; regenerate with "
        << "QA_UPDATE_GOLDEN=1";
  }
  struct Layout {
    int shards;
    int threads;
    const char* tag;
  };
  constexpr Layout kLayouts[] = {{1, 1, "s1t1"}, {4, 1, "s4t1"},
                                 {4, 8, "s4t8"}};
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("fuzz case " + std::to_string(i));
    FuzzCase c = MakeCase(i);
    SCOPED_TRACE("mechanism " + c.mechanism + " nodes " +
                 std::to_string(c.num_nodes) + " faults " +
                 std::to_string(c.config.faults.crashes.size() +
                                c.config.faults.partitions.size() +
                                c.config.faults.degrades.size()));
    ReplayResult reference;
    for (const Layout& layout : kLayouts) {
      SCOPED_TRACE(layout.tag);
      ReplayResult run =
          ReplayCase(c, i, layout.shards, layout.threads, layout.tag);
      if (update && layout.shards == 1) pinned.push_back(DigestOf(run));
      ExpectPinned(pinned[static_cast<size_t>(i)], DigestOf(run));
      // One mstat line per catalog histogram, at every layout.
      EXPECT_EQ(run.mstat_lines,
                static_cast<size_t>(obs::metrics::kMetricCount));
      if (layout.shards == 1) reference = std::move(run);
    }

    // Admission snapshot sanity: the brownout level every msample reports
    // must be a valid class count (0 = no brownout, at most the two
    // classes of the scenario), and identically zero when admission is
    // off.
    std::istringstream lines(reference.deterministic_metrics);
    std::string line;
    while (std::getline(lines, line)) {
      size_t pos = line.find("\"brownout\":");
      if (pos == std::string::npos) continue;
      int level = std::stoi(line.substr(pos + 11));
      EXPECT_GE(level, 0) << line;
      EXPECT_LE(level, 2) << line;
      if (c.config.admission.policy != AdmissionPolicy::kPriceSignal) {
        EXPECT_EQ(level, 0) << line;
      }
    }
  }
  if (update) WriteFuzzDigests(path, pinned);
}

// Regression: a crash loses tasks on a node lane while the mediator's
// retry backlog is at its bound. Whether each lost query is shed or
// resubmitted depends on when its loss takes a backlog slot; that must be
// the merge at the next fence at every layout, never the loss's own time,
// or the shard count changes the outcome.
TEST(FederationPropertyTest, CrashUnderFullRetryBacklogIsLayoutInvariant) {
  FuzzCase c;
  c.seed = 6;  // cost model from Rng(6), workload from Rng(7)
  c.num_nodes = 6;
  c.mechanism = "QA-NT";
  c.workload.q1_peak_rate = 40.0;
  c.workload.frequency_hz = 0.2;
  c.workload.duration = 10 * kSecond;
  c.workload.num_origin_nodes = c.num_nodes;
  c.config.period = 500 * kMillisecond;
  c.config.max_retries = 200;
  c.config.max_retry_backlog = 10;
  c.config.seed = static_cast<int64_t>(c.seed);
  c.config.faults.crashes.push_back({/*node=*/0, 3 * kSecond, 5 * kSecond});

  ReplayResult reference = ReplayCase(c, 1000, 1, 1, "backlog_s1t1");
  // The scenario must reach the path: crash losses and backlog sheds.
  EXPECT_NE(reference.trace_bytes.find("\"kind\":\"lost\""),
            std::string::npos);
  EXPECT_NE(reference.trace_bytes.find("\"kind\":\"shed\""),
            std::string::npos);
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      if (shards == 1 && threads == 1) continue;
      std::string tag =
          "backlog_s" + std::to_string(shards) + "t" + std::to_string(threads);
      SCOPED_TRACE(tag);
      ReplayResult run = ReplayCase(c, 1000, shards, threads, tag);
      EXPECT_EQ(reference.metrics_json, run.metrics_json);
      // Digests keep a failure's report short; the metrics line above
      // already shows which counters moved.
      ExpectPinned(DigestOf(reference), DigestOf(run));
    }
  }
}

// The fuzz corpus must actually exercise the interesting paths; if a
// refactor of MakeCase silently stops generating sampled solicitation or
// fault plans, these canaries fail instead of the coverage quietly rotting.
TEST(FederationPropertyTest, CorpusCoversTheInterestingPaths) {
  int sampled = 0, faulted = 0, deadlined = 0, qa_nt = 0;
  int surged = 0, bounded = 0, admitted = 0, deferred = 0;
  int clustered = 0, degenerate = 0, empty_cluster = 0, skewed = 0;
  for (int i = 0; i < 48; ++i) {
    FuzzCase c = MakeCase(i);
    if (c.solicitation.sampled()) ++sampled;
    if (!c.config.faults.empty()) ++faulted;
    if (c.config.query_deadline > 0) ++deadlined;
    if (c.mechanism == "QA-NT") ++qa_nt;
    if (!c.config.faults.surges.empty()) ++surged;
    if (c.config.max_node_queue < (1 << 30)) ++bounded;
    if (c.config.admission.policy != AdmissionPolicy::kOff) ++admitted;
    if (c.config.admission.policy != AdmissionPolicy::kOff &&
        c.config.admission.defer) {
      ++deferred;
    }
    const allocation::ClusterPlan& plan = c.config.cluster_plan;
    if (plan.hierarchical()) ++clustered;
    if (plan.enabled && plan.num_clusters() == 1) ++degenerate;
    size_t min_size = SIZE_MAX, max_size = 0;
    for (const auto& members : plan.clusters) {
      if (members.empty()) ++empty_cluster;
      min_size = std::min(min_size, members.size());
      max_size = std::max(max_size, members.size());
    }
    if (plan.hierarchical() && max_size >= 2 * std::max(min_size, size_t{1}))
      ++skewed;
  }
  EXPECT_GE(sampled, 1);
  EXPECT_GE(faulted, 5);
  EXPECT_GE(deadlined, 3);
  EXPECT_GE(qa_nt, 1);
  EXPECT_GE(surged, 5);
  EXPECT_GE(bounded, 5);
  EXPECT_GE(admitted, 5);
  EXPECT_GE(deferred, 1);
  // Hierarchical topologies: multi-cluster plans, at least one degenerate
  // 1-cluster plan (the flat-equivalence path), an empty cluster, and a
  // skewed size split must all appear in the corpus.
  EXPECT_GE(clustered, 2);
  EXPECT_GE(degenerate + clustered, 3);
  EXPECT_GE(empty_cluster, 1);
  EXPECT_GE(skewed, 1);
}

}  // namespace
}  // namespace qa::sim
