#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "exec/experiment_runner.h"
#include "exec/thread_pool.h"
#include "market/tatonnement.h"
#include "sim/scenario.h"
#include "workload/sinusoid.h"
#include "obs/analysis.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/snapshot.h"
#include "obs/trace_reader.h"
#include "obs/trace_schema.h"
#include "util/logging.h"
#include "util/vtime.h"

namespace qa::obs {
namespace {

using util::kMillisecond;

// ------------------------------------------------------------------ Json

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_TRUE(Json::Parse("true").value().AsBool(false));
  EXPECT_FALSE(Json::Parse("false").value().AsBool(true));
  EXPECT_EQ(Json::Parse("42").value().AsInt(), 42);
  EXPECT_EQ(Json::Parse("-7").value().AsInt(), -7);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5").value().AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3").value().AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"").value().AsString(), "hi");
}

TEST(JsonTest, IntAndDoubleAreDistinctButCoerce) {
  Json i = Json::Parse("42").value();
  Json d = Json::Parse("42.0").value();
  EXPECT_TRUE(i.is_int());
  EXPECT_FALSE(i.is_double());
  EXPECT_TRUE(d.is_double());
  // Cross-type reads coerce instead of falling back.
  EXPECT_DOUBLE_EQ(i.AsDouble(), 42.0);
  EXPECT_EQ(d.AsInt(), 42);
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndOverwrites) {
  Json obj = Json::MakeObject();
  obj.Set("b", 1);
  obj.Set("a", 2);
  obj.Set("b", 3);  // overwrite in place, no duplicate key
  EXPECT_EQ(obj.Dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(obj.GetInt("b"), 3);
  EXPECT_EQ(obj.GetInt("missing", -1), -1);
}

TEST(JsonTest, RoundTripsEscapesAndNesting) {
  std::string text =
      "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,\"x\"],"
      "\"nested\":{\"k\":true}}";
  Json parsed = Json::Parse(text).value();
  EXPECT_EQ(parsed.GetString("s"), "a\"b\\c\n");
  // Dump -> Parse -> Dump is a fixed point.
  std::string dumped = parsed.Dump();
  EXPECT_EQ(Json::Parse(dumped).value().Dump(), dumped);
}

TEST(JsonTest, DoublesPrintShortestRoundTrip) {
  EXPECT_EQ(Json(0.1).Dump(), "0.1");
  // Integral doubles keep a decimal point (reparse as double, not int).
  EXPECT_EQ(Json(390.0).Dump(), "390.0");
  EXPECT_EQ(Json(-2.0).Dump(), "-2.0");
  Json third(1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Json::Parse(third.Dump()).value().AsDouble(),
                   1.0 / 3.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());  // trailing characters
}

// --------------------------------------------------- Schema round trip

// The acceptance lock for the trace format: every record type written
// through the Recorder parses back to an identical struct, including the
// fields that are omitted on write because they hold their default.
TEST(TraceSchemaTest, WriteParseRoundTripIsExact) {
  MetaRecord meta;
  meta.mechanism = "QA-NT";
  meta.nodes = 2;
  meta.classes = 2;
  meta.period_us = 500 * kMillisecond;
  meta.ticks_per_period = 8;
  meta.seed = 42;
  meta.solicitation = "uniform-sample";  // v3: solicitation policy + fanout
  meta.fanout = 4;

  EventRecord arrival;
  arrival.kind = EventRecord::Kind::kArrival;
  arrival.t_us = 1000;
  arrival.query = 7;
  arrival.class_id = 1;
  arrival.origin = 0;  // node/messages/attempts/response_ms stay default

  EventRecord assign;
  assign.kind = EventRecord::Kind::kAssign;
  assign.t_us = 1200;
  assign.query = 7;
  assign.class_id = 1;
  assign.node = 1;
  assign.messages = 9;
  assign.solicited = 4;  // v3: nodes asked for offers on this attempt
  assign.attempts = 1;

  EventRecord complete;
  complete.kind = EventRecord::Kind::kComplete;
  complete.t_us = 412250;
  complete.query = 7;
  complete.class_id = 1;
  complete.node = 1;
  complete.response_ms = 411.25;

  PriceRecord price;
  price.t_us = 500000;
  price.node = 1;
  price.class_id = 0;
  price.price = 3.375;
  price.planned = 2;  // remaining stays default (0) and is omitted

  AgentRecord agent;
  agent.t_us = 500000;
  agent.node = 0;
  agent.requests = 12;
  agent.offers = 9;
  agent.accepted = 5;
  agent.declined = 3;
  agent.periods = 1;
  agent.earnings = 16.5;

  UmpireRecord umpire;
  umpire.iter = 17;
  umpire.class_id = 1;
  umpire.price = 0.25;
  umpire.excess = -2.0;

  // v6: the run's totals close its trace, as one nested metrics object.
  RunRecord run;
  run.metrics.Set("arrivals", int64_t{1});
  run.metrics.Set("completed", int64_t{1});
  run.metrics.Set("mean_ms", 411.25);
  Json per_class = Json::MakeArray();
  per_class.Append(int64_t{0});
  per_class.Append(int64_t{1});
  run.metrics.Set("completed_per_class", std::move(per_class));

  std::ostringstream sink;
  {
    Recorder recorder(&sink);
    recorder.Record(meta);
    recorder.Record(arrival);
    recorder.Record(assign);
    recorder.Record(complete);
    recorder.Record(price);
    recorder.Record(agent);
    recorder.Record(umpire);
    recorder.Record(run);
    recorder.Finish();
  }

  std::istringstream in(sink.str());
  util::StatusOr<ParsedTrace> parsed = ParsedTrace::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ParsedTrace& trace = parsed.value();

  ASSERT_TRUE(trace.has_meta);
  EXPECT_EQ(trace.meta, meta);
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0], arrival);
  EXPECT_EQ(trace.events[1], assign);
  EXPECT_EQ(trace.events[2], complete);
  ASSERT_EQ(trace.prices.size(), 1u);
  EXPECT_EQ(trace.prices[0], price);
  ASSERT_EQ(trace.agents.size(), 1u);
  EXPECT_EQ(trace.agents[0], agent);
  ASSERT_EQ(trace.umpire.size(), 1u);
  EXPECT_EQ(trace.umpire[0], umpire);
  ASSERT_EQ(trace.runs.size(), 1u);
  EXPECT_EQ(trace.runs[0], run);
  EXPECT_EQ(trace.NumRecords(), 8u);
}

TEST(TraceSchemaTest, EveryEventKindRoundTripsByName) {
  for (EventRecord::Kind kind :
       {EventRecord::Kind::kArrival, EventRecord::Kind::kAssign,
        EventRecord::Kind::kReject, EventRecord::Kind::kDrop,
        EventRecord::Kind::kBounce, EventRecord::Kind::kDeliver,
        EventRecord::Kind::kComplete, EventRecord::Kind::kTick,
        EventRecord::Kind::kCrash, EventRecord::Kind::kRestart,
        EventRecord::Kind::kDegrade, EventRecord::Kind::kLost}) {
    EventRecord::Kind parsed = EventRecord::Kind::kTick;
    ASSERT_TRUE(ParseEventKind(EventKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EventRecord::Kind unused;
  EXPECT_FALSE(ParseEventKind("warp", &unused));
}

TEST(TraceSchemaTest, FaultEventsRoundTripWithFactor) {
  EventRecord crash;
  crash.kind = EventRecord::Kind::kCrash;
  crash.t_us = 2000;
  crash.node = 3;

  EventRecord degrade;
  degrade.kind = EventRecord::Kind::kDegrade;
  degrade.t_us = 2500;
  degrade.node = 1;
  degrade.factor = 0.5;

  EventRecord lost;
  lost.kind = EventRecord::Kind::kLost;
  lost.t_us = 2600;
  lost.query = 9;
  lost.class_id = 1;
  lost.node = 3;
  lost.attempts = 2;

  EventRecord restart;
  restart.kind = EventRecord::Kind::kRestart;
  restart.t_us = 4000;
  restart.node = 3;

  std::ostringstream sink;
  {
    Recorder recorder(&sink);
    MetaRecord meta;
    meta.mechanism = "QA-NT";
    recorder.Record(meta);
    recorder.Record(crash);
    recorder.Record(degrade);
    recorder.Record(lost);
    recorder.Record(restart);
  }
  std::istringstream in(sink.str());
  util::StatusOr<ParsedTrace> parsed = ParsedTrace::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->events.size(), 4u);
  EXPECT_EQ(parsed->events[0], crash);
  EXPECT_EQ(parsed->events[1], degrade);
  EXPECT_EQ(parsed->events[2], lost);
  EXPECT_EQ(parsed->events[3], restart);
  // The degrade factor survives the trip; non-degrade records omit it.
  EXPECT_DOUBLE_EQ(parsed->events[1].factor, 0.5);
  EXPECT_NE(sink.str().find("\"factor\":0.5"), std::string::npos);
}

// ----------------------------------------------------------- TraceReader

TEST(TraceReaderTest, SkipsUnknownTypesFromSameSchema) {
  std::istringstream in(
      "{\"type\":\"meta\",\"schema\":1,\"mechanism\":\"X\"}\n"
      "{\"type\":\"hologram\",\"x\":1}\n"
      "\n"
      "{\"type\":\"event\",\"kind\":\"tick\",\"t_us\":5}\n");
  util::StatusOr<ParsedTrace> parsed = ParsedTrace::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->NumRecords(), 2u);
}

TEST(TraceReaderTest, RejectsNewerSchemaAndBadLines) {
  std::istringstream newer("{\"type\":\"meta\",\"schema\":99}\n");
  EXPECT_FALSE(ParsedTrace::Parse(newer).ok());

  std::istringstream garbage("{\"type\":\"event\"\n");
  util::StatusOr<ParsedTrace> bad = ParsedTrace::Parse(garbage);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);

  std::istringstream untyped("{\"kind\":\"tick\"}\n");
  EXPECT_FALSE(ParsedTrace::Parse(untyped).ok());
}

// -------------------------------------------------------------- Recorder

TEST(RecorderTest, DisabledRecorderDropsEverything) {
  Recorder recorder;  // no sink
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(MetaRecord{});
  recorder.Record(RunRecord{});
  recorder.RecordSnapshot(0, AllocatorSnapshot{});
  recorder.Finish();
}

TEST(RecorderTest, TatonnementSnapshotBecomesUmpireRecords) {
  market::TatonnementResult result;
  result.prices = market::PriceVector{2.0, 0.5};
  result.excess_demand = market::QuantityVector({3, -1});
  result.iterations = 17;

  AllocatorSnapshot snap = SnapshotFromTatonnement(result);
  EXPECT_EQ(snap.mechanism, "Tatonnement");
  EXPECT_TRUE(snap.has_umpire());
  EXPECT_FALSE(snap.has_agents());

  std::ostringstream sink;
  Recorder recorder(&sink);
  recorder.RecordSnapshot(result.iterations, snap);
  recorder.Finish();

  std::istringstream in(sink.str());
  ParsedTrace trace = ParsedTrace::Parse(in).value();
  ASSERT_EQ(trace.umpire.size(), 2u);
  EXPECT_EQ(trace.umpire[0].iter, 17);
  EXPECT_DOUBLE_EQ(trace.umpire[0].price, 2.0);
  EXPECT_DOUBLE_EQ(trace.umpire[0].excess, 3.0);
  EXPECT_DOUBLE_EQ(trace.umpire[1].price, 0.5);
  EXPECT_DOUBLE_EQ(trace.umpire[1].excess, -1.0);
}

// -------------------------------------------------------------- Analysis

ParsedTrace TraceWithMeta(int64_t period_us) {
  ParsedTrace trace;
  trace.has_meta = true;
  trace.meta.period_us = period_us;
  trace.meta.classes = 1;
  return trace;
}

PriceRecord MakePrice(int64_t t_us, int node, int class_id, double price,
                      int64_t planned) {
  PriceRecord r;
  r.t_us = t_us;
  r.node = node;
  r.class_id = class_id;
  r.price = price;
  r.planned = planned;
  return r;
}

TEST(AnalysisTest, PriceVarianceOnlyCountsOfferingNodes) {
  ParsedTrace trace = TraceWithMeta(1000);
  // Period 0: two offering nodes at 2.0 and 8.0, one node out of the
  // market (planned=0) parked at the floor — it must not count.
  trace.prices.push_back(MakePrice(0, 0, 0, 2.0, 1));
  trace.prices.push_back(MakePrice(0, 1, 0, 8.0, 1));
  trace.prices.push_back(MakePrice(0, 2, 0, 1e-6, 0));
  // Period 1: both offering nodes agree.
  trace.prices.push_back(MakePrice(1000, 0, 0, 4.0, 1));
  trace.prices.push_back(MakePrice(1000, 1, 0, 4.0, 1));

  std::vector<PriceDispersion> rows = PriceVarianceByPeriod(trace);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].period, 0);
  EXPECT_EQ(rows[0].nodes, 2);  // floor-parked node excluded
  EXPECT_DOUBLE_EQ(rows[0].mean, 5.0);
  EXPECT_DOUBLE_EQ(rows[0].variance, 9.0);
  EXPECT_GT(rows[0].log_variance, 0.0);
  EXPECT_EQ(rows[1].period, 1);
  EXPECT_DOUBLE_EQ(rows[1].variance, 0.0);
  EXPECT_DOUBLE_EQ(rows[1].log_variance, 0.0);
}

TEST(AnalysisTest, PriceVarianceFallsBackWhenNobodyPlansSupply) {
  ParsedTrace trace = TraceWithMeta(1000);
  trace.prices.push_back(MakePrice(0, 0, 0, 1.0, 0));
  trace.prices.push_back(MakePrice(0, 1, 0, 3.0, 0));
  std::vector<PriceDispersion> rows = PriceVarianceByPeriod(trace);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].nodes, 2);
  EXPECT_DOUBLE_EQ(rows[0].mean, 2.0);
}

EventRecord MakeEvent(EventRecord::Kind kind, int64_t t_us, int class_id,
                      int messages = 0) {
  EventRecord e;
  e.kind = kind;
  e.t_us = t_us;
  e.class_id = class_id;
  e.messages = messages;
  return e;
}

TEST(AnalysisTest, LoadByPeriodBucketsAndEquilibrium) {
  ParsedTrace trace = TraceWithMeta(1000);
  using K = EventRecord::Kind;
  // Period 0: hot — 1 assign, 3 rejects (excess 0.75).
  trace.events.push_back(MakeEvent(K::kArrival, 0, 0));
  trace.events.push_back(MakeEvent(K::kAssign, 10, 0, 5));
  trace.events.push_back(MakeEvent(K::kReject, 20, 0, 5));
  trace.events.push_back(MakeEvent(K::kReject, 30, 0, 5));
  trace.events.push_back(MakeEvent(K::kReject, 40, 0, 5));
  // Periods 1..3: settled — assigns only.
  for (int64_t p = 1; p <= 3; ++p) {
    trace.events.push_back(MakeEvent(K::kAssign, p * 1000, 0, 5));
  }
  std::vector<PeriodLoad> loads = LoadByPeriod(trace);
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_EQ(loads[0].arrivals, 1);
  EXPECT_EQ(loads[0].assigns, 1);
  EXPECT_EQ(loads[0].rejects, 3);
  EXPECT_EQ(loads[0].messages, 20);
  EXPECT_DOUBLE_EQ(loads[0].ExcessRatio(), 0.75);
  EXPECT_DOUBLE_EQ(loads[1].ExcessRatio(), 0.0);

  EquilibriumResult eq =
      TimeToEquilibrium(loads, trace.meta, /*band=*/0.1, /*window=*/3);
  ASSERT_TRUE(eq.found);
  EXPECT_EQ(eq.period, 1);  // first period of the settled window
  EXPECT_DOUBLE_EQ(eq.time_ms, util::ToMillis(1000));

  // A band the hot period satisfies finds period 0; an impossible window
  // reports "not reached".
  EXPECT_EQ(TimeToEquilibrium(loads, trace.meta, 0.8, 4).period, 0);
  EXPECT_FALSE(TimeToEquilibrium(loads, trace.meta, 0.1, 4).found);
}

TEST(AnalysisTest, TrackingCountsArrivalsVsCompletionsPerBucket) {
  ParsedTrace trace = TraceWithMeta(1000);
  using K = EventRecord::Kind;
  // Bucket 0: 2 arrivals, 1 completion. Bucket 1: 0 arrivals, 1
  // completion. Tracking error = |2-1| + |0-1| = 2.
  trace.events.push_back(MakeEvent(K::kArrival, 0, 0));
  trace.events.push_back(MakeEvent(K::kArrival, 100, 0));
  trace.events.push_back(MakeEvent(K::kComplete, 500, 0));
  trace.events.push_back(MakeEvent(K::kComplete, 1500, 0));
  std::vector<TrackingSeries> tracking = ComputeTracking(trace, 1000);
  ASSERT_EQ(tracking.size(), 1u);
  EXPECT_EQ(tracking[0].arrivals, (std::vector<int64_t>{2, 0}));
  EXPECT_EQ(tracking[0].completions, (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(tracking[0].total_error, 2);
}

TEST(AnalysisTest, FaultRecoveryReportDetectsReconvergence) {
  ParsedTrace trace = TraceWithMeta(1000);
  using K = EventRecord::Kind;
  // Period 0 (pre-fault): mild disagreement between the two nodes.
  trace.prices.push_back(MakePrice(0, 0, 0, 2.0, 1));
  trace.prices.push_back(MakePrice(0, 1, 0, 8.0, 1));
  // Crash in period 1, restart in period 2.
  EventRecord crash;
  crash.kind = K::kCrash;
  crash.t_us = 1500;
  crash.node = 0;
  trace.events.push_back(crash);
  EventRecord restart;
  restart.kind = K::kRestart;
  restart.t_us = 2500;
  restart.node = 0;
  trace.events.push_back(restart);
  // Period 2: the restarted node re-enters at default prices — dispersion
  // spikes. Period 3: re-learned, dispersion back below the pre-fault
  // level.
  trace.prices.push_back(MakePrice(2000, 0, 0, 1.0, 1));
  trace.prices.push_back(MakePrice(2000, 1, 0, 20.0, 1));
  trace.prices.push_back(MakePrice(3000, 0, 0, 4.0, 1));
  trace.prices.push_back(MakePrice(3000, 1, 0, 4.0, 1));

  std::vector<FaultRecovery> rows = FaultRecoveryReport(trace);
  ASSERT_EQ(rows.size(), 2u);

  const FaultRecovery& after_crash = rows[0];
  EXPECT_EQ(after_crash.kind, K::kCrash);
  EXPECT_EQ(after_crash.node, 0);
  EXPECT_EQ(after_crash.fault_period, 1);
  // ln-variance of {2, 8} = (ln 2)^2 (population, two points).
  double ln2 = std::log(2.0);
  EXPECT_NEAR(after_crash.pre_fault_variance, ln2 * ln2, 1e-12);
  EXPECT_GT(after_crash.peak_variance, after_crash.pre_fault_variance);
  ASSERT_TRUE(after_crash.reconverged);
  EXPECT_EQ(after_crash.recovery_period, 3);
  EXPECT_DOUBLE_EQ(after_crash.recovery_ms, util::ToMillis(3 * 1000 - 1500));

  const FaultRecovery& after_restart = rows[1];
  EXPECT_EQ(after_restart.kind, K::kRestart);
  EXPECT_EQ(after_restart.fault_period, 2);
  ASSERT_TRUE(after_restart.reconverged);
  EXPECT_EQ(after_restart.recovery_period, 3);
}

// ------------------------------------------------------------- RunReport

TEST(RunReportTest, DocumentShape) {
  RunReport report("Fig. 4");
  report.SetField("seed", int64_t{42});
  Json metrics = Json::MakeObject();
  metrics.Set("completed", int64_t{10});
  report.Add("QA-NT", std::move(metrics));

  Json doc = report.ToJson();
  EXPECT_EQ(doc.GetInt("schema"), kReportSchemaVersion);
  EXPECT_EQ(doc.GetString("bench"), "Fig. 4");
  EXPECT_EQ(doc.GetInt("seed"), 42);
  const Json* runs = doc.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array().size(), 1u);
  EXPECT_EQ(runs->array()[0].GetString("label"), "QA-NT");
  EXPECT_EQ(runs->array()[0].Find("metrics")->GetInt("completed"), 10);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, ParseLogLevelSpellings) {
  using util::LogLevel;
  LogLevel level = LogLevel::kWarning;
  EXPECT_TRUE(util::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(util::ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(util::ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(util::ParseLogLevel("Error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(util::ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(util::ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);

  level = LogLevel::kInfo;
  EXPECT_FALSE(util::ParseLogLevel("loud", &level));
  EXPECT_FALSE(util::ParseLogLevel("", &level));
  EXPECT_FALSE(util::ParseLogLevel("4", &level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure
}

TEST(LoggingTest, VTimeClockScopesNest) {
  // The providers themselves are thread-local internals; what we can lock
  // down here is that installing and unwinding nested scopes is balanced
  // (no crash, inner scope restores the outer one on destruction).
  int64_t outer_now = 1000;
  int64_t inner_now = 2000;
  auto read = [](const void* ctx) {
    return *static_cast<const int64_t*>(ctx);
  };
  util::ScopedVTimeClock outer(read, &outer_now);
  {
    util::ScopedVTimeClock inner(read, &inner_now);
    QA_LOG(Debug) << "inner scope";  // below default level: dropped
  }
  QA_LOG(Debug) << "outer scope";
}

// ----------------------------------------------------------- GoldenTrace

/// Runs the checked-in golden scenario and returns the trace bytes: a tiny
/// three-node federation under QA-NT with stratified-sample(2), exercising
/// the sampled solicitation path, price/agent snapshots, and completions.
/// `shards` > 1 routes the run through the sharded fork-join core (with a
/// two-worker pool), which must not change a single byte.
std::string GenerateGoldenTrace(int shards = 1) {
  util::Rng rng(7);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = 3;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  workload::SinusoidConfig workload;
  workload.q1_peak_rate = 3.0;
  workload.frequency_hz = 0.5;
  workload.duration = 2 * util::kSecond;
  workload.num_origin_nodes = 3;
  util::Rng wl_rng(8);
  workload::Trace trace = workload::GenerateSinusoidWorkload(workload, wl_rng);

  std::ostringstream sink;
  {
    exec::ThreadPool pool(2);
    exec::PoolRunner runner(&pool);
    Recorder recorder(&sink);
    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.mechanism = "QA-NT";
    spec.trace = &trace;
    spec.period = 500 * kMillisecond;
    spec.seed = 7;
    spec.config.solicitation.policy =
        allocation::SolicitationPolicy::kStratifiedSample;
    spec.config.solicitation.fanout = 2;
    spec.config.recorder = &recorder;
    spec.config.shards = shards;
    if (shards > 1) spec.config.runner = &runner;
    exec::RunSpecOnce(spec);
    recorder.Finish();
  }
  return std::move(sink).str();
}

// The trace format's regression lock: the golden scenario must keep
// producing byte-identical JSONL. Any diff means either the schema or the
// simulator's observable behavior changed — bump kTraceSchemaVersion /
// document the change in SCHEMA.md, then regenerate with
//   QA_UPDATE_GOLDEN=1 ./obs_test --gtest_filter='*GoldenScenario*'
TEST(GoldenTraceTest, GoldenScenarioReproducesCheckedInBytes) {
  const std::string golden_path =
      std::string(QA_TEST_SOURCE_DIR) + "/tests/golden/trace_tiny.jsonl";
  std::string bytes = GenerateGoldenTrace();

  if (std::getenv("QA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << bytes;
    return;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << golden_path << " missing; regenerate with QA_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(bytes, golden.str())
      << "golden trace drifted; if the change is intentional, update "
         "SCHEMA.md and regenerate with QA_UPDATE_GOLDEN=1";

  // The golden bytes must also still parse under the current reader.
  std::istringstream stream(bytes);
  util::StatusOr<ParsedTrace> parsed = ParsedTrace::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->has_meta);
  EXPECT_EQ(parsed->meta.solicitation, "stratified-sample");
  EXPECT_EQ(parsed->meta.fanout, 2);
  EXPECT_GT(parsed->events.size(), 0u);
  EXPECT_GT(parsed->prices.size(), 0u);
}

// Sharding is an execution layout, not an observable: the golden scenario
// split over 4 shards must reproduce the checked-in bytes verbatim. This
// pins the cross-shard merge to the same regression lock as the schema —
// an ordering bug in the barrier merge fails here against a committed
// artifact, not merely against a same-binary inline rerun.
TEST(GoldenTraceTest, GoldenScenarioIsByteIdenticalUnderSharding) {
  const std::string golden_path =
      std::string(QA_TEST_SOURCE_DIR) + "/tests/golden/trace_tiny.jsonl";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << golden_path << " missing; regenerate with QA_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(GenerateGoldenTrace(/*shards=*/4), golden.str())
      << "sharded run diverged from the golden trace: the conservative "
         "window merge no longer reproduces the inline event order";
}

/// The hierarchical twin of the golden scenario: six nodes split into two
/// clusters of three, top tier sampling both clusters, members solicited
/// with stratified-sample(2). Locks the v5 cluster fields — meta
/// clusters/top_fanout, per-event cluster/clusters_asked, and the periodic
/// `cluster` ledger records — against a checked-in artifact.
std::string GenerateHierGoldenTrace(int shards = 1) {
  util::Rng rng(7);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = 6;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);

  workload::SinusoidConfig workload;
  workload.q1_peak_rate = 6.0;
  workload.frequency_hz = 0.5;
  workload.duration = 2 * util::kSecond;
  workload.num_origin_nodes = 6;
  util::Rng wl_rng(8);
  workload::Trace trace = workload::GenerateSinusoidWorkload(workload, wl_rng);

  std::ostringstream sink;
  {
    exec::ThreadPool pool(2);
    exec::PoolRunner runner(&pool);
    Recorder recorder(&sink);
    exec::RunSpec spec;
    spec.cost_model = model.get();
    spec.mechanism = "QA-NT";
    spec.trace = &trace;
    spec.period = 500 * kMillisecond;
    spec.seed = 7;
    spec.config.solicitation.policy =
        allocation::SolicitationPolicy::kStratifiedSample;
    spec.config.solicitation.fanout = 2;
    spec.config.cluster_plan =
        allocation::ClusterPlan::Uniform(/*num_nodes=*/6, /*num_clusters=*/2,
                                         /*top_fanout=*/2);
    spec.config.recorder = &recorder;
    spec.config.shards = shards;
    if (shards > 1) spec.config.runner = &runner;
    exec::RunSpecOnce(spec);
    recorder.Finish();
  }
  return std::move(sink).str();
}

// Same regression lock as GoldenScenarioReproducesCheckedInBytes, for the
// two-tier market. Regenerate with
//   QA_UPDATE_GOLDEN=1 ./obs_test --gtest_filter='*HierGolden*'
TEST(GoldenTraceTest, HierGoldenScenarioReproducesCheckedInBytes) {
  const std::string golden_path =
      std::string(QA_TEST_SOURCE_DIR) + "/tests/golden/trace_hier_tiny.jsonl";
  std::string bytes = GenerateHierGoldenTrace();

  if (std::getenv("QA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << bytes;
    return;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << golden_path << " missing; regenerate with QA_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(bytes, golden.str())
      << "hierarchical golden trace drifted; if the change is intentional, "
         "update SCHEMA.md and regenerate with QA_UPDATE_GOLDEN=1";

  // The v5 cluster surface must actually be present and parse.
  std::istringstream stream(bytes);
  util::StatusOr<ParsedTrace> parsed = ParsedTrace::Parse(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->has_meta);
  EXPECT_EQ(parsed->meta.clusters, 2);
  EXPECT_EQ(parsed->meta.top_fanout, 2);
  EXPECT_GT(parsed->clusters.size(), 0u);
  bool routed = false;
  for (const EventRecord& event : parsed->events) {
    if (event.kind == EventRecord::Kind::kAssign && event.cluster >= 0) {
      routed = true;
      EXPECT_GT(event.clusters_asked, 0);
    }
  }
  EXPECT_TRUE(routed) << "no assign event carried a cluster route";
}

// The hierarchical golden scenario split over 4 shards must also
// reproduce the checked-in bytes: two-stage dispatch (top-tier routing +
// member settlement) is mediator-lane work, so shard layout must not leak
// into the trace.
TEST(GoldenTraceTest, HierGoldenScenarioIsByteIdenticalUnderSharding) {
  const std::string golden_path =
      std::string(QA_TEST_SOURCE_DIR) + "/tests/golden/trace_hier_tiny.jsonl";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << golden_path << " missing; regenerate with QA_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(GenerateHierGoldenTrace(/*shards=*/4), golden.str())
      << "sharded hierarchical run diverged from the golden trace";
}

}  // namespace
}  // namespace qa::obs
