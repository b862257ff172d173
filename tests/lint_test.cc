// Locks the qa_lint rule engine: one fixture per shipped rule violating
// it exactly once (asserting rule ID and position), the allow()
// suppression contract, scope exemptions, and a self-check that the real
// tree is clean — the in-process twin of CI's `qa_lint src bench tools
// tests`.

#include "qa_lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qa::lint {
namespace {

/// Convenience: lint `content` as if it lived at `path`.
std::vector<Finding> Lint(std::string_view path, std::string_view content,
                          const Options& options = {}) {
  return LintFile(path, content, options);
}

/// True if any finding carries `rule`.
bool Has(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(LintCatalogTest, EveryRuleHasIdSummaryRationale) {
  ASSERT_FALSE(AllRules().empty());
  for (const Rule& rule : AllRules()) {
    EXPECT_TRUE(std::string(rule.id).rfind("QA-", 0) == 0) << rule.id;
    EXPECT_NE(std::string(rule.summary), "");
    EXPECT_NE(std::string(rule.rationale), "");
    EXPECT_STREQ(RuleRationale(rule.id), rule.rationale);
  }
  EXPECT_EQ(RuleRationale("QA-NOPE-999"), nullptr);
}

// ---------------------------------------------------------------------------
// QA-DET-001
// ---------------------------------------------------------------------------

TEST(QaDet001Test, FlagsRandCallWithPosition) {
  std::vector<Finding> findings = Lint("src/sim/fixture.cc",
                                       "int Draw() {\n"
                                       "  return rand();\n"
                                       "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-001");
  EXPECT_EQ(findings[0].file, "src/sim/fixture.cc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].column, 10);
}

TEST(QaDet001Test, FlagsStdTimeButNotMemberTime) {
  EXPECT_TRUE(Has(Lint("src/sim/f.cc", "long T() { return std::time(0); }\n"),
                  "QA-DET-001"));
  // Member access and declarations are someone else's `time`.
  EXPECT_TRUE(
      Lint("src/sim/f.cc", "long T(Clock c) { return c.time(); }\n").empty());
  EXPECT_TRUE(
      Lint("src/sim/f.cc", "void T() { util::VTime time(0); }\n").empty());
}

TEST(QaDet001Test, IgnoresStringsCommentsAndMacroBodies) {
  EXPECT_TRUE(Lint("src/sim/f.cc",
                   "// rand() in a comment\n"
                   "const char* kDoc = \"call rand() for chaos\";\n"
                   "#define CHAOS() rand()\n")
                  .empty());
}

TEST(QaDet001Test, AllowDirectiveSuppresses) {
  EXPECT_TRUE(Lint("src/sim/f.cc",
                   "int Draw() {\n"
                   "  return rand();  // qa-lint: allow(QA-DET-001)\n"
                   "}\n")
                  .empty());
  EXPECT_TRUE(Lint("src/sim/f.cc",
                   "int Draw() {\n"
                   "  // qa-lint: allow(QA-DET-001)\n"
                   "  return rand();\n"
                   "}\n")
                  .empty());
  // The wrong ID does not suppress.
  EXPECT_TRUE(Has(Lint("src/sim/f.cc",
                       "int Draw() {\n"
                       "  return rand();  // qa-lint: allow(QA-NUM-001)\n"
                       "}\n"),
                  "QA-DET-001"));
}

TEST(QaDet001Test, FlagsChronoClocksOutsideMonotonicClock) {
  std::vector<Finding> findings =
      Lint("bench/fixture.cc",
           "#include <chrono>\n"
           "int64_t Now() {\n"
           "  return std::chrono::steady_clock::now().time_since_epoch()"
           ".count();\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-001");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("steady_clock"), std::string::npos);
  EXPECT_TRUE(Has(Lint("src/sim/f.cc",
                       "auto T() { return std::chrono::system_clock::now(); "
                       "}\n"),
                  "QA-DET-001"));
  EXPECT_TRUE(
      Has(Lint("tools/f.cc",
               "using C = std::chrono::high_resolution_clock;\n"),
          "QA-DET-001"));
}

TEST(QaDet001Test, MonotonicClockIsTheWhitelistedClockSite) {
  std::string fixture =
      "int64_t MonotonicClock::NowNanos() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n"
      "}\n";
  EXPECT_TRUE(Lint("src/util/monotonic_clock.cc", fixture).empty());
  EXPECT_TRUE(Lint("src/util/monotonic_clock.h", fixture).empty());
  // ...and only that site: the same code anywhere else in util is flagged.
  EXPECT_TRUE(Has(Lint("src/util/other_clock.cc", fixture), "QA-DET-001"));
}

// ---------------------------------------------------------------------------
// QA-DET-002
// ---------------------------------------------------------------------------

TEST(QaDet002Test, FlagsEngineOutsideRngAndPositions) {
  std::vector<Finding> findings =
      Lint("src/workload/fixture.cc",
           "#include <random>\n"
           "double Jitter() {\n"
           "  std::mt19937 gen;\n"
           "  return 0.5;\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-002");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(QaDet002Test, RngItselfIsExempt) {
  EXPECT_TRUE(
      Lint("src/util/rng.cc", "std::mt19937_64 engine_;\n").empty());
  EXPECT_TRUE(Has(Lint("src/util/other.cc", "std::mt19937_64 engine_;\n"),
                  "QA-DET-002"));
}

TEST(QaDet002Test, FlagsRandomDevice) {
  EXPECT_TRUE(Has(
      Lint("bench/fixture.cc", "unsigned S() { return std::random_device{}(); }\n"),
      "QA-DET-002"));
}

// ---------------------------------------------------------------------------
// QA-DET-003
// ---------------------------------------------------------------------------

TEST(QaDet003Test, FlagsRangeForOverUnorderedMap) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc",
           "#include <unordered_map>\n"
           "std::unordered_map<int, double> loads_;"
           "  // qa-lint: allow(QA-SHD-001)\n"
           "double Sum() {\n"
           "  double total = 0;\n"
           "  for (const auto& [node, load] : loads_) total += load;\n"
           "  return total;\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-003");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(QaDet003Test, FlagsIteratorWalk) {
  EXPECT_TRUE(Has(Lint("src/market/fixture.cc",
                       "std::unordered_set<int> seen_;\n"
                       "auto First() { return seen_.begin(); }\n"),
                  "QA-DET-003"));
}

TEST(QaDet003Test, LookupOnlyAndOtherDirsAreFine) {
  // Point lookups don't depend on iteration order.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "std::unordered_map<int, double> loads_;"
                   "  // qa-lint: allow(QA-SHD-001)\n"
                   "double At(int k) { return loads_.at(k); }\n")
                  .empty());
  // dbms is not a sim path; its unordered iteration is not this rule's
  // business.
  EXPECT_TRUE(Lint("src/dbms/fixture.cc",
                   "std::unordered_map<int, int> groups_;\n"
                   "int N() { int n = 0; for (auto& g : groups_) ++n; "
                   "return n; }\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// QA-NUM-001
// ---------------------------------------------------------------------------

TEST(QaNum001Test, FlagsLiteralCompare) {
  std::vector<Finding> findings =
      Lint("src/market/fixture.cc",
           "bool Converged(double excess) {\n"
           "  return excess == 0.0;\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-NUM-001");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(QaNum001Test, FlagsDeclaredDoubleIdentifiers) {
  EXPECT_TRUE(Has(Lint("src/market/fixture.cc",
                       "bool Same(double a, double b) { return a == b; }\n"),
                  "QA-NUM-001"));
}

TEST(QaNum001Test, IntCompareAndExemptScopesAreFine) {
  EXPECT_TRUE(
      Lint("src/market/f.cc", "bool Z(int n) { return n == 0; }\n").empty());
  std::string fixture = "bool Same(double a, double b) { return a == b; }\n";
  EXPECT_TRUE(Lint("src/util/mathutil.cc", fixture).empty());
  EXPECT_TRUE(Lint("tests/some_test.cc", fixture).empty());
}

TEST(QaNum001Test, OperatorEqualsDeclarationIsNotACompare) {
  EXPECT_TRUE(Lint("src/market/fixture.h",
                   "struct V {\n"
                   "  double operator[](int k) const;\n"
                   "  friend bool operator==(const V& a, const V& b) = "
                   "default;\n"
                   "};\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// QA-NUM-002
// ---------------------------------------------------------------------------

TEST(QaNum002Test, FlagsFloatInMarketCode) {
  std::vector<Finding> findings = Lint(
      "src/market/fixture.cc", "float lambda = 0.5f;  // price step\n");
  // The declaration; the 0.5f literal is not a compare so only one
  // finding.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-NUM-002");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].column, 1);
}

TEST(QaNum002Test, DoubleAndOtherDirsAreFine) {
  EXPECT_TRUE(Lint("src/market/f.cc", "double lambda = 0.5;\n").empty());
  EXPECT_TRUE(Lint("src/obs/f.cc", "float ok_here = 1.0f;\n").empty());
}

// ---------------------------------------------------------------------------
// QA-OBS-001
// ---------------------------------------------------------------------------

constexpr char kKindSwitch[] =
    "std::string_view EventKindName(EventRecord::Kind kind) {\n"
    "  switch (kind) {\n"
    "    case EventRecord::Kind::kArrival:\n"
    "      return \"arrival\";\n"
    "    case EventRecord::Kind::kEclipse:\n"
    "      return \"eclipse\";\n"
    "  }\n"
    "  return \"?\";\n"
    "}\n";

TEST(QaObs001Test, FlagsUndocumentedKind) {
  Options options;
  options.schema_doc = "kinds: `arrival` is documented, eclipse is not.";
  std::vector<Finding> findings =
      Lint("src/obs/trace_schema.cc", kKindSwitch, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-OBS-001");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("eclipse"), std::string::npos);
}

TEST(QaObs001Test, DocumentedKindsAreClean) {
  Options options;
  options.schema_doc = "| `arrival` | `eclipse` |";
  EXPECT_TRUE(
      Lint("src/obs/trace_schema.cc", kKindSwitch, options).empty());
}

TEST(QaObs001Test, OnlyTraceSchemaCcIsChecked) {
  Options options;
  options.schema_doc = "nothing documented";
  EXPECT_TRUE(Lint("src/obs/other.cc", kKindSwitch, options).empty());
}

// ---------------------------------------------------------------------------
// QA-OBS-002
// ---------------------------------------------------------------------------

TEST(QaObs002Test, FlagsBareProbe) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc",
           "void Tick() {\n"
           "  recorder_->Record(tick);\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-OBS-002");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(QaObs002Test, GatedProbesAreClean) {
  // Block gate.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "void Tick() {\n"
                   "  QA_OBS(recorder_) {\n"
                   "    recorder_->Record(tick);\n"
                   "    recorder_->RecordSnapshot(0, snapshot);\n"
                   "  }\n"
                   "}\n")
                  .empty());
  // Single-statement gate.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "void Tick() {\n"
                   "  QA_OBS(recorder_) recorder_->Record(tick);\n"
                   "}\n")
                  .empty());
}

TEST(QaObs002Test, GateDoesNotLeakPastItsBlock) {
  EXPECT_TRUE(Has(Lint("src/sim/fixture.cc",
                       "void Tick() {\n"
                       "  QA_OBS(recorder_) {\n"
                       "    recorder_->Record(in);\n"
                       "  }\n"
                       "  recorder_->Record(out);\n"
                       "}\n"),
                  "QA-OBS-002"));
}

TEST(QaObs002Test, NonRecorderObjectsAreNotProbes) {
  EXPECT_TRUE(
      Lint("src/sim/fixture.cc", "void F() { history_->Record(e); }\n")
          .empty());
}

// ---------------------------------------------------------------------------
// QA-OBS-003
// ---------------------------------------------------------------------------

TEST(QaObs003Test, FlagsUnregisteredMetricName) {
  Options options;
  options.metrics_catalog =
      "{\"qa_phase_merge_ns\", \"merge\"},\n";
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc",
           "int Id() {\n"
           "  return obs::metrics::MetricId(\"qa_phase_merg_ns\");\n"
           "}\n",
           options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-OBS-003");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("qa_phase_merg_ns"), std::string::npos);
}

TEST(QaObs003Test, RegisteredNamesVariablesAndCatalogItselfAreClean) {
  Options options;
  options.metrics_catalog =
      "{\"qa_phase_merge_ns\", \"merge\"},\n";
  // A registered literal is clean.
  EXPECT_TRUE(
      Lint("src/sim/fixture.cc",
           "int Id() { return MetricId(\"qa_phase_merge_ns\"); }\n", options)
          .empty());
  // A runtime name cannot be checked statically.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "int Id(std::string_view name) { return MetricId(name); "
                   "}\n",
                   options)
                  .empty());
  // The catalog's own implementation of MetricId() is the definition site.
  EXPECT_TRUE(Lint("src/obs/metrics/catalog.cc",
                   "int MetricId(std::string_view name) { return -1; }\n",
                   options)
                  .empty());
  // Without the catalog text the rule is skipped, like QA-OBS-001.
  EXPECT_TRUE(
      Lint("src/sim/fixture.cc",
           "int Id() { return MetricId(\"qa_bogus_total\"); }\n")
          .empty());
}

// ---------------------------------------------------------------------------
// QA-HOT-001
// ---------------------------------------------------------------------------

TEST(QaHot001Test, FlagsStdFunctionInQueueConsumer) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc",
           "#include \"sim/event_queue.h\"\n"
           "#include <functional>\n"
           "std::function<void()> on_fire_;"
           "  // qa-lint: allow(QA-SHD-001)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-HOT-001");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(QaHot001Test, NonConsumersMayUseStdFunction) {
  EXPECT_TRUE(Lint("src/exec/fixture.cc",
                   "#include <functional>\n"
                   "std::function<void()> task_;\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// QA-SHD-001
// ---------------------------------------------------------------------------

TEST(QaShd001Test, FlagsMutableNamespaceScopeStateWithPosition) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc",
           "namespace qa::sim {\n"
           "int64_t g_dispatched = 0;\n"
           "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-SHD-001");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("g_dispatched"), std::string::npos);
}

TEST(QaShd001Test, FlagsMutableStaticsAtAnyScope) {
  // Function-local static: hidden cross-run state even without threads.
  EXPECT_TRUE(Has(Lint("src/allocation/fixture.cc",
                       "int NextId() {\n"
                       "  static int counter = 0;\n"
                       "  return ++counter;\n"
                       "}\n"),
                  "QA-SHD-001"));
  // Class static data member.
  EXPECT_TRUE(Has(Lint("src/sim/fixture.h",
                       "class Pool {\n"
                       "  static int live_;\n"
                       "};\n"),
                  "QA-SHD-001"));
  // thread_local is still per-layout state: shard results would depend on
  // which worker drained which lane.
  EXPECT_TRUE(Has(Lint("src/sim/fixture.cc",
                       "void F() { thread_local int scratch = 0; ++scratch; }\n"),
                  "QA-SHD-001"));
}

TEST(QaShd001Test, ImmutableAndFunctionDeclarationsAreFine) {
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "namespace {\n"
                   "constexpr int kShards = 4;\n"
                   "const char* const kNames[] = {\"a\", \"b\"};\n"
                   "static constexpr double kStep = 0.5;\n"
                   "int Helper(int x);\n"
                   "static int Twice(int x) { int local = x; return local + x; }\n"
                   "}\n")
                  .empty());
  // static_cast is one token, not the `static` keyword.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "double D(int x) { return static_cast<double>(x); }\n")
                  .empty());
}

TEST(QaShd001Test, OtherDirsAndLocalsAreNotThisRulesBusiness) {
  // Mutable globals outside src/sim and src/allocation are out of scope.
  EXPECT_TRUE(Lint("src/obs/fixture.cc", "int g_records = 0;\n").empty());
  EXPECT_TRUE(Lint("src/market/fixture.cc", "int g_iters = 0;\n").empty());
  // Plain locals and members are per-instance state, not shared.
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "void F() { int local = 0; ++local; }\n")
                  .empty());
  EXPECT_TRUE(Lint("src/sim/fixture.h",
                   "class Lane {\n"
                   "  int dispatched_ = 0;\n"
                   "};\n")
                  .empty());
}

TEST(QaShd001Test, AllowDirectiveSuppresses) {
  EXPECT_TRUE(Lint("src/sim/fixture.cc",
                   "namespace qa::sim {\n"
                   "// Intentional: registry poked only before Run().\n"
                   "// qa-lint: allow(QA-SHD-001)\n"
                   "int g_registry_epoch = 0;\n"
                   "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Cross-file passes (QA-ARCH-001/002, QA-DET-004, QA-SHD-002, QA-SUP-001)
// ---------------------------------------------------------------------------

/// A small layer DAG for the cross-file fixtures, mirroring the shape of
/// tools/arch_layers.txt.
constexpr char kManifest[] =
    "layer util: src/util\n"
    "layer obs: src/obs\n"
    "layer allocation: src/allocation\n"
    "layer sim: src/sim\n"
    "dep obs: util\n"
    "dep allocation: util obs\n"
    "dep sim: util obs allocation\n";

/// Convenience: run the full cross-file analysis over an in-memory file
/// set with the fixture manifest; hard-fails the test on analysis errors.
std::vector<Finding> Analyze(const std::vector<SourceFile>& files,
                             const Options& options = {},
                             ProjectOptions project = {}) {
  if (!project.layer_manifest) project.layer_manifest = kManifest;
  std::vector<std::string> errors;
  std::vector<Finding> findings =
      AnalyzeProject(files, options, project, &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  return findings;
}

TEST(QaArch001Test, FlagsIllegalCrossLayerIncludeWithPosition) {
  std::vector<Finding> findings = Analyze({
      {"src/sim/fed.h", "struct Fed {};\n"},
      {"src/util/helper.cc", "#include \"sim/fed.h\"\nint x = 1;\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-ARCH-001");
  EXPECT_EQ(findings[0].file, "src/util/helper.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("'util'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'sim'"), std::string::npos);
}

TEST(QaArch001Test, DeclaredEdgesAndSystemHeadersAreClean) {
  EXPECT_TRUE(Analyze({
                  {"src/util/vtime.h", "using VTime = long;\n"},
                  {"src/sim/fed.cc",
                   "#include <vector>\n#include \"util/vtime.h\"\n"},
              })
                  .empty());
}

TEST(QaArch001Test, AllowDirectiveSuppresses) {
  EXPECT_TRUE(Analyze({
                  {"src/sim/fed.h", "struct Fed {};\n"},
                  {"src/util/helper.cc",
                   "// qa-lint: allow(QA-ARCH-001)\n"
                   "#include \"sim/fed.h\"\n"},
              })
                  .empty());
}

TEST(QaArch001Test, UnmappedSrcFileIsAManifestDriftError) {
  ProjectOptions project;
  project.layer_manifest = kManifest;
  std::vector<std::string> errors;
  AnalyzeProject({{"src/newdir/x.cc", "int x = 1;\n"}}, Options{}, project,
                 &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("src/newdir/x.cc"), std::string::npos);
}

TEST(QaArch002Test, FlagsTwoFileIncludeCycleAtTheClosingEdge) {
  std::vector<Finding> findings = Analyze({
      {"src/sim/a.h", "#include \"sim/b.h\"\n"},
      {"src/sim/b.h", "#include \"sim/a.h\"\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-ARCH-002");
  EXPECT_EQ(findings[0].file, "src/sim/b.h");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("src/sim/a.h -> src/sim/b.h -> "
                                     "src/sim/a.h"),
            std::string::npos);
}

TEST(QaArch002Test, ThreeFileCycleReportedOnce) {
  std::vector<Finding> findings = Analyze({
      {"src/sim/a.h", "#include \"sim/b.h\"\n"},
      {"src/sim/b.h", "#include \"sim/c.h\"\n"},
      {"src/sim/c.h", "#include \"sim/a.h\"\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-ARCH-002");
  EXPECT_EQ(findings[0].file, "src/sim/c.h");
}

TEST(QaArch002Test, AcyclicDiamondIsClean) {
  EXPECT_TRUE(Analyze({
                  {"src/sim/a.h", "#include \"sim/b.h\"\n#include \"sim/c.h\"\n"},
                  {"src/sim/b.h", "#include \"sim/d.h\"\n"},
                  {"src/sim/c.h", "#include \"sim/d.h\"\n"},
                  {"src/sim/d.h", "struct D {};\n"},
              })
                  .empty());
}

TEST(QaDet004Test, FlagsUngatedClockReadWithPosition) {
  Options options;
  options.only_rules = {"QA-DET-004"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "int64_t Federation::Tick() {\n"
        "  return util::MonotonicClock::NowNanos();\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-004");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("QA_METRICS"), std::string::npos);
}

TEST(QaDet004Test, GatedSidecarPhaseTimingIsClean) {
  Options options;
  options.only_rules = {"QA-DET-004"};
  EXPECT_TRUE(Analyze(
                  {{"src/sim/fixture.cc",
                    "void Federation::Tick() {\n"
                    "  QA_METRICS(config_.metrics) {\n"
                    "    const int64_t start = "
                    "util::MonotonicClock::NowNanos();\n"
                    "    config_.metrics->RecordPhase(\n"
                    "        kPhase, util::MonotonicClock::NowNanos() - "
                    "start);\n"
                    "  }\n"
                    "}\n"}},
                  options)
                  .empty());
}

TEST(QaDet004Test, GatedClockReadFeedingDispatchIsCaught) {
  // The acceptance fixture: a MonotonicClock reading flowing into
  // Federation::Dispatch state is a finding even inside a gate, with no
  // suppression involved.
  Options options;
  options.only_rules = {"QA-DET-004"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::Tick() {\n"
        "  QA_METRICS(config_.metrics) {\n"
        "    Dispatch(util::MonotonicClock::NowNanos());\n"
        "  }\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-DET-004");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("Dispatch"), std::string::npos);
}

TEST(QaDet004Test, MemberStoreIsCaughtEvenGated) {
  Options options;
  options.only_rules = {"QA-DET-004"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::Tick() {\n"
        "  QA_METRICS(config_.metrics) {\n"
        "    last_mark_ = util::MonotonicClock::NowNanos();\n"
        "  }\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("last_mark_"), std::string::npos);
}

TEST(QaDet004Test, TaintPropagatesThroughLocals) {
  Options options;
  options.only_rules = {"QA-DET-004"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::Tick() {\n"
        "  QA_METRICS(config_.metrics) {\n"
        "    const int64_t start = util::MonotonicClock::NowNanos();\n"
        "    const int64_t elapsed = start / 2;\n"
        "    Dispatch(elapsed);\n"
        "  }\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("elapsed"), std::string::npos);
}

TEST(QaDet004Test, ClockReturningHelpersAreSourcesToo) {
  // The fixpoint: a helper whose return statement reads the clock makes
  // its callers clock consumers (TakePhaseMark-style chaining).
  Options options;
  options.only_rules = {"QA-DET-004"};
  std::vector<Finding> findings = Analyze(
      {{"src/obs/metrics/fixture.cc",
        "int64_t Collector::TakeMark() {\n"
        "  return util::MonotonicClock::NowNanos();\n"
        "}\n"},
       {"src/sim/fixture.cc",
        "void Federation::Tick() {\n"
        "  const int64_t t = TakeMark();\n"
        "  Dispatch(t);\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 2u);  // ungated read + ungated tainted use
  EXPECT_EQ(findings[0].file, "src/sim/fixture.cc");
  EXPECT_EQ(findings[0].rule, "QA-DET-004");
}

TEST(QaDet004Test, AllowDirectiveSuppresses) {
  Options options;
  options.only_rules = {"QA-DET-004"};
  EXPECT_TRUE(Analyze(
                  {{"src/sim/fixture.cc",
                    "int64_t Federation::Tick() {\n"
                    "  // qa-lint: allow(QA-DET-004)\n"
                    "  return util::MonotonicClock::NowNanos();\n"
                    "}\n"}},
                  options)
                  .empty());
}

TEST(QaShd002Test, LaneLambdaTouchingMediatorMemberIsFlagged) {
  Options options;
  options.only_rules = {"QA-SHD-002"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::Drain() {\n"
        "  queue_.RunWhileBefore(t, s, [this](const SimEvent& e) {\n"
        "    med_items_.push_back(e);\n"
        "  });\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-SHD-002");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("med_items_"), std::string::npos);
}

TEST(QaShd002Test, NamedLambdaHandedToParallelForIsAnEntry) {
  // The FenceAndMerge shape: `auto drain = [...]` passed by name.
  Options options;
  options.only_rules = {"QA-SHD-002"};
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::FenceAndMerge() {\n"
        "  auto drain = [this](int s) {\n"
        "    ticks_ += 1;\n"
        "  };\n"
        "  config_.runner->ParallelFor(4, drain);\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("ticks_"), std::string::npos);
}

TEST(QaShd002Test, ReachabilityThroughHelpersAndFenceCutoff) {
  Options options;
  options.only_rules = {"QA-SHD-002"};
  // A helper called from DispatchShard inherits the lane context...
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc",
        "void Federation::DispatchShard(ShardLane* lane) {\n"
        "  Helper(lane);\n"
        "}\n"
        "void Federation::Helper(ShardLane* lane) {\n"
        "  current_time_ = 0;\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("current_time_"), std::string::npos);
  // ...but the merge fences are the sanctioned exit: traversal stops at
  // Emit/ScheduleNodeEvent, whose bodies run on the mediator lane.
  EXPECT_TRUE(Analyze(
                  {{"src/sim/fixture.cc",
                    "void Federation::DispatchShard(ShardLane* lane) {\n"
                    "  Emit(e);\n"
                    "}\n"
                    "void Federation::Emit(const SimEvent& e) {\n"
                    "  med_items_.push_back(e);\n"
                    "}\n"}},
                  options)
                  .empty());
}

TEST(QaShd002Test, ChunkedAllocatorCallbackIsFlagged) {
  Options options;
  options.only_rules = {"QA-SHD-002"};
  std::vector<Finding> findings = Analyze(
      {{"src/allocation/fixture.cc",
        "void QaNtAllocator::Scan() {\n"
        "  runner_->ParallelFor(4, [&](int chunk) {\n"
        "    book_->Settle(chunk);\n"
        "  });\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("book_"), std::string::npos);
}

// Building an agent goes live in the cluster market, so a chunk that
// reaches EnsureAgent through a helper is a finding at the helper's touch;
// a rollover chunk writing its own roster entries stays clean.
TEST(QaShd002Test, ChunkReachingClusterMarketIsFlagged) {
  Options options;
  options.only_rules = {"QA-SHD-002"};
  std::vector<Finding> findings = Analyze(
      {{"src/allocation/fixture.cc",
        "void QaNtAllocator::Scan() {\n"
        "  runner_->ParallelFor(4, [&](int chunk) {\n"
        "    EnsureAgent(chunk).OnRequest(k);\n"
        "  });\n"
        "}\n"
        "QaNtAgent& QaNtAllocator::EnsureAgent(NodeId node) {\n"
        "  roster_.push_back({node, Phase(node)});\n"
        "  cluster_market_->OnMemberBuilt(node);\n"
        "  return *agents_[node];\n"
        "}\n"}},
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("cluster_market_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("EnsureAgent"), std::string::npos);

  EXPECT_TRUE(Analyze(
                  {{"src/allocation/fixture.cc",
                    "void QaNtAllocator::OnPeriodStart(VTime now) {\n"
                    "  auto roll_range = [this, now](size_t b, size_t e) {\n"
                    "    for (size_t i = b; i < e; ++i) {\n"
                    "      roster_[i].next_refresh += period_;\n"
                    "    }\n"
                    "  };\n"
                    "  runner_->ParallelFor(4, [&](int chunk) {\n"
                    "    roll_range(chunk, chunk + 1);\n"
                    "  });\n"
                    "  cluster_market_->OnTick(now, remaining_view_);\n"
                    "}\n"}},
                  options)
                  .empty());
}

TEST(QaShd002Test, ShardLocalStateAndAllowDirectiveAreClean) {
  Options options;
  options.only_rules = {"QA-SHD-002"};
  // pool_/injector_/config_/best_cost_ are shard-local or read-only
  // shared: lane code may touch them freely.
  EXPECT_TRUE(Analyze(
                  {{"src/sim/fixture.cc",
                    "void Federation::DispatchShard(ShardLane* lane) {\n"
                    "  pool_.Pop(node);\n"
                    "  best_cost_[0] = 1.0;\n"
                    "}\n"}},
                  options)
                  .empty());
  EXPECT_TRUE(Analyze(
                  {{"src/sim/fixture.cc",
                    "void Federation::DispatchShard(ShardLane* lane) {\n"
                    "  // qa-lint: allow(QA-SHD-002)\n"
                    "  ticks_ += 1;\n"
                    "}\n"}},
                  options)
                  .empty());
}

TEST(QaSup001Test, StaleDirectiveFlaggedOnlyInAuditMode) {
  std::vector<SourceFile> files = {
      {"src/sim/fixture.cc",
       "void F() {\n"
       "  int x = 1;  // qa-lint: allow(QA-DET-001)\n"
       "}\n"}};
  // Default mode: directives are never audited.
  EXPECT_TRUE(Analyze(files).empty());
  // Audit mode: the directive suppresses nothing and is flagged.
  ProjectOptions project;
  project.stale_suppressions = true;
  std::vector<Finding> findings = Analyze(files, Options{}, project);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "QA-SUP-001");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("QA-DET-001"), std::string::npos);
}

TEST(QaSup001Test, LiveDirectiveIsNotStale) {
  ProjectOptions project;
  project.stale_suppressions = true;
  EXPECT_TRUE(Analyze({{"src/sim/fixture.cc",
                        "int Draw() {\n"
                        "  return rand();  // qa-lint: allow(QA-DET-001)\n"
                        "}\n"}},
                      Options{}, project)
                  .empty());
}

TEST(QaSup001Test, DocCommentMentioningTheSyntaxIsNotADirective) {
  ProjectOptions project;
  project.stale_suppressions = true;
  EXPECT_TRUE(Analyze({{"src/sim/fixture.cc",
                        "// Suppress with `// qa-lint: allow(QA-XXX-123)` "
                        "on the line.\n"
                        "void F() {}\n"}},
                      Options{}, project)
                  .empty());
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

TEST(LintFormatTest, TextCarriesPositionRuleAndRationale) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc", "int Draw() { return rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/sim/fixture.cc:1:21: QA-DET-001"),
            std::string::npos);
  EXPECT_NE(text.find("why: "), std::string::npos);
}

TEST(LintFormatTest, JsonIsMachineReadable) {
  std::vector<Finding> findings =
      Lint("src/sim/fixture.cc", "int Draw() { return rand(); }\n");
  std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"rule\":\"QA-DET-001\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_EQ(FormatJson({}), "[]\n");
}

TEST(LintFormatTest, TextCarriesCaretSnippet) {
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc", "int Draw() { return rand(); }\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].snippet, "int Draw() { return rand(); }");
  std::string text = FormatText(findings);
  EXPECT_NE(text.find("| int Draw() { return rand(); }"),
            std::string::npos);
  // The caret line points at column 21 (the `rand` token).
  EXPECT_NE(text.find("| " + std::string(20, ' ') + "^"),
            std::string::npos);
}

TEST(LintFormatTest, SarifCarriesRulesAndResults) {
  std::vector<Finding> findings = Analyze(
      {{"src/sim/fixture.cc", "int Draw() { return rand(); }\n"}});
  std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"qa_lint\""), std::string::npos);
  // Every catalogued rule is in tool.driver.rules, findings or not.
  for (const Rule& rule : AllRules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"QA-DET-001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/fixture.cc\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Self-check: the real tree is clean (the in-process twin of the CI
// invocation `qa_lint src bench tools tests`).
// ---------------------------------------------------------------------------

TEST(LintSelfCheckTest, RealTreeHasZeroFindings) {
  const std::string root = QA_LINT_SOURCE_DIR;
  std::vector<std::string> errors;
  ProjectOptions project;
  project.manifest_path = root + "/tools/arch_layers.txt";
  // Audit mode on: the real tree must be clean under the full cross-file
  // analysis AND carry no stale allow() directives.
  project.stale_suppressions = true;
  std::vector<Finding> findings = AnalyzePaths(
      {root + "/src", root + "/bench", root + "/tools", root + "/tests"},
      Options{}, project, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

/// Every shipped rule ID is exercised by at least one fixture above;
/// keep this list in sync when adding a rule (the test fails if the
/// catalog grows without coverage).
TEST(LintSelfCheckTest, CatalogMatchesCoveredRules) {
  std::vector<std::string> covered = {
      "QA-ARCH-001", "QA-ARCH-002", "QA-DET-001", "QA-DET-002",
      "QA-DET-003",  "QA-DET-004",  "QA-HOT-001", "QA-NUM-001",
      "QA-NUM-002",  "QA-OBS-001",  "QA-OBS-002", "QA-OBS-003",
      "QA-SHD-001",  "QA-SHD-002",  "QA-SUP-001"};
  ASSERT_EQ(AllRules().size(), covered.size());
  for (const Rule& rule : AllRules()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), rule.id),
              covered.end())
        << "rule " << rule.id << " has no fixture coverage in lint_test.cc";
  }
}

}  // namespace
}  // namespace qa::lint
