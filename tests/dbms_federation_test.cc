#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "dbms/dataset.h"
#include "dbms/dbms_federation.h"
#include "query/cost_model.h"
#include "stats/summary.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::dbms {
namespace {

using util::kMillisecond;

TEST(DatasetTest, BuildsTablesViewsAndPlacement) {
  DatasetConfig config;
  config.num_tables = 10;
  config.num_views = 20;
  config.num_templates = 10;
  config.min_rows = 50;
  config.max_rows = 200;
  util::Rng rng(42);
  Fig7Dataset dataset = BuildFig7Dataset(config, rng);

  ASSERT_EQ(dataset.node_dbs.size(), 5u);
  EXPECT_EQ(dataset.placement.size(), 30u);  // 10 tables + 20 views
  for (const auto& [name, holders] : dataset.placement) {
    EXPECT_GE(holders.size(), 1u);
    EXPECT_LE(holders.size(), 4u);
  }
  ASSERT_EQ(dataset.templates.size(), 10u);
  for (size_t t = 0; t < dataset.templates.size(); ++t) {
    EXPECT_FALSE(dataset.template_nodes[t].empty()) << "template " << t;
    // Star query shape: 1 fact + >= 2 dimensions, grouping + aggregates.
    EXPECT_GE(dataset.templates[t].tables.size(), 3u);
    EXPECT_TRUE(dataset.templates[t].has_grouping());
  }
}

TEST(DatasetTest, TemplatesExecutableOnEligibleNodes) {
  DatasetConfig config;
  config.num_tables = 8;
  config.num_views = 10;
  config.num_templates = 5;
  config.min_rows = 30;
  config.max_rows = 100;
  util::Rng rng(7);
  Fig7Dataset dataset = BuildFig7Dataset(config, rng);
  for (size_t t = 0; t < dataset.templates.size(); ++t) {
    SelectStatement stmt =
        InstantiateTemplate(dataset, static_cast<int>(t), config, rng);
    for (int n : dataset.template_nodes[t]) {
      auto result =
          ExecuteStatement(dataset.node_dbs[static_cast<size_t>(n)], stmt);
      EXPECT_TRUE(result.ok())
          << "template " << t << " node " << n << ": "
          << result.status().ToString();
    }
  }
}

TEST(DatasetTest, InstanceConstantsVaryWithinClass) {
  DatasetConfig config;
  config.num_tables = 8;
  config.num_views = 10;
  config.num_templates = 3;
  config.min_rows = 30;
  config.max_rows = 100;
  util::Rng rng(7);
  Fig7Dataset dataset = BuildFig7Dataset(config, rng);
  // Same template, different draws: tables identical, constants may vary.
  SelectStatement a = InstantiateTemplate(dataset, 0, config, rng);
  SelectStatement b = InstantiateTemplate(dataset, 0, config, rng);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].name, b.tables[i].name);
  }
}

class DbmsFederationTest : public ::testing::Test {
 protected:
  static DbmsFederationConfig SmallConfig() {
    DbmsFederationConfig config;
    config.dataset.num_tables = 8;
    config.dataset.num_views = 12;
    config.dataset.num_templates = 8;
    config.dataset.min_rows = 50;
    config.dataset.max_rows = 150;
    config.seed = 42;
    return config;
  }
};

TEST_F(DbmsFederationTest, CalibrationHitsTargetFastestExec) {
  DbmsFederation fed(SmallConfig());
  EXPECT_GT(fed.data_scale(), 0.0);
  // Mean over templates of the fastest eligible node's static cost should
  // be near the configured cold target.
  double target = static_cast<double>(SmallConfig().target_fastest_exec);
  double sum = 0.0;
  int counted = 0;
  for (int t = 0; t < fed.num_templates(); ++t) {
    util::VDuration best = query::kInfeasibleCost;
    for (int n = 0; n < fed.num_nodes(); ++n) {
      best = std::min(best, fed.TemplateCost(t, n));
    }
    if (best != query::kInfeasibleCost) {
      sum += static_cast<double>(best);
      ++counted;
    }
  }
  ASSERT_GT(counted, 0);
  EXPECT_NEAR(sum / counted, target, target * 0.1);
}

TEST_F(DbmsFederationTest, GreedyRunCompletesAllQueries) {
  DbmsFederation fed(SmallConfig());
  DbmsRunResult r = fed.Run("Greedy", 40, 300 * kMillisecond, 1);
  EXPECT_EQ(r.completed, 40);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GT(r.assign_ms.Mean(), 0.0);
  EXPECT_GT(r.total_ms.Mean(), r.assign_ms.Mean());
}

TEST_F(DbmsFederationTest, QaNtRunCompletesAllQueries) {
  DbmsFederation fed(SmallConfig());
  DbmsRunResult r = fed.Run("QA-NT", 40, 300 * kMillisecond, 1);
  EXPECT_EQ(r.completed + r.dropped, 40);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GT(r.total_ms.Mean(), 0.0);
}

/// The bits of the in-order sum of `summary`'s samples.
uint64_t SumBits(const stats::Summary& summary) {
  double sum = 0.0;
  for (double v : summary.values()) sum += v;
  return std::bit_cast<uint64_t>(sum);
}

// At this load every eligible node declines some attempts, which then wait
// for the next period boundary. The counts and the exact sums of the
// assignment and response times pin the QA-NT auction (offers, the
// cheapest revised estimate, the retries) bit for bit.
TEST_F(DbmsFederationTest, QaNtRunWithRetriesIsPinned) {
  DbmsFederation fed(SmallConfig());
  DbmsRunResult r = fed.Run("QA-NT", 60, 300 * kMillisecond, 1);
  EXPECT_EQ(r.completed, 60);
  EXPECT_EQ(r.retries, 367);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(SumBits(r.assign_ms), 0x4107441722d0e55fULL);  // 190594.892 ms
  EXPECT_EQ(SumBits(r.total_ms), 0x411997e7676c8b46ULL);   // 419321.851 ms
}

TEST_F(DbmsFederationTest, AssignTimeDominatedBySlowestReply) {
  // Both mechanisms wait for every node's EXPLAIN reply, so the assign
  // time must be at least the slowest node's explain latency for templates
  // eligible on the slowest node.
  DbmsFederation fed(SmallConfig());
  DbmsRunResult r = fed.Run("Greedy", 30, 500 * kMillisecond, 2);
  // All assigns waited for at least one EXPLAIN round (hundreds of ms when
  // CPU-scaled): mean assign time must be clearly nonzero.
  EXPECT_GT(r.assign_ms.Mean(), 50.0);
}

TEST_F(DbmsFederationTest, UnknownMechanismAbortsLoudly) {
  DbmsFederation fed(SmallConfig());
  EXPECT_DEATH(fed.Run("Random", 5, 300 * kMillisecond, 7),
               "unknown mechanism 'Random' \\(accepted: Greedy, "
               "GreedyBlind, QA-NT\\)");
}

TEST_F(DbmsFederationTest, RunsAreDeterministic) {
  DbmsFederation fed(SmallConfig());
  DbmsRunResult a = fed.Run("Greedy", 25, 300 * kMillisecond, 5);
  DbmsRunResult b = fed.Run("Greedy", 25, 300 * kMillisecond, 5);
  EXPECT_DOUBLE_EQ(a.total_ms.Mean(), b.total_ms.Mean());
  EXPECT_DOUBLE_EQ(a.assign_ms.Mean(), b.assign_ms.Mean());
}

}  // namespace
}  // namespace qa::dbms
