#include <gtest/gtest.h>

#include "allocation/factory.h"
#include "allocation/qa_nt_allocator.h"
#include "sim/federation.h"
#include "sim/scenario.h"
#include "workload/sinusoid.h"
#include "workload/zipf_workload.h"

namespace qa {
namespace {

using util::kMillisecond;
using util::kSecond;

/// An AllocationContext wrapper that counts which pieces of node-internal
/// state a mechanism reads — the autonomy property of Table 2, asserted.
class SpyContext : public allocation::AllocationContext {
 public:
  explicit SpyContext(const allocation::AllocationContext* inner)
      : inner_(inner) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  const query::CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  util::VDuration NodeBacklog(catalog::NodeId node) const override {
    ++backlog_reads_;
    return inner_->NodeBacklog(node);
  }
  double NodeCumulativeWork(catalog::NodeId node) const override {
    ++work_reads_;
    return inner_->NodeCumulativeWork(node);
  }
  util::VTime now() const override { return inner_->now(); }

  int64_t backlog_reads() const { return backlog_reads_; }
  int64_t work_reads() const { return work_reads_; }

 private:
  const allocation::AllocationContext* inner_;
  mutable int64_t backlog_reads_ = 0;
  mutable int64_t work_reads_ = 0;
};

/// Minimal context over a cost model with all-idle nodes.
class IdleContext : public allocation::AllocationContext {
 public:
  explicit IdleContext(const query::CostModel* model) : model_(model) {}
  int num_nodes() const override { return model_->num_nodes(); }
  const query::CostModel& cost_model() const override { return *model_; }
  util::VDuration NodeBacklog(catalog::NodeId) const override { return 0; }
  double NodeCumulativeWork(catalog::NodeId) const override { return 0.0; }
  util::VTime now() const override { return 0; }

 private:
  const query::CostModel* model_;
};

TEST(AutonomyTest, QaNtNeverReadsNodeInternals) {
  util::Rng rng(42);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = 20;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  allocation::QaNtAllocator qa_nt(model.get(), 500 * kMillisecond);

  IdleContext idle(model.get());
  SpyContext spy(&idle);
  for (int i = 0; i < 200; ++i) {
    workload::Arrival arrival;
    arrival.class_id = static_cast<query::QueryClassId>(i % 2);
    qa_nt.Allocate(arrival, spy);
  }
  // The market mechanism never touches node load or usage state: this is
  // the "respects autonomy" row of Table 2, enforced by test.
  EXPECT_EQ(spy.backlog_reads(), 0);
  EXPECT_EQ(spy.work_reads(), 0);
}

TEST(AutonomyTest, LoadBalancersDoReadNodeInternals) {
  util::Rng rng(42);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = 20;
  auto model = sim::BuildTwoClassCostModel(scenario, rng);
  IdleContext idle(model.get());

  allocation::AllocatorParams params;
  params.cost_model = model.get();
  for (const char* name : {"BNQRD", "TwoProbes"}) {
    auto alloc = allocation::CreateAllocator(name, params);
    SpyContext spy(&idle);
    for (int i = 0; i < 50; ++i) {
      workload::Arrival arrival;
      arrival.class_id = 0;
      alloc->Allocate(arrival, spy);
    }
    EXPECT_GT(spy.backlog_reads() + spy.work_reads(), 0) << name;
  }
}

/// Full-pipeline run on the two-class federation for every mechanism.
class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(42);
    sim::TwoClassConfig scenario;
    scenario.num_nodes = 20;
    model_ = sim::BuildTwoClassCostModel(scenario, rng);
    capacity_ = sim::EstimateCapacityQps(*model_, {2.0, 1.0},
                                         500 * kMillisecond);

    workload::SinusoidConfig wave;
    wave.frequency_hz = 0.05;
    wave.duration = 20 * kSecond;
    wave.num_origin_nodes = 20;
    wave.q1_peak_rate = 0.9 * capacity_;
    util::Rng wl_rng(43);
    trace_ = workload::GenerateSinusoidWorkload(wave, wl_rng);
  }

  sim::SimMetrics Run(const std::string& mechanism) {
    allocation::AllocatorParams params;
    params.cost_model = model_.get();
    params.period = 500 * kMillisecond;
    params.seed = 42;
    auto alloc = allocation::CreateAllocator(mechanism, params);
    sim::FederationConfig config;
    config.period = 500 * kMillisecond;
    config.max_retries = 5000;
    sim::Federation fed(model_.get(), alloc.get(), config);
    return fed.Run(trace_);
  }

  std::unique_ptr<query::MatrixCostModel> model_;
  double capacity_ = 0.0;
  workload::Trace trace_;
};

TEST_F(EndToEndTest, EveryMechanismCompletesTheTrace) {
  for (const std::string& name : allocation::AllMechanismNames()) {
    sim::SimMetrics m = Run(name);
    EXPECT_EQ(m.completed + m.dropped,
              static_cast<int64_t>(trace_.size()))
        << name;
    EXPECT_EQ(m.dropped, 0) << name;
    EXPECT_GT(m.MeanResponseMs(), 0.0) << name;
  }
}

TEST_F(EndToEndTest, QaNtBeatsSpeedBlindBaselines) {
  double qa_nt = Run("QA-NT").MeanResponseMs();
  EXPECT_LT(qa_nt, Run("Random").MeanResponseMs());
  EXPECT_LT(qa_nt, Run("RoundRobin").MeanResponseMs());
}

TEST_F(EndToEndTest, ResponseConservation) {
  // Total busy time across nodes can never exceed nodes * horizon, and
  // completed work is consistent with per-node counters.
  sim::SimMetrics m = Run("QA-NT");
  int64_t per_node_total = 0;
  for (int64_t c : m.node_completed) per_node_total += c;
  EXPECT_EQ(per_node_total, m.completed);
  EXPECT_LE(m.total_busy_time,
            static_cast<util::VDuration>(model_->num_nodes()) * m.end_time);
}

TEST_F(EndToEndTest, MessageCountsReflectMechanismCosts) {
  // QA-NT negotiates with every feasible node (plus retries), so it costs
  // strictly more messages than Random's single send (Table 2 discussion).
  sim::SimMetrics qa_nt = Run("QA-NT");
  sim::SimMetrics random = Run("Random");
  EXPECT_GT(qa_nt.messages, random.messages);
  EXPECT_EQ(random.messages, static_cast<int64_t>(trace_.size()));
}

TEST(Fig1IntegrationTest, ExactPaperNumbers) {
  // The Fig. 1 walk, end to end through the cost model: LB averages
  // 662.5 ms, QA 431.25 ms, and QA ends the overload 300 ms earlier.
  auto model = sim::BuildFig1CostModel();
  struct Step {
    int class_id;
    int lb_node;
    int qa_node;
  };
  // Paper's narrated assignment: q1->N1, q1->N2, then q2 x3 -> N1,
  // q2 -> N2, q2 x2 -> N1 for LB; QA sends q1s to N2 and q2s to N1.
  std::vector<Step> steps = {{0, 0, 1}, {0, 1, 1}, {1, 0, 0}, {1, 0, 0},
                             {1, 0, 0}, {1, 1, 0}, {1, 0, 0}, {1, 0, 0}};
  double lb_busy[2] = {0, 0};
  double qa_busy[2] = {0, 0};
  double lb_total = 0;
  double qa_total = 0;
  for (const Step& s : steps) {
    lb_busy[s.lb_node] +=
        util::ToMillis(model->Cost(s.class_id, s.lb_node));
    lb_total += lb_busy[s.lb_node];
    qa_busy[s.qa_node] +=
        util::ToMillis(model->Cost(s.class_id, s.qa_node));
    qa_total += qa_busy[s.qa_node];
  }
  EXPECT_DOUBLE_EQ(lb_total / 8.0, 662.5);
  EXPECT_DOUBLE_EQ(qa_total / 8.0, 431.25);
  EXPECT_DOUBLE_EQ(lb_busy[0], 900.0);
  EXPECT_DOUBLE_EQ(lb_busy[1], 950.0);
  EXPECT_DOUBLE_EQ(qa_busy[0], 600.0);
  EXPECT_DOUBLE_EQ(qa_busy[1], 900.0);
}

TEST(Table3IntegrationTest, ZipfWorkloadRunsOnFullScenario) {
  sim::Table3Config config;
  config.catalog.num_relations = 150;
  config.catalog.num_nodes = 15;
  config.profiles.num_nodes = 15;
  config.templates.num_classes = 15;
  config.templates.max_joins = 8;
  util::Rng rng(42);
  sim::Scenario scenario = sim::BuildTable3Scenario(config, rng);

  workload::ZipfWorkloadConfig zipf;
  zipf.num_queries = 400;
  zipf.num_classes = 15;
  zipf.mean_interarrival = 3000 * kMillisecond;
  zipf.num_origin_nodes = 15;
  util::Rng wl_rng(43);
  workload::Trace trace = workload::GenerateZipfWorkload(zipf, wl_rng);

  allocation::AllocatorParams params;
  params.cost_model = scenario.cost_model.get();
  params.seed = 42;
  auto alloc = allocation::CreateAllocator("QA-NT", params);
  sim::FederationConfig fed_config;
  fed_config.max_retries = 5000;
  sim::Federation fed(scenario.cost_model.get(), alloc.get(), fed_config);
  sim::SimMetrics m = fed.Run(trace);
  EXPECT_EQ(m.completed, 400);
  EXPECT_EQ(m.dropped, 0);
}

}  // namespace
}  // namespace qa
